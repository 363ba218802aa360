import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivln import syngen
from ivln.environment import NavIndex, geodesic_distance, scene_to_dict
from ivln.errors import SamplingExhausted, SpecInfeasible
from ivln.syngen import (
    FURNITURE_LABELS,
    LABEL_DOOR,
    LABEL_FLOOR,
    LABEL_WALL,
    EpisodeSpec,
    FloorplanSpec,
    generate_episodes,
    generate_scene,
)

from conftest import sample_episodes_reference


def flood_components(navigable):
    """4-connected component count, the sceptic's view of connectivity."""
    seen = np.zeros_like(navigable, dtype=bool)
    h, w = navigable.shape
    comps = 0
    for iy in range(h):
        for ix in range(w):
            if not navigable[iy, ix] or seen[iy, ix]:
                continue
            comps += 1
            stack = [(ix, iy)]
            seen[iy, ix] = True
            while stack:
                x, y = stack.pop()
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    nx, ny = x + dx, y + dy
                    if 0 <= nx < w and 0 <= ny < h and navigable[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        stack.append((nx, ny))
    return comps


def test_generation_is_deterministic():
    spec = FloorplanSpec(rooms=3, seed=21)
    a_grid, a_graph = generate_scene(spec)
    b_grid, b_graph = generate_scene(spec)
    assert scene_to_dict(a_grid) == scene_to_dict(b_grid)
    assert scene_to_dict(a_graph) == scene_to_dict(b_graph)
    espec = EpisodeSpec(count=4, seed=3)
    first = generate_episodes(a_grid, espec)
    second = generate_episodes(b_grid, espec)
    assert [(e.episode_id, e.instruction, e.path) for e in first] == [
        (e.episode_id, e.instruction, e.path) for e in second
    ]


def test_seed_changes_the_layout():
    a, _ = generate_scene(FloorplanSpec(rooms=3, seed=1))
    b, _ = generate_scene(FloorplanSpec(rooms=3, seed=2))
    assert scene_to_dict(a) != scene_to_dict(b)


def test_scene_structure():
    scene, _ = generate_scene(FloorplanSpec(rooms=4, seed=9))
    grid = scene.grid
    assert not grid.navigable[0, :].any()
    assert not grid.navigable[-1, :].any()
    assert not grid.navigable[:, 0].any()
    assert not grid.navigable[:, -1].any()
    walkable_labels = {LABEL_FLOOR, LABEL_DOOR}
    blocked_labels = {LABEL_WALL} | set(FURNITURE_LABELS)
    assert set(np.unique(grid.semantic[grid.navigable])) <= walkable_labels
    assert set(np.unique(grid.semantic[~grid.navigable])) <= blocked_labels


def test_open_doors_keep_the_floor_connected():
    scene, _ = generate_scene(FloorplanSpec(rooms=4, seed=9))
    assert flood_components(scene.grid.navigable) == 1


def test_sealed_doors_split_the_floor():
    scene, graph_scene = generate_scene(
        FloorplanSpec(rooms=2, sealed_door_probability=1.0, seed=5)
    )
    assert flood_components(scene.grid.navigable) == 2
    # the graph twin agrees: two isolated room nodes, no doors
    graph = graph_scene.graph
    assert sorted(graph.nodes) == ["r0", "r1"]
    assert graph.edges == []


def test_episode_lengths_respect_the_range():
    scene, _ = generate_scene(FloorplanSpec(rooms=4, seed=9))
    spec = EpisodeSpec(count=6, length_range=(4.0, 8.0), seed=2)
    episodes = generate_episodes(scene, spec)
    assert len(episodes) == 6
    for ep in episodes:
        d = geodesic_distance(scene, ep.path[0], ep.path[-1])
        assert 4.0 - 1e-9 <= d <= 8.0 + 1e-9
        assert len(ep.path) >= 2


def test_instruction_fan_out():
    scene, _ = generate_scene(FloorplanSpec(rooms=4, seed=9))
    episodes = generate_episodes(scene, EpisodeSpec(count=2, instructions_per_path=3, seed=4))
    assert len(episodes) == 6
    by_path = {}
    for ep in episodes:
        by_path.setdefault(ep.path_id, []).append(ep)
    assert len(by_path) == 2
    for path_id, group in by_path.items():
        assert len(group) == 3
        assert len({e.episode_id for e in group}) == 3
        assert len({e.instruction_id for e in group}) == 3
        assert len({e.instruction for e in group}) == 3  # one template each
        assert all(e.path == group[0].path for e in group)
        assert all(e.start_heading == group[0].start_heading for e in group)


def test_start_heading_faces_the_path():
    scene, _ = generate_scene(FloorplanSpec(rooms=4, seed=9))
    for ep in generate_episodes(scene, EpisodeSpec(count=3, seed=8)):
        a, b = ep.path[0], ep.path[1]
        assert ep.start_heading == pytest.approx(math.atan2(b.y - a.y, b.x - a.x) % (2 * math.pi))


def test_spec_validation():
    with pytest.raises(SpecInfeasible):
        FloorplanSpec(rooms=0)
    with pytest.raises(SpecInfeasible):
        FloorplanSpec(door_width=0.3)  # under two cells
    with pytest.raises(SpecInfeasible):
        FloorplanSpec(room_size_range=(5.0, 3.0))
    with pytest.raises(SpecInfeasible):
        FloorplanSpec(room_size_range=(1.0, 1.0))  # four cells, too tight
    with pytest.raises(SpecInfeasible):
        EpisodeSpec(count=0)
    with pytest.raises(SpecInfeasible):
        # a five cell room cannot host a four cell door plus posts
        generate_scene(FloorplanSpec(rooms=2, room_size_range=(1.25, 1.25), door_width=1.0))


def test_sampling_exhausted_on_impossible_lengths():
    scene, _ = generate_scene(FloorplanSpec(rooms=2, seed=1))
    with pytest.raises(SamplingExhausted):
        generate_episodes(scene, EpisodeSpec(count=2, length_range=(900.0, 1000.0), seed=0))


def test_graph_twin_structure():
    _, graph_scene = generate_scene(FloorplanSpec(rooms=4, seed=9))
    graph = graph_scene.graph
    rooms = [n for n in graph.nodes if n.startswith("r")]
    doors = [n for n in graph.nodes if n.startswith("d")]
    assert len(rooms) == 4
    assert doors
    for a, b in graph.edges:
        assert {a[0], b[0]} == {"r", "d"}, "edges join rooms to doors"
    for door in doors:
        assert len(graph.adjacency[door]) == 2, "doors join exactly two rooms"
    # the twin is one connected component, like the floor it mirrors
    seen = {rooms[0]}
    frontier = [rooms[0]]
    while frontier:
        here = frontier.pop()
        for nxt in graph.adjacency[here]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert seen == set(graph.nodes)


def test_graph_twin_supports_episodes():
    _, graph_scene = generate_scene(FloorplanSpec(rooms=4, seed=9))
    episodes = generate_episodes(graph_scene, EpisodeSpec(count=3, length_range=(2.0, 30.0), seed=1))
    assert len(episodes) == 3
    node_points = set(graph_scene.graph.nodes.values())
    for ep in episodes:
        assert set(ep.path) <= node_points


def test_each_reference_path_reads_the_field_its_length_check_opened(monkeypatch):
    scene, _ = generate_scene(FloorplanSpec(rooms=4, seed=9))
    route = NavIndex.route
    opened = []

    def checked_route(nav, a, b):
        opened.append(nav.id_of[b] in nav._fields)
        return route(nav, a, b)

    monkeypatch.setattr(NavIndex, "route", checked_route)
    episodes = generate_episodes(scene, EpisodeSpec(count=6, instructions_per_path=1, seed=4))
    assert len(opened) == len(episodes) and all(opened)


def twin(kind, rooms, seed):
    """A fresh scene (no field open) of one side of a generated floorplan."""
    return generate_scene(FloorplanSpec(rooms=rooms, seed=seed))[kind == "graph"]


# On this 16-room floorplan the straight line refuses about 65%, 10% and
# none of the drawn pairs for these length ranges, on either side.
@pytest.mark.parametrize("length_range", [(5.0, 7.0), (4.0, 14.0), (0.0, 1000.0)])
@pytest.mark.parametrize("kind", ["grid", "graph"])
def test_sampling_equals_one_search_per_attempt(kind, length_range):
    spec = EpisodeSpec(count=8, length_range=length_range, instructions_per_path=2, seed=3)
    episodes = generate_episodes(twin(kind, 16, 11), spec)
    assert len(episodes) == 16
    assert episodes == sample_episodes_reference(twin(kind, 16, 11), spec)


@pytest.mark.parametrize("kind, rooms, length_range", [("grid", 4, (11.5, 11.7)), ("graph", 16, (26.0, 30.0))])
def test_exhausted_sampling_reports_the_attempts_of_one_search_per_attempt(kind, rooms, length_range):
    spec = EpisodeSpec(count=3, length_range=length_range, instructions_per_path=2, seed=3)
    with pytest.raises(SamplingExhausted) as reference:
        sample_episodes_reference(twin(kind, rooms, 11), spec)
    with pytest.raises(SamplingExhausted) as batched:
        generate_episodes(twin(kind, rooms, 11), spec)
    assert str(batched.value) == str(reference.value)
    # some paths were accepted before the budget ran out
    assert not str(batched.value).startswith("sampled 0 ")



def test_blocks_grow_while_no_path_is_found_up_to_a_bound(monkeypatch):
    draw_ahead, blocks = syngen._draw_ahead, []
    monkeypatch.setattr(syngen, "_draw_ahead", lambda *args: blocks.append(draw_ahead(*args)) or blocks[-1])
    spec = EpisodeSpec(count=3, length_range=(12.0, 12.5), instructions_per_path=2, seed=3)
    with pytest.raises(SamplingExhausted, match="^sampled 0 episodes in 900 attempts"):
        generate_episodes(twin("grid", 4, 9), spec)
    sizes = [len(block) for block in blocks]
    assert sum(sizes) == 900
    assert sizes[:6] == [6, 12, 24, 48, 96, syngen._BLOCK_ATTEMPTS]  # twice the paths wanted, then doubled
    assert max(sizes) == syngen._BLOCK_ATTEMPTS

@given(st.integers(1, 9), st.floats(0.0, 0.5), st.integers(0, 10_000))
@settings(max_examples=20, derandomize=True)
def test_no_route_is_shorter_than_the_straight_line(rooms, sealed, seed):
    # the premise of the sampler's straight-line refusal
    for scene in generate_scene(FloorplanSpec(rooms=rooms, sealed_door_probability=sealed, seed=seed)):
        nav = scene.nav
        rng = np.random.default_rng(seed)
        for a, b in rng.integers(len(nav.locations), size=(6, 2)).tolist():
            pa, pb = (scene.location_point(nav.locations[i]) for i in (a, b))
            assert geodesic_distance(scene, pa, pb) >= math.dist(pa, pb) * (1 - 1e-9)
