import json
import math
import re
from collections import Counter

import pytest

from ivln import tourgen
from ivln.environment import connectivity_matrix
from ivln.errors import Disconnected, EmptySequence, InstructionCountMismatch, MissingEpisode
from ivln.syngen import EpisodeSpec, FloorplanSpec, generate_episodes, generate_scene
from ivln.tourgen import (
    Episode,
    Tour,
    build_tours,
    compute_tour_stats,
    expand_instruction_tours,
    load_episodes,
    load_tours,
    partition_paths,
    save_episodes,
    save_tours,
    unique_paths,
)

from conftest import scene_from_ascii


def dfs_components(matrix):
    """Independent grouping: depth-first search over finite-cost pairs."""
    n = len(matrix)
    adj = {
        i: [
            j
            for j in range(n)
            if j != i and (math.isfinite(matrix[i][j]) or math.isfinite(matrix[j][i]))
        ]
        for i in range(n)
    }
    seen = set()
    comps = []
    for i in range(n):
        if i in seen:
            continue
        stack, comp = [i], set()
        while stack:
            k = stack.pop()
            if k in comp:
                continue
            comp.add(k)
            stack.extend(adj[k])
        seen |= comp
        comps.append(comp)
    return comps


def ep(path_id, pts, k=0, scene_id="s"):
    return Episode(
        episode_id=f"{path_id}_{k}",
        path_id=path_id,
        scene_id=scene_id,
        path=pts,
        start_heading=0.0,
        instruction_id=f"{path_id}_i{k}",
        instruction=f"walk {path_id}",
    )


@pytest.fixture(scope="module")
def split_world():
    # two rooms with no door between them
    scene = scene_from_ascii(
        [
            "#########",
            "#...#...#",
            "#...#...#",
            "#...#...#",
            "#########",
        ],
        scene_id="split",
        resolution=0.5,
    )
    g = scene.grid
    left = [
        ep("L0", [g.cell_center((1, 1)), g.cell_center((3, 1))]),
        ep("L1", [g.cell_center((1, 3)), g.cell_center((3, 3))]),
    ]
    right = [
        ep("R0", [g.cell_center((5, 1)), g.cell_center((7, 1))]),
        ep("R1", [g.cell_center((5, 3)), g.cell_center((7, 3))]),
        ep("R2", [g.cell_center((7, 2)), g.cell_center((5, 2))]),
    ]
    return scene, left, right


def test_partition_matches_dfs_components(split_world):
    scene, left, right = split_world
    episodes = left + right
    groups = partition_paths(episodes, scene)
    got = [set(g.path_ids) for g in groups]

    reps = unique_paths(episodes)
    matrix = connectivity_matrix(scene, [(e.start, e.goal) for e in reps])
    expected = [
        {reps[i].path_id for i in comp} for comp in dfs_components(matrix.tolist())
    ]
    assert len(got) == len(expected) == 2
    assert {frozenset(s) for s in got} == {frozenset(s) for s in expected}


def test_partition_group_order_is_first_appearance(split_world):
    scene, left, right = split_world
    groups = partition_paths(right + left, scene)
    assert groups[0].path_ids[0].startswith("R")
    assert groups[1].path_ids[0].startswith("L")


def test_partition_single_component(split_world):
    scene, left, _ = split_world
    groups = partition_paths(left, scene)
    assert len(groups) == 1
    assert set(groups[0].path_ids) == {"L0", "L1"}


@pytest.mark.parametrize("room", ["left", "right"])
def test_a_path_across_the_sealed_wall_is_refused_not_merged(split_world, room):
    # X0 starts in the left room and ends in the right one: its own end
    # does not reach its start, whichever room's paths come with it
    scene, left, right = split_world
    g = scene.grid
    across = ep("X0", [g.cell_center((1, 2)), g.cell_center((7, 2))])
    others = left if room == "left" else right
    with pytest.raises(Disconnected, match=r"the end of path X0 does not reach its start in split"):
        partition_paths(others + [across], scene)
    with pytest.raises(Disconnected):
        build_tours(left + right + [across], scene, seed=0)


def test_a_path_whose_ends_are_disconnected_is_refused_alone_or_paired(split_world):
    # alone its matrix is [[0]] once the diagonal is set; paired with a path
    # that crosses back, both rows are finite everywhere: each forms a block
    scene, _, _ = split_world
    g = scene.grid
    there = ep("X0", [g.cell_center((1, 2)), g.cell_center((7, 2))])
    back = ep("Y0", [g.cell_center((7, 1)), g.cell_center((1, 1))])
    for episodes, path in (([there], "X0"), ([back, there], "Y0")):
        with pytest.raises(Disconnected, match=f"the end of path {path} does not reach its start") as info:
            partition_paths(episodes, scene)
        assert info.value.index == 0
        with pytest.raises(Disconnected):
            build_tours(episodes, scene, seed=0)
    with pytest.raises(Disconnected, match="the end of path 1 does not reach its start in split") as info:
        connectivity_matrix(scene, [(back.start, back.start), (there.start, there.goal)])
    assert info.value.index == 1


def test_build_tours_refuses_an_empty_episode_list(split_world):
    scene, _, _ = split_world
    with pytest.raises(EmptySequence, match="no episodes to build tours from in split"):
        build_tours([], scene, seed=0)


def test_unique_paths_first_appearance():
    a0, a1 = ep("A", [(0, 0, 0), (1, 0, 0)], 0), ep("A", [(0, 0, 0), (1, 0, 0)], 1)
    b0 = ep("B", [(2, 0, 0), (3, 0, 0)], 0)
    reps = unique_paths([a0, b0, a1])
    assert [r.episode_id for r in reps] == ["A_0", "B_0"]


@pytest.mark.parametrize("n", [2, 3])
def test_expansion_exact_cover(n):
    paths = ["P0", "P1", "P2", "P3"]
    episodes = [ep(p, [(0, 0, 0), (1, 0, 0)], k) for p in paths for k in range(n)]
    tours = expand_instruction_tours(paths, episodes, n, seed=13)
    assert len(tours) == n
    # each tour visits every path exactly once, in the given order
    for tour in tours:
        assert [eid.split("_")[0] for eid in tour.episode_ids] == paths
    # every episode appears in exactly one tour
    used = Counter(eid for tour in tours for eid in tour.episode_ids)
    assert set(used) == {e.episode_id for e in episodes}
    assert set(used.values()) == {1}


def test_expansion_count_mismatch():
    episodes = [ep("P0", [(0, 0, 0), (1, 0, 0)], k) for k in range(2)]
    episodes += [ep("P1", [(0, 0, 0), (1, 0, 0)], 0)]
    with pytest.raises(InstructionCountMismatch):
        expand_instruction_tours(["P0", "P1"], episodes, 2, seed=0)


def test_expansion_deterministic_and_seed_sensitive():
    paths = [f"P{i}" for i in range(6)]
    episodes = [ep(p, [(0, 0, 0), (1, 0, 0)], k) for p in paths for k in range(3)]
    a = expand_instruction_tours(paths, episodes, 3, seed=1)
    b = expand_instruction_tours(paths, episodes, 3, seed=1)
    c = expand_instruction_tours(paths, episodes, 3, seed=2)
    assert [t.episode_ids for t in a] == [t.episode_ids for t in b]
    assert [t.episode_ids for t in a] != [t.episode_ids for t in c]


def test_build_tours_covers_sealed_groups(split_world):
    scene, left, right = split_world
    base = left + right
    episodes = []
    for e in base:
        for k in range(2):
            episodes.append(
                Episode(
                    episode_id=f"{e.path_id}_{k}",
                    path_id=e.path_id,
                    scene_id=e.scene_id,
                    path=e.path,
                    start_heading=0.0,
                    instruction_id=f"{e.path_id}_i{k}",
                    instruction="x",
                )
            )
    tours = build_tours(episodes, scene, seed=3)
    # 2 groups x 2 instruction duplicates
    assert len(tours) == 4
    used = Counter(eid for t in tours for eid in t.episode_ids)
    assert set(used.values()) == {1}
    assert len(used) == len(episodes)


@pytest.mark.parametrize("world", ["split", "graph"])
def test_build_tours_builds_one_endpoint_matrix(split_world, synth, monkeypatch, world):
    if world == "split":
        scene, left, right = split_world
        episodes = left + right
    else:
        scene = synth["graph_scene"]
        spec = EpisodeSpec(count=5, instructions_per_path=2, seed=21, length_range=(2.0, 12.0))
        episodes = generate_episodes(scene, spec, id_prefix="gep")
    calls = []

    def counting(*args):
        calls.append(args)
        return connectivity_matrix(*args)

    monkeypatch.setattr(tourgen, "connectivity_matrix", counting)
    build_tours(episodes, scene, seed=0)
    assert len(calls) == 1
    groups = partition_paths(episodes, scene)
    assert len(groups) == (2 if world == "split" else 1)
    reps = {e.path_id: e for e in unique_paths(episodes)}
    for group in groups:
        # bitwise what a connectivity_matrix over the group's paths gives
        alone = connectivity_matrix(scene, [(reps[p].start, reps[p].goal) for p in group.path_ids])
        assert group.cost.tobytes() == alone.tobytes()


def test_stats_single_tour():
    tours = [Tour(tour_id="t", scene_id="s", episode_ids=[f"e{i}" for i in range(5)])]
    stats = compute_tour_stats(tours)
    assert stats.scenes == 1
    assert stats.episodes == 5
    assert stats.tours == 1
    assert stats.mean_length == 5.0
    assert stats.stddev_length == 0.0
    assert stats.min_length == stats.max_length == 5


def test_stats_empty_raises():
    with pytest.raises(EmptySequence):
        compute_tour_stats([])


def test_episode_io_round_trip(tmp_path, synth):
    episodes = synth["episodes"]
    out = tmp_path / "episodes.json"
    save_episodes(episodes, out)
    back = load_episodes(out)
    assert len(back) == len(episodes)
    for a, b in zip(back, episodes):
        assert a.episode_id == b.episode_id
        assert a.path_id == b.path_id
        assert a.instruction == b.instruction
        assert a.start_heading == pytest.approx(b.start_heading)
        assert a.path == b.path
    # the records group instructions per path
    payload = json.loads(out.read_text())
    rec = payload["episodes"][0]
    assert isinstance(rec["instructions"], list) and len(rec["instructions"]) == 3


INTEGER_IDS = {"episode_id": 7, "path_id": 3, "scan": 5, "path": [[0.0, 0.0, 0.0]], "heading": 0.0,
               "instructions": ["go", "stop"], "instruction_ids": [11, 12]}


def test_integer_ids_load_as_text(tmp_path):
    path = tmp_path / "episodes.json"
    path.write_text(json.dumps({"episodes": [INTEGER_IDS]}))
    back = load_episodes(path)
    assert [(ep.episode_id, ep.path_id, ep.scene_id, ep.instruction_id) for ep in back] == [
        ("7_0", "3", "5", "11"), ("7_1", "3", "5", "12")]


@pytest.mark.parametrize("field, value, named", [
    ("scan", True, ": field 'scan'"), ("path_id", None, ": field 'path_id'"),
    ("episode_id", 1.0, ": field 'episode_id'"), ("instruction_ids", [11, [12]], ": field 'instruction_ids' item 1"),
])
def test_an_episode_id_that_is_not_a_string_or_an_integer_is_named(tmp_path, field, value, named):
    path = tmp_path / "episodes.json"
    path.write_text(json.dumps({"episodes": [{**INTEGER_IDS, field: value}]}))
    message = f"{path} episode record 0{named} must be a string or an integer"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_episodes(path)


def test_tour_io_round_trip(tmp_path, synth):
    out = tmp_path / "tours.json"
    save_tours(synth["tours"], synth["episodes"], out)
    back = load_tours(out)
    assert [t.tour_id for t in back] == [t.tour_id for t in synth["tours"]]
    assert [t.episode_ids for t in back] == [t.episode_ids for t in synth["tours"]]
    payload = json.loads(out.read_text())
    assert payload["format_version"] == "1"
    entry = payload["tours"][0]["episodes"][0]
    assert set(entry) == {"episode_id", "instruction_id"}


def test_save_tours_rejects_an_episode_missing_from_the_set(tmp_path, synth):
    out = tmp_path / "tours.json"
    with pytest.raises(MissingEpisode, match="tour t references unknown episode 'nope'"):
        save_tours([Tour("t", "s", ["nope"])], [], out)
    tours = synth["tours"][:1]
    with pytest.raises(MissingEpisode):
        save_tours(tours + [Tour("u", "s", tours[0].episode_ids + ["nope"])], synth["episodes"], out)
    assert not out.exists()


def test_graph_scene_tours(synth):
    # the same pipeline runs on the navigation-graph twin
    graph_scene = synth["graph_scene"]
    spec = EpisodeSpec(count=5, instructions_per_path=2, seed=21, length_range=(2.0, 12.0))
    episodes = generate_episodes(graph_scene, spec, id_prefix="gep")
    tours = build_tours(episodes, graph_scene, seed=21)
    used = Counter(eid for t in tours for eid in t.episode_ids)
    assert set(used.values()) == {1}
    assert len(used) == len(episodes)
