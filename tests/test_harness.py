import importlib.util
import json
import math
import signal
import socket
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from ivln.config import Config
from ivln.environment import NavIndex, Point3, Pose, Scene
from ivln import harness
from ivln.errors import Disconnected, MissingEpisode, PolicyTimeout, ProtocolViolation
from ivln.harness import (
    AgentAction,
    AgentState,
    ExternalPolicy,
    NoisyOraclePolicy,
    Observation,
    OraclePolicy,
    RandomPolicy,
    SocketTransport,
    StopPolicy,
    SubprocessTransport,
    apply_action,
    legal_actions,
    make_policy,
    observation_message,
    replay_tour,
    run_tour,
    run_tours,
)
from ivln.mapper import (
    crop_egocentric,
    crop_from_compact,
    crop_layers,
    crop_to_compact,
    known_map,
    map_to_dict,
    save_map,
)
from ivln.metrics import TourTrace, ndtw, write_traces
from ivln.tourgen import Episode, Tour

from conftest import check_trace_invariants, grid_neighbors, is_open, oracle_segments, scene_from_ascii


AGENT_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "example_agent.py"


def P(ix, iy):
    return Point3(ix * 0.25, iy * 0.25, 0.0)


def ep(eid, cells, heading=0.0):
    return Episode(
        episode_id=eid,
        path_id="path_" + eid,
        scene_id="open-room",
        path=[P(ix, iy) for ix, iy in cells],
        start_heading=heading,
        instruction_id=eid + "_i0",
        instruction="walk",
    )


def tour_of(*eps):
    return (
        Tour("t0", eps[0].scene_id, [e.episode_id for e in eps]),
        {e.episode_id: e for e in eps},
    )


# -- oracle follower ----------------------------------------------------------


def oracle_actions(scene, episode):
    """The actions the rollout's oracle takes through a one-episode tour."""
    tour, by_id = tour_of(episode)
    trace, _ = run_tour(scene, tour, by_id, OraclePolicy(scene, by_id))
    return trace.episodes[0].actions


def test_oracle_follower_single_point(open_room):
    assert oracle_actions(open_room, ep("e", [(2, 2)])) == ["stop"]


def test_oracle_follower_straight_metre(open_room):
    acts = oracle_actions(open_room, ep("e", [(2, 2), (6, 2)], heading=0.0))
    assert acts == ["forward"] * 4 + ["stop"]


def test_oracle_follower_turns_until_aligned(open_room):
    # goal is due north; five 15 degree lefts reach the (0, 1) sector
    acts = oracle_actions(open_room, ep("e", [(2, 2), (2, 5)], heading=0.0))
    assert acts == ["left"] * 5 + ["forward"] * 3 + ["stop"]


def test_oracle_follower_opposite_heading_turns_right(open_room):
    # a 180 degree about-face is a tie; the oracle breaks it clockwise
    acts = oracle_actions(open_room, ep("e", [(4, 2), (2, 2)], heading=0.0))
    assert acts[0] == "right"


@pytest.mark.parametrize("heading", [0.0, math.pi / 8])
def test_oracle_follower_reaches_every_compass_neighbor_at_a_44_degree_turn(open_room, heading):
    # a turn below 45 degrees cannot overshoot a 45-degree sector both ways
    for cell in [(5, 3), (5, 4), (4, 4), (3, 4), (3, 3), (3, 2), (4, 2), (5, 2)]:
        tour, by_id = tour_of(ep("e", [(4, 3), cell], heading=heading))
        trace, _ = run_tour(open_room, tour, by_id, OraclePolicy(open_room, by_id), Config(turn_deg=44.0))
        assert trace.episodes[0].stop_called and trace.episodes[0].agent_path[-1] == P(*cell)


def test_oracle_follower_on_graph(square_graph):
    episode = Episode(
        episode_id="g",
        path_id="path_g",
        scene_id="square",
        path=[Point3(0, 0, 1), Point3(2, 0, 1), Point3(2, 2, 1)],
        start_heading=0.0,
        instruction_id="g_i0",
        instruction="ring",
    )
    assert oracle_actions(square_graph, episode) == ["goto:b", "goto:c", "stop"]


# -- motion model -------------------------------------------------------------


def test_apply_action_turns(open_room):
    cfg = Config()
    state = AgentState((2, 2), 0.0)
    left = apply_action(open_room, state, AgentAction("left"), cfg)
    assert left.heading == pytest.approx(math.radians(15))
    right = apply_action(open_room, state, AgentAction("right"), cfg)
    assert right.heading == pytest.approx(math.radians(345))
    assert left.location == right.location == (2, 2)


def test_apply_action_forward_and_blocked(open_room):
    cfg = Config()
    fwd = apply_action(open_room, AgentState((2, 2), 0.0), AgentAction("forward"), cfg)
    assert fwd.location == (3, 2)
    blocked = apply_action(open_room, AgentState((1, 2), math.pi), AgentAction("forward"), cfg)
    assert blocked.location == (1, 2)


@pytest.mark.parametrize("kind", ["grid", "graph"])
def test_apply_action_refuses_stop_naming_only_what_it_accepts(kind, open_room, square_graph):
    scene, location = (open_room, (2, 2)) if kind == "grid" else (square_graph, "a")
    accepts = "forward, left or right" if kind == "grid" else "goto"
    with pytest.raises(ProtocolViolation, match=f"^{kind} scenes accept {accepts}, got stop$"):
        apply_action(scene, AgentState(location, 0.0), AgentAction("stop"), Config())


def test_forward_lands_on_a_grid_neighbor_or_stays_put(synth):
    scene, cfg = synth["scene"], Config()
    grid = scene.grid
    cut_corners = 0
    for iy, ix in np.argwhere(grid.navigable):
        cell = (int(ix), int(iy))
        neighbors = {nxt for nxt, _ in grid_neighbors(grid, cell)}
        for k in range(8):
            heading = k * math.pi / 4.0
            dx, dy = harness.heading_to_dir8(heading)
            target = (cell[0] + dx, cell[1] + dy)
            moved = apply_action(scene, AgentState(cell, heading), AgentAction("forward"), cfg)
            assert moved.location == (target if target in neighbors else cell)
            cut_corners += is_open(grid, target) and target not in neighbors
    assert cut_corners > 0  # the corner rule is exercised, not only walls


def test_apply_action_graph_goto(square_graph):
    cfg = Config()
    state = AgentState("a", 0.0)
    hop = apply_action(square_graph, state, AgentAction("goto", node="b"), cfg)
    assert hop.location == "b"
    assert hop.heading == pytest.approx(0.0)
    with pytest.raises(ProtocolViolation):
        apply_action(square_graph, state, AgentAction("goto", node="c"), cfg)
    with pytest.raises(ProtocolViolation):
        apply_action(square_graph, state, AgentAction("forward"), cfg)


def test_legal_actions(open_room, square_graph):
    kinds = {a.kind for a in legal_actions(open_room, AgentState((2, 2), 0.0))}
    assert kinds == {"forward", "left", "right", "stop"}
    graph_labels = {a.label() for a in legal_actions(square_graph, AgentState("a", 0.0))}
    assert graph_labels == {"goto:b", "goto:d", "stop"}


def test_budget_defaults(open_room, square_graph):
    cfg = Config()
    assert cfg.budget(open_room) == 500
    assert cfg.budget(square_graph) == 15
    assert Config(max_steps=7).budget(open_room) == 7


def test_invalid_config_raises_before_the_tour_starts(open_room):
    class Recorder(StopPolicy):
        def __init__(self):
            self.resets = []

        def reset(self, tour_id):
            self.resets.append(tour_id)

    tour, by_id = tour_of(ep("e0", [(2, 2), (6, 2)]))
    policy = Recorder()
    with pytest.raises(ValueError, match="max_steps"):
        run_tour(open_room, tour, by_id, policy, Config(max_steps=0))
    assert policy.resets == []


# -- rollouts -----------------------------------------------------------------


def test_oracle_rollout_has_no_corrections(open_room):
    # dense cell-by-cell references, as the episode generator emits them
    tour, by_id = tour_of(
        ep("e0", [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2)]),
        ep("e1", [(6, 2), (6, 3), (6, 4), (6, 5)]),  # starts at e0's goal
    )
    trace, occ_map = run_tour(open_room, tour, by_id, OraclePolicy(open_room, by_id))
    assert occ_map is None
    check_trace_invariants(trace, 2)
    assert oracle_segments(trace) == []
    for et in trace.episodes:
        assert et.stop_called
        assert ndtw(et.agent_path, et.reference_path, d_th=3.0) == pytest.approx(1.0)


def test_stop_policy_gets_corrected_and_transits(open_room):
    tour, by_id = tour_of(
        ep("e0", [(2, 2), (6, 2)]),
        ep("e1", [(2, 5), (6, 5)]),
    )
    trace, _ = run_tour(open_room, tour, by_id, StopPolicy())
    check_trace_invariants(trace, 2)
    assert trace.episodes[0].actions == ["stop"]
    kinds = [(s.kind, et.episode_id) for et in trace.episodes for s in et.segments]
    assert ("oracle_goal", "e0") in kinds  # stopped 1 m short: corrected
    assert ("oracle_transit", "e0") in kinds  # next start elsewhere
    assert ("oracle_goal", "e1") in kinds
    assert ("oracle_transit", "e1") not in kinds  # last episode never transits
    # the correction really ends at the goal
    goal_seg = oracle_segments(trace)[0]
    assert goal_seg.points[-1] == by_id["e0"].path[-1]


def test_transit_across_a_wall_raises_disconnected():
    # the second episode starts behind an unbroken wall
    split = scene_from_ascii(["#########", "#...#...#", "#...#...#", "#########"])
    tour, by_id = tour_of(ep("e0", [(1, 1), (3, 1)]), ep("e1", [(5, 1), (7, 1)]))
    with pytest.raises(Disconnected):
        run_tour(split, tour, by_id, OraclePolicy(split, by_id))


def test_oracle_drive_step_guard_raises(open_room, monkeypatch):
    # an oracle step that never moves the agent trips the step guard
    monkeypatch.setattr(harness, "apply_action", lambda scene, state, action, cfg: state)
    monkeypatch.setattr(harness, "DEFAULT_MAX_STEPS_CONTINUOUS", 1)
    tour, by_id = tour_of(ep("e0", [(2, 2), (6, 2)]))
    with pytest.raises(RuntimeError, match="did not arrive"):
        run_tour(open_room, tour, by_id, StopPolicy())


def test_correction_skipped_inside_radius(open_room):
    # goal 0.5 m ahead: a 2-step walk ends exactly there under oracle,
    # and a stop policy ends within the default 0.5 m radius
    tour, by_id = tour_of(ep("e0", [(2, 2), (4, 2)]))
    trace, _ = run_tour(open_room, tour, by_id, StopPolicy())
    assert oracle_segments(trace) == []


class Spinner:
    """A duck-typed policy, no ``Policy`` subclass, that turns left forever."""

    def reset(self, tour_id):
        pass

    def begin_episode(self, episode_id, instruction):
        pass

    def act(self, obs):
        return AgentAction("left")

    def observe(self, obs):
        pass

    def close(self):
        pass


def test_budget_exhaustion_never_stops(open_room):
    tour, by_id = tour_of(ep("e0", [(2, 2), (6, 2)]))
    cfg = Config(max_steps=9)
    trace, _ = run_tour(open_room, tour, by_id, Spinner(), cfg)
    et = trace.episodes[0]
    assert et.actions == ["left"] * 9
    assert not et.stop_called
    assert len(et.agent_path) == 10
    # ran out 1 m short of the goal: the oracle walks it home
    assert oracle_segments(trace)[0].kind == "oracle_goal"


def test_forced_start_heading(open_room):
    seen = []

    class Probe(StopPolicy):
        def act(self, obs):
            seen.append(obs.pose.heading)
            return super().act(obs)

    tour, by_id = tour_of(
        ep("e0", [(2, 2), (3, 2)], heading=1.0),
        ep("e1", [(3, 2), (4, 2)], heading=2.5),
    )
    run_tour(open_room, tour, by_id, Probe())
    assert seen == [1.0, 2.5]


def test_noisy_seed_reproducible(synth, tmp_path):
    scene, by_id = synth["scene"], synth["by_id"]
    tour = synth["tours"][0]
    files = []
    for run in range(2):
        policy = NoisyOraclePolicy(scene, by_id, p_error=0.3, seed=11)
        trace, _ = run_tour(scene, tour, by_id, policy)
        check_trace_invariants(trace, len(tour.episode_ids))
        out = tmp_path / f"run{run}.jsonl"
        write_traces([trace], out)
        files.append(out.read_bytes())
    assert files[0] == files[1]
    other = NoisyOraclePolicy(scene, by_id, p_error=0.3, seed=12)
    trace, _ = run_tour(scene, tour, by_id, other)
    out = tmp_path / "other.jsonl"
    write_traces([trace], out)
    assert out.read_bytes() != files[0]


def test_noisy_p_zero_matches_oracle(synth, tmp_path):
    scene, by_id = synth["scene"], synth["by_id"]
    tours = synth["tours"][:1]
    for name, policy in [
        ("oracle", OraclePolicy(scene, by_id)),
        ("noisy", NoisyOraclePolicy(scene, by_id, p_error=0.0, seed=5)),
    ]:
        traces, _ = run_tours(scene, tours, by_id, policy)
        write_traces(traces, tmp_path / f"{name}.jsonl")
    assert (tmp_path / "oracle.jsonl").read_bytes() == (tmp_path / "noisy.jsonl").read_bytes()


def test_run_tour_builds_iterative_map(open_room):
    tour, by_id = tour_of(ep("e0", [(2, 2), (6, 2)]))
    cfg = Config(map_mode="iterative")
    trace, occ_map = run_tour(open_room, tour, by_id, OraclePolicy(open_room, by_id), cfg)
    assert occ_map is not None
    assert occ_map.observed.any()
    assert occ_map.occupancy.any()


class ResetRecorder(StopPolicy):
    def __init__(self):
        self.resets = []

    def reset(self, tour_id):
        self.resets.append(tour_id)


def test_run_tour_refuses_a_tour_naming_an_unknown_episode_before_any_step(open_room):
    tour, by_id = tour_of(ep("e0", [(2, 2), (6, 2)]))
    policy = ResetRecorder()
    with pytest.raises(MissingEpisode, match="tour t0 references unknown episode 'ghost'"):
        run_tour(open_room, Tour("t0", "open-room", ["e0", "ghost"]), by_id, policy)
    assert policy.resets == []


def test_replay_tour_refuses_map_mode_none_and_an_episode_missing_from_the_set(open_room):
    tour, by_id = tour_of(ep("e0", [(2, 2), (6, 2)]))
    trace, _ = run_tour(open_room, tour, by_id, OraclePolicy(open_room, by_id))
    with pytest.raises(ValueError, match="replay needs a map mode"):
        replay_tour(open_room, trace, by_id, Config(map_mode="none"))
    with pytest.raises(MissingEpisode, match="trace episode e0 not in episode set"):
        replay_tour(open_room, trace, {}, Config(map_mode="iterative"))


def noisy_mapped_tour(synth, mode):
    """Five episodes under a noisy oracle: turns, a blocked forward, an
    exhausted budget, goal corrections and transits all occur."""
    scene, by_id = synth["scene"], synth["by_id"]
    tour = Tour("t-replay", scene.scene_id, synth["tours"][0].episode_ids[:5])
    cfg = Config(map_mode=mode, max_steps=20)
    policy = NoisyOraclePolicy(scene, by_id, p_error=0.4, seed=11)
    trace, occ_map = run_tour(scene, tour, by_id, policy, cfg)
    return trace, occ_map, cfg


@pytest.mark.parametrize("mode", ["episodic", "iterative", "known"])
def test_replay_tour_rebuilds_the_live_map(synth, tmp_path, mode):
    trace, live, cfg = noisy_mapped_tour(synth, mode)
    moves = [
        (action, before == after)
        for e in trace.episodes
        for action, before, after in zip(e.actions, e.agent_path, e.agent_path[1:])
    ]
    assert ("forward", True) in moves and ("left", True) in moves and ("right", True) in moves
    assert not all(e.stop_called for e in trace.episodes)
    assert {seg.kind for seg in oracle_segments(trace)} == {"oracle_goal", "oracle_transit"}
    replayed = replay_tour(synth["scene"], trace, synth["by_id"], cfg)
    save_map(live, tmp_path / "live.json")
    save_map(replayed, tmp_path / "replayed.json")
    assert (tmp_path / "replayed.json").read_bytes() == (tmp_path / "live.json").read_bytes()


def map_bytes(occ_map, path):
    save_map(occ_map, path)
    return path.read_bytes()


def test_map_lifetimes_across_episodes_and_tours(synth, split_tours, tmp_path):
    scene, by_id = synth["scene"], synth["by_id"]
    trace, episodic, cfg = noisy_mapped_tour(synth, "episodic")
    _, iterative, _ = noisy_mapped_tour(synth, "iterative")
    assert len(trace.episodes) >= 3
    # an episodic map holds only what the last episode and its segments sensed
    tail = TourTrace(trace.tour_id, trace.episodes[-1:])
    replayed = replay_tour(scene, tail, by_id, cfg)
    assert map_bytes(episodic, tmp_path / "live.json") == map_bytes(replayed, tmp_path / "tail.json")
    # an iterative map keeps what the earlier episodes sensed
    assert iterative.observed.sum() > replayed.observed.sum()
    # every tour starts with a fresh map: the oracle carries no state across
    # tours, and each tour sees cells the next does not, so a leak would show
    cfg = Config(map_mode="iterative")
    for earlier, last in zip(split_tours, split_tours[1:]):
        maps = [run_tours(scene, run, by_id, OraclePolicy(scene, by_id), cfg)[1] for run in ([earlier, last], [last])]
        assert map_bytes(maps[0], tmp_path / "both.json") == map_bytes(maps[1], tmp_path / "last.json")
        alone = run_tours(scene, [earlier], by_id, OraclePolicy(scene, by_id), cfg)[1]
        assert (alone.observed & ~maps[1].observed).any()


@pytest.mark.parametrize("mode", ["episodic", "iterative"])
def test_one_ray_table_across_tours_senses_as_throwaway_tables(synth, split_tours, monkeypatch, tmp_path, mode):
    # one table shared by every walk of the tours, against a new table for
    # every sensed batch; a crop reader folds one pose at a time, a kept
    # map SENSE_CHUNK poses
    scene, by_id = synth["scene"], synth["by_id"]
    cfg = Config(map_mode=mode, max_steps=20)
    shared = harness.RayTable(scene.grid, harness.CameraIntrinsics.from_hfov(
        harness.FRAME_WIDTH, harness.FRAME_HEIGHT, harness.HFOV_DEG), harness.MAX_RANGE)

    def sensed(table):
        monkeypatch.setattr(harness, "RayTable", lambda *args: table)
        maps, crops = [], []
        for i, tour in enumerate(split_tours):
            policy = KeepingPolicy(scene, by_id, p_error=0.4, seed=11)
            maps.append(map_bytes(run_tour(scene, tour, by_id, policy, cfg)[1], tmp_path / f"{i}.json"))
            crops += [obs.crop.tobytes() for obs in policy.kept if obs.layers is not None]
        return maps, crops

    reused = sensed(shared)
    assert len(shared._entries) > 1
    assert reused == sensed(None)
    assert len(reused[1]) > 100


def _move_point(points, i):
    p = points[i]
    points[i] = Point3(p.x + 0.25, p.y, p.z)


def _set_action(actions, i, label):
    actions[i] = label


# episode 3 stopped, episode 2 ran out of steps
@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda t: _move_point(t.episodes[1].agent_path, 2),
                 r"episode \S+ agent step 2: replay is at \(.*\), trace logs \(.*\)",
                 id="moved-point"),
    pytest.param(lambda t: _move_point(t.episodes[1].agent_path, 0),
                 r"episode \S+ agent step 0: replay is at", id="moved-start"),
    pytest.param(lambda t: _move_point(oracle_segments(t)[0].points, 0),
                 r"episode \S+ oracle_\w+ step 1: replay is at", id="moved-oracle-point"),
    pytest.param(lambda t: t.episodes[3].actions.pop(0),
                 r"episode \S+ agent: \d+ actions for \d+ logged points", id="dropped-action"),
    pytest.param(lambda t: t.episodes[2].actions.pop(0),
                 r"agent: \d+ actions .* \(stopped: False\)", id="dropped-unstopped-action"),
    pytest.param(lambda t: oracle_segments(t)[0].actions.pop(),
                 r"episode \S+ oracle_\w+: \d+ actions for", id="dropped-oracle-action"),
    pytest.param(lambda t: _set_action(t.episodes[3].actions, -1, "left"),
                 r"agent: \d+ actions .* \(stopped: True\)", id="stop-replaced"),
    pytest.param(lambda t: _set_action(t.episodes[3].actions, 0, "stop"),
                 r"agent step 1: cannot replay action 'stop'", id="stop-mid-phase"),
])
def test_replay_tour_rejects_a_trace_that_does_not_replay(synth, edit, message):
    trace, _, cfg = noisy_mapped_tour(synth, "known")
    assert trace.episodes[3].stop_called and not trace.episodes[2].stop_called
    edit(trace)
    with pytest.raises(ValueError, match=message):
        replay_tour(synth["scene"], trace, synth["by_id"], cfg)


class KeepingPolicy(NoisyOraclePolicy):
    """A noisy oracle that keeps every observation it is shown, and reads
    their crops."""

    reads_crops = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.kept = []

    def act(self, obs):
        self.kept.append(obs)
        return super().act(obs)

    def observe(self, obs):
        self.kept.append(obs)


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that logs each call's arguments."""
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("mode", ["episodic", "iterative"])
def test_crops_read_after_the_tour_are_the_crops_at_observation_time(synth, monkeypatch, mode):
    scene, by_id = synth["scene"], synth["by_id"]
    tour = Tour("t-crops", scene.scene_id, synth["tours"][0].episode_ids[:4])
    at_the_time = record_crops(monkeypatch)
    crops = count_calls(monkeypatch, harness, "one_hot")
    policy = KeepingPolicy(scene, by_id, p_error=0.4, seed=3)
    cfg = Config(map_mode=mode, max_steps=20, crop_size=24)
    trace, _ = run_tour(scene, tour, by_id, policy, cfg)
    assert oracle_segments(trace) and len(policy.kept) == len(at_the_time) > 20
    assert {obs.phase for obs in policy.kept} == {"agent", "oracle"}
    assert crops == []  # nothing was cropped while the tour ran
    assert all(obs.layers is None for obs in policy.kept if obs.phase != "agent")
    active = [(obs, want) for obs, want in zip(policy.kept, at_the_time) if obs.phase == "agent"]
    for obs, want in active:
        assert obs.crop.dtype == want.dtype and obs.crop.tobytes() == want.tobytes()
    assert len(crops) == len(active)
    for obs, _ in active:
        assert obs.crop is obs.crop  # a later read returns the first crop
    assert len(crops) == len(active)
    # the map changed along the tour, so equal crops are not a given
    assert len({want.tobytes() for _, want in active}) > len(active) // 2


def test_only_declared_crop_readers_are_handed_crops(synth):
    scene, by_id = synth["scene"], synth["by_id"]
    tour = Tour("t-readers", scene.scene_id, synth["tours"][0].episode_ids[:2])

    class Quiet(OraclePolicy):
        def __init__(self, *args):
            super().__init__(*args)
            self.crops = []

        def act(self, obs):
            self.crops.append(obs.crop)
            return super().act(obs)

    class Reader(Quiet):
        reads_crops = True

    class Duck(Spinner):
        def __init__(self):
            self.crops = []

        def act(self, obs):
            self.crops.append(obs.crop)
            return super().act(obs)

    assert not hasattr(Duck, "reads_crops")
    for mode in ("iterative", "known"):
        cfg = Config(map_mode=mode, crop_size=8, max_steps=5)
        quiet, reader, duck = Quiet(scene, by_id), Reader(scene, by_id), Duck()
        for policy in (quiet, reader, duck):
            run_tour(scene, tour, by_id, policy, cfg)
        # a built-in policy's subclass that declares nothing gets no crop
        assert quiet.crops and all(crop is None for crop in quiet.crops)
        for crops in (reader.crops, duck.crops):
            assert crops and all(crop.shape == (14, 8, 8) for crop in crops)


def test_observation_message_with_a_given_or_a_deferred_crop(open_room):
    walk = harness._Walk(open_room, Config(map_mode="iterative", crop_size=16))
    occ_map = walk.occ_map
    rng = np.random.default_rng(8)
    occ_map.semantic[:] = rng.integers(0, 14, size=occ_map.semantic.shape)
    occ_map.occupancy[:] = occ_map.semantic > 6
    pose = Pose(Point3(0.5, 0.75, 0.0), 0.3)
    compact = crop_to_compact(*crop_layers(occ_map, pose, 16))
    want = {
        "type": "observe",
        "pose": [0.5, 0.75, 0.0, 0.3],
        "steps_remaining": 7,
        "crop": compact,
        "passive": True,
        "episode_id": "e0",
        "episode_index": 2,
        "cell": [2, 3],
    }
    args = ("e0", 2, "walk", pose, (2, 3), 7, "oracle")
    deferred = Observation(*args, layers=crop_layers(occ_map, pose, 16))
    occ_map.clear()  # later map changes do not reach the crop
    assert json.dumps(observation_message(deferred)) == json.dumps(want)
    # the message read the layers without using them up
    assert crop_to_compact(*deferred.layers) == compact
    assert observation_message(Observation(*args))["crop"] is None


def test_rollout_opens_one_field_per_drive_target_or_goal(synth, monkeypatch):
    # one field per drive target asked from beyond a step, or checked goal;
    # a fresh Scene, so no earlier test has opened a field on it
    scene = Scene(scene_id=synth["scene"].scene_id, grid=synth["scene"].grid)
    by_id = synth["by_id"]
    targets, far = set(), set()
    step_toward = harness._step_toward

    def recording(scene_, state, target):
        if state.location != target:
            targets.add(target)
            if not scene_.nav.adjacent(state.location, target):
                far.add(target)
        return step_toward(scene_, state, target)

    monkeypatch.setattr(harness, "_step_toward", recording)
    routes = count_calls(monkeypatch, NavIndex, "route")
    steps = count_calls(monkeypatch, NavIndex, "next_location")
    policy = NoisyOraclePolicy(scene, by_id, p_error=0.2, seed=5)
    traces, _ = run_tours(scene, synth["tours"], by_id, policy, Config(map_mode="iterative", seed=5))
    ends = [(scene.snap_point(by_id[et.episode_id].path[-1]), scene.snap_point(et.agent_path[-1]))
            for trace in traces for et in trace.episodes]
    # every goal is checked off its own field, which a correction's drive then reads
    goals = {goal for goal, _ in ends}
    corrected = {goal for goal, end in ends if goal != end}
    assert corrected and corrected <= targets
    assert set(scene.nav._fields) == {scene.nav.id_of[loc] for loc in far | goals}
    assert targets - far - goals  # a target only ever one step away opens no field
    # each drive step walks one step of its route, never the whole route
    assert routes == [] and len(steps) > 5 * len(scene.nav._fields)


def test_random_policy_returns_legal_actions(open_room):
    tour, by_id = tour_of(ep("e0", [(2, 2), (6, 2)]))
    cfg = Config(max_steps=20)
    trace, _ = run_tour(open_room, tour, by_id, RandomPolicy(open_room, seed=3), cfg)
    assert set(trace.episodes[0].actions) <= {"forward", "left", "right", "stop"}


# -- wire protocol ------------------------------------------------------------


V3_ACK = {"type": "ack", "protocol_version": 3}


class WireServer:
    """Single-connection scripted agent on a local TCP port; it answers
    reset with ``reset_ack`` and acks passive observations only if
    ``acks_passive``.  ``hang_up(msg)`` makes it close the connection
    after reading ``msg``."""

    def __init__(self, act, reset_ack=V3_ACK, acks_passive=False, hang_up=lambda msg: False):
        self.act = act
        self.reset_ack = reset_ack
        self.acks_passive = acks_passive
        self.hang_up = hang_up
        self.messages = []
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(1)
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        conn, _ = self.sock.accept()
        with conn, self.sock:
            try:
                self._answer(conn)
            except (ConnectionResetError, BrokenPipeError):
                return  # the harness hung up before a reply: the session is over

    def _answer(self, conn):
        buf = b""
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                return
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                msg = json.loads(line)
                self.messages.append(msg)
                if msg["type"] == "close" or self.hang_up(msg):
                    return
                if msg["type"] == "observe" and msg["passive"] and not self.acks_passive:
                    continue
                if msg["type"] == "observe" and not msg["passive"]:
                    reply = self.act(msg)
                elif msg["type"] == "reset":
                    reply = self.reset_ack
                else:
                    reply = {"type": "ack"}
                if isinstance(reply, dict):
                    reply = json.dumps(reply).encode() + b"\n"
                conn.sendall(reply)


def run_with_server(scene, tour, by_id, act, timeout=2.0, cfg=None, keep_map=True):
    server = WireServer(act)
    policy = ExternalPolicy(SocketTransport("127.0.0.1", server.port), timeout=timeout)
    try:
        return server, run_tour(scene, tour, by_id, policy, cfg, keep_map)
    finally:
        policy.close()
        server.thread.join(timeout=2.0)


def test_socket_agent_message_flow(open_room):
    tour, by_id = tour_of(ep("e0", [(2, 2), (6, 2)], heading=0.5))
    server, (trace, _) = run_with_server(
        open_room, tour, by_id, lambda msg: {"type": "act", "action": "stop"}
    )
    assert trace.episodes[0].actions == ["stop"]
    types = [m["type"] for m in server.messages]
    assert types[0] == "reset" and server.messages[0]["tour_id"] == "t0"
    assert types[1] == "episode"
    assert server.messages[1]["episode_id"] == "e0"
    assert server.messages[1]["instruction"] == "walk"
    assert types[-1] == "close"
    observes = [m for m in server.messages if m["type"] == "observe"]
    first = observes[0]
    assert first["passive"] is False
    assert first["pose"] == [0.5, 0.5, 0.0, 0.5]
    assert first["cell"] == [2, 2]
    assert first["crop"] is None
    assert isinstance(first["steps_remaining"], int)
    # the goal correction re-observes passively
    assert any(m["passive"] for m in observes)


def record_crops(monkeypatch):
    """Crops of the map at each observation, in order, made eagerly."""
    at_the_time = []
    observation = harness._Walk.observation

    def eager(self, *args):
        obs = observation(self, *args)
        # after the harness's own cut, so a crop of a map with poses still
        # pending differs from this one
        at_the_time.append(crop_egocentric(self.occ_map, obs.pose, self.cfg.crop_size))
        return obs

    monkeypatch.setattr(harness._Walk, "observation", eager)
    return at_the_time


def map_tour(synth):
    return synth["scene"], Tour("t-wire", synth["scene"].scene_id, synth["tours"][0].episode_ids[:2]), synth["by_id"]


def three_steps_then_stop(msg):
    return {"type": "act", "action": "forward" if msg["steps_remaining"] > 12 else "stop"}


@pytest.mark.parametrize("mode", ["episodic", "iterative"])
def test_an_agent_gets_compact_active_crops_and_no_one_hot_is_made(synth, monkeypatch, mode):
    at_the_time = record_crops(monkeypatch)
    one_hots = count_calls(monkeypatch, harness, "one_hot")
    scene, tour, by_id = map_tour(synth)
    cfg = Config(map_mode=mode, max_steps=15)
    server, (trace, _) = run_with_server(scene, tour, by_id, three_steps_then_stop, cfg=cfg)
    assert server.messages[0] == {"type": "reset", "tour_id": "t-wire", "protocol_version": 3}
    assert one_hots == []
    observes = [m for m in server.messages if m["type"] == "observe"]
    assert len(observes) == len(at_the_time) > 10
    active = [(msg, want) for msg, want in zip(observes, at_the_time) if not msg["passive"]]
    assert 0 < len(active) < len(observes)
    for msg, want in active:
        assert sorted(msg["crop"]) == ["labels", "occupied", "size"] and msg["crop"]["size"] == 64
        back = crop_from_compact(msg["crop"])
        assert back.dtype == np.float32 and back.tobytes() == want.tobytes()
    assert all(msg["crop"] is None for msg in observes if msg["passive"])
    assert len({want.tobytes() for _, want in active}) > 1
    assert [et.actions for et in trace.episodes] == [["forward"] * 3 + ["stop"]] * 2


@pytest.mark.parametrize("version", ["plain", 1, 2, 4, "3", 0, None, True, 2.0, 3.0])
def test_unknown_protocol_version_is_refused(open_room, version):
    tour, by_id = tour_of(ep("e0", [(2, 2), (6, 2)]))
    # "plain" is an ack without the field, which reads as None
    ack = {"type": "ack"} if version == "plain" else {"type": "ack", "protocol_version": version}
    shown = None if version == "plain" else version
    server = WireServer(lambda msg: {"type": "act", "action": "stop"}, reset_ack=ack)
    policy = ExternalPolicy(SocketTransport("127.0.0.1", server.port), timeout=2.0)
    try:
        with pytest.raises(ProtocolViolation) as exc_info:
            run_tour(open_room, tour, by_id, policy)
    finally:
        policy.close()
        server.thread.join(timeout=2.0)
    message = str(exc_info.value)
    assert f"protocol_version {shown!r}" in message and "the harness speaks version 3" in message
    assert [m["type"] for m in server.messages] == ["reset", "close"]


class ScriptedReader(harness.Policy):
    """An in-process crop reader that answers each observation's wire
    message with ``act``, keeping every observation it is shown."""

    reads_crops = True

    def __init__(self, act):
        self.script = act
        self.seen = []

    def act(self, obs):
        self.seen.append(obs)
        return AgentAction(self.script(observation_message(obs))["action"])

    def observe(self, obs):
        self.seen.append(obs)


@pytest.mark.parametrize("mode", ["episodic", "iterative"])
def test_a_wire_agent_equals_an_in_process_crop_reader(synth, tmp_path, mode):
    scene, tour, by_id = map_tour(synth)
    cfg = Config(map_mode=mode, max_steps=15)
    server, wire = run_with_server(scene, tour, by_id, three_steps_then_stop, cfg=cfg)
    reader = ScriptedReader(three_steps_then_stop)
    runs = []
    for trace, occ_map in (wire, run_tour(scene, tour, by_id, reader, cfg)):
        out = tmp_path / f"run{len(runs)}.jsonl"
        write_traces([trace], out)
        runs.append((out.read_bytes(), json.dumps(map_to_dict(occ_map))))
    assert runs[0] == runs[1] and oracle_segments(wire[0])
    observes = [m for m in server.messages if m["type"] == "observe"]
    assert [m["passive"] for m in observes] == [obs.phase != "agent" for obs in reader.seen]
    active = [(m, obs) for m, obs in zip(observes, reader.seen) if obs.phase == "agent"]
    assert active and all(crop_from_compact(m["crop"]).tobytes() == obs.crop.tobytes() for m, obs in active)
    assert all(obs.layers is None for obs in reader.seen if obs.phase != "agent")


def walk_positions(episode_trace, with_segments=True):
    """The cell positions an episode's walk took, in order: its start, its
    agent steps and, ``with_segments``, the oracle's."""
    points = list(episode_trace.agent_path)
    if with_segments:
        points += [pt for seg in episode_trace.segments for pt in seg.points]
    return [(pt.x, pt.y) for pt in points]


@pytest.mark.parametrize("mode", ["episodic", "iterative"])
def test_a_version_3_crop_reader_senses_only_what_its_crops_include(synth, monkeypatch, mode):
    calls = count_calls(monkeypatch, harness, "sense")
    scene, tour, by_id = map_tour(synth)
    cfg = Config(map_mode=mode, max_steps=15)
    _, (trace, kept) = run_with_server(scene, tour, by_id, three_steps_then_stop, cfg=cfg, keep_map=False)
    assert kept is None and oracle_segments(trace)
    sensed = [(pose.position.x, pose.position.y) for call in calls for pose in call[2]]
    *earlier, last = trace.episodes
    # the oracle's poses after an episode's last active observation are read
    # by the next episode's first crop, or by no crop at all
    carried = mode == "iterative"
    assert sensed == [pos for et in earlier for pos in walk_positions(et, carried)] + walk_positions(last, False)
    # a crop reader's every step folds its one new pose; a carried phase folds in slices
    assert max(len(call[2]) for call in calls) == (harness.SENSE_CHUNK if carried else 1)


def test_a_kept_map_folds_as_the_walk_goes(synth, monkeypatch):
    moves = count_calls(monkeypatch, harness, "apply_action")
    batches = []  # (moves made so far, poses sensed)
    sense = harness.sense

    def recording(occ_map, grid, poses, *rest):
        batches.append((len(moves), len(poses)))
        return sense(occ_map, grid, poses, *rest)

    monkeypatch.setattr(harness, "sense", recording)
    scene, tour, by_id = map_tour(synth)
    _, (trace, kept) = run_with_server(scene, tour, by_id, three_steps_then_stop,
                                       cfg=Config(map_mode="iterative", max_steps=15))
    assert kept is not None and oracle_segments(trace)
    # every pose is sensed once, at most SENSE_CHUNK moves after it was taken
    assert sum(size for _, size in batches) == sum(len(walk_positions(et)) for et in trace.episodes)
    assert all(size <= harness.SENSE_CHUNK for _, size in batches)
    made = [0] + [at for at, _ in batches]
    assert made[-1] == len(moves) and max(b - a for a, b in zip(made, made[1:])) <= harness.SENSE_CHUNK


def stop(msg):
    return {"type": "act", "action": "stop"}


def three_episode_tour():
    """A stopping agent gets a goal correction in every episode and a
    transit after the second."""
    return tour_of(ep("e0", [(2, 2), (6, 2)]), ep("e1", [(6, 2), (6, 5)]), ep("e2", [(2, 5), (4, 5)]))


def test_a_version_3_peer_that_acks_a_passive_observation_fails_at_the_next_act(open_room):
    tour, by_id = three_episode_tour()
    server = WireServer(stop, acks_passive=True)
    policy = ExternalPolicy(SocketTransport("127.0.0.1", server.port), timeout=2.0)
    try:
        with pytest.raises(ProtocolViolation, match="expected act, got 'ack'") as exc_info:
            run_tour(open_room, tour, by_id, policy)
    finally:
        policy.close()
        server.thread.join(timeout=2.0)
    finished, current = exc_info.value.partial_trace.episodes
    assert finished.actions == ["stop"] and [s.kind for s in finished.segments] == ["oracle_goal"]
    assert current.episode_id == "e1" and current.actions == []


def hang_up_in_a_correction(scene, tour, by_id, steps):
    """Run ``tour`` against a peer that hangs up after reading ``steps``
    passive observations of episode 1, and let the harness go on only once
    the peer is gone; returns the partial tour trace."""

    read = []

    def hang_up(msg):
        if msg["type"] == "observe" and msg["passive"] and msg["episode_index"] == 1:
            read.append(msg)
        return len(read) == steps

    server = WireServer(stop, hang_up=hang_up)

    class WaitsForTheHangUp(ExternalPolicy):
        sent = 0

        def observe(self, obs):
            super().observe(obs)
            self.sent += obs.episode_index_in_tour == 1
            if self.sent == steps:
                server.thread.join(timeout=2.0)

    policy = WaitsForTheHangUp(SocketTransport("127.0.0.1", server.port), timeout=2.0)
    try:
        # the harness reads nothing during the oracle phases, so it sees the
        # dead peer at a later send or at the next episode's ack
        with pytest.raises(ProtocolViolation) as exc_info:
            run_tours(scene, [tour], by_id, policy)
    finally:
        policy.close()
        server.thread.join(timeout=2.0)
    (partial,) = exc_info.value.partial_traces
    return partial


def test_a_version_3_peer_that_dies_in_a_goal_correction_keeps_the_trace_so_far(open_room):
    tour, by_id = three_episode_tour()
    reference, _ = run_tour(open_room, tour, by_id, StopPolicy())
    correction, transit = reference.episodes[1].segments
    assert (correction.kind, transit.kind) == ("oracle_goal", "oracle_transit")
    partial = hang_up_in_a_correction(open_room, tour, by_id, len(correction.points))
    finished, dying, *rest = partial.episodes
    assert finished == reference.episodes[0]
    assert dying.actions == ["stop"] and dying.segments[0] == correction
    assert len(rest) <= 1 and all(et.actions == [] for et in rest)


def test_a_peer_that_hangs_up_midway_through_a_correction_keeps_the_steps_driven(open_room):
    tour, by_id = three_episode_tour()
    reference, _ = run_tour(open_room, tour, by_id, StopPolicy())
    correction = reference.episodes[1].segments[0]
    assert correction.kind == "oracle_goal" and len(correction.points) > 2
    partial = hang_up_in_a_correction(open_room, tour, by_id, 2)
    segment = partial.episodes[1].segments[0]
    driven = len(segment.points)
    assert segment.kind == "oracle_goal" and 0 < driven == len(segment.actions) < len(correction.points)
    assert (segment.points, segment.actions) == (correction.points[:driven], correction.actions[:driven])
    replay_tour(open_room, partial, by_id, Config(map_mode="iterative"))


# It reads the reset, answers it and every later message that needs a
# reply, one stop per episode, and then reads nothing more.
STOPS_READING = """
import sys, time
sys.stdin.readline()
sys.stdout.write('{"type":"ack","protocol_version":3}\\n' + '{"type":"ack"}\\n{"type":"act","action":"stop"}\\n' * 200)
sys.stdout.flush()
time.sleep(30)
"""


def test_a_send_to_an_agent_that_stops_reading_fails_at_the_step_deadline(open_room, tmp_path):
    # passive observations between far corners outgrow any pipe buffer
    corners = [(1, 1), (8, 6)]
    tour, by_id = tour_of(*(ep(f"e{i}", [corners[i % 2], corners[1 - i % 2]]) for i in range(200)))
    script = tmp_path / "stops_reading.py"
    script.write_text(STOPS_READING)
    policy = ExternalPolicy(SubprocessTransport(f"{sys.executable} {script}"), timeout=1.0)
    start = time.monotonic()
    try:
        with pytest.raises(PolicyTimeout, match="did not read the message within 1.0 s") as exc_info:
            run_tour(open_room, tour, by_id, policy)
        assert time.monotonic() - start < 4.0
    finally:
        policy.close()
    assert len(exc_info.value.partial_trace.episodes) > 10


def test_a_socket_send_to_a_peer_that_stops_reading_fails_at_the_deadline():
    listener = socket.create_server(("127.0.0.1", 0))
    transport = SocketTransport("127.0.0.1", listener.getsockname()[1])
    conn, _ = listener.accept()
    try:
        with pytest.raises(PolicyTimeout, match="did not read the message within 0.2 s"):
            for _ in range(64):
                transport.send({"type": "pad", "pad": "x" * (1 << 20)}, 0.2)
    finally:
        transport.close(0.1)
        conn.close()
        listener.close()


class FailingStopPolicy(StopPolicy):
    """Stops at once; fails with PolicyTimeout at the named hook call."""

    def __init__(self, hook, at_call):
        self.hook, self.at_call, self.calls = hook, at_call, 0

    def _maybe_fail(self, hook):
        if hook == self.hook:
            self.calls += 1
            if self.calls == self.at_call:
                raise PolicyTimeout(f"{hook} timed out")

    def begin_episode(self, episode_id, instruction):
        self._maybe_fail("begin_episode")

    def observe(self, obs):
        self._maybe_fail("observe")


def test_failure_in_a_goal_correction_keeps_the_finished_episode(open_room):
    by_id = {e.episode_id: e for e in (ep("e0", [(2, 2), (6, 2)]), ep("e1", [(6, 2), (6, 5)]))}
    tours = [Tour("t0", "open-room", ["e0", "e1"])]
    with pytest.raises(PolicyTimeout) as exc_info:
        run_tours(open_room, tours, by_id, FailingStopPolicy("observe", 1))
    (partial,) = exc_info.value.partial_traces
    assert partial.tour_id == "t0"
    assert [e.episode_id for e in partial.episodes] == ["e0"]
    assert partial.episodes[0].stop_called and partial.episodes[0].actions == ["stop"]
    # the correction is logged as it runs: it holds the one step driven
    (segment,) = oracle_segments(partial)
    assert segment.kind == "oracle_goal" and len(segment.points) == len(segment.actions) == 1


def test_failure_at_an_episode_start_keeps_the_tour_so_far(open_room):
    by_id = {e.episode_id: e for e in (ep("e0", [(2, 2), (6, 2)]), ep("e1", [(2, 5), (4, 5)]))}
    tours = [Tour("t0", "open-room", ["e0", "e1"])]
    with pytest.raises(PolicyTimeout) as exc_info:
        run_tours(open_room, tours, by_id, FailingStopPolicy("begin_episode", 2))
    (partial,) = exc_info.value.partial_traces
    first, current = partial.episodes
    assert first.episode_id == "e0" and first.stop_called
    assert current.episode_id == "e1" and not current.stop_called and current.actions == []
    assert current.agent_path == [P(2, 5)]  # where the transit left the agent
    assert [s.kind for s in oracle_segments(partial)] == ["oracle_goal", "oracle_transit"]
    assert oracle_segments(partial)[-1].points[-1] == P(2, 5)


def test_socket_agent_timeout_carries_partial_trace(open_room):
    tour, by_id = tour_of(ep("e0", [(2, 2), (6, 2)]))

    def slow(msg):
        time.sleep(0.5)
        return {"type": "act", "action": "stop"}

    server = WireServer(slow)
    policy = ExternalPolicy(SocketTransport("127.0.0.1", server.port), timeout=0.1)
    with pytest.raises(PolicyTimeout) as exc_info:
        run_tour(open_room, tour, by_id, policy)
    partial = exc_info.value.partial_trace
    assert partial.tour_id == "t0"
    assert partial.episodes[0].episode_id == "e0"
    assert not partial.episodes[0].stop_called
    policy.close()


def test_run_tours_failure_carries_finished_and_partial_traces(open_room):
    class FailsInSecondTour(StopPolicy):
        tours = 0

        def reset(self, tour_id):
            self.tours += 1

        def act(self, obs):
            if self.tours == 2:
                raise ProtocolViolation("agent gone")
            return super().act(obs)

    by_id = {e.episode_id: e for e in (ep("e0", [(2, 2), (4, 2)]), ep("e1", [(2, 5), (4, 5)]))}
    tours = [Tour("t0", "open-room", ["e0"]), Tour("t1", "open-room", ["e1"])]
    with pytest.raises(ProtocolViolation) as exc_info:
        run_tours(open_room, tours, by_id, FailsInSecondTour())
    finished, partial = exc_info.value.partial_traces
    assert finished.tour_id == "t0" and finished.episodes[0].stop_called
    assert partial.tour_id == "t1" and partial.episodes[0].actions == []


def test_socket_agent_garbage_reply(open_room):
    tour, by_id = tour_of(ep("e0", [(2, 2), (6, 2)]))
    server = WireServer(lambda msg: b"certainly not json\n")
    policy = ExternalPolicy(SocketTransport("127.0.0.1", server.port), timeout=2.0)
    with pytest.raises(ProtocolViolation) as exc_info:
        run_tour(open_room, tour, by_id, policy)
    assert exc_info.value.partial_trace.episodes
    policy.close()


def test_socket_agent_unknown_action(open_room):
    tour, by_id = tour_of(ep("e0", [(2, 2), (6, 2)]))
    server = WireServer(lambda msg: {"type": "act", "action": "moonwalk"})
    policy = ExternalPolicy(SocketTransport("127.0.0.1", server.port), timeout=2.0)
    with pytest.raises(ProtocolViolation):
        run_tour(open_room, tour, by_id, policy)
    policy.close()


def test_socket_agent_goto_needs_node(square_graph):
    episode = Episode(
        episode_id="g",
        path_id="path_g",
        scene_id="square",
        path=[Point3(0, 0, 1), Point3(2, 0, 1)],
        start_heading=0.0,
        instruction_id="g_i0",
        instruction="ring",
    )
    tour = Tour("t0", "square", ["g"])
    server = WireServer(lambda msg: {"type": "act", "action": "goto"})
    policy = ExternalPolicy(SocketTransport("127.0.0.1", server.port), timeout=2.0)
    with pytest.raises(ProtocolViolation, match="node"):
        run_tour(square_graph, tour, {"g": episode}, policy)
    policy.close()


def test_subprocess_agent_round_trip(open_room):
    tour, by_id = tour_of(ep("e0", [(2, 2), (6, 2)]), ep("e1", [(6, 2), (6, 5)]))
    policy = ExternalPolicy(
        SubprocessTransport(f"python3 {AGENT_SCRIPT} --forward-steps 2"), timeout=10.0
    )
    try:
        trace, _ = run_tour(open_room, tour, by_id, policy)
    finally:
        policy.close()
    check_trace_invariants(trace, 2)
    for et in trace.episodes:
        assert et.actions == ["forward", "forward", "stop"]


# A scripted agent for the transport contract.  Each message it reads
# lists the chunks to write back, one write per chunk with a pause
# between; "hang_up" makes it close its end instead.
SCRIPTED_PEER = """
import json, time

def serve(rfile, wfile):
    for line in rfile:
        message = json.loads(line)
        if message["type"] == "close" or message.get("hang_up"):
            return
        for chunk in message["chunks"]:
            wfile.write(chunk.encode())
            wfile.flush()
            time.sleep(0.05)
"""


def scripted_transport(kind, tmp_path):
    """A transport of ``kind`` to a SCRIPTED_PEER, the message its
    closed-peer error carries, and the serving thread of a socket peer."""
    if kind == "subprocess":
        script = tmp_path / "peer.py"
        script.write_text(SCRIPTED_PEER + "import sys\nserve(sys.stdin.buffer, sys.stdout.buffer)\n")
        return SubprocessTransport(f"{sys.executable} {script}"), r"closed its output \(exit status 0\)", None
    peer = {}
    exec(SCRIPTED_PEER, peer)
    listener = socket.create_server(("127.0.0.1", 0))

    def accept():
        conn, _ = listener.accept()
        with listener, conn, conn.makefile("rb") as rfile, conn.makefile("wb") as wfile:
            peer["serve"](rfile, wfile)

    thread = threading.Thread(target=accept, daemon=True)
    thread.start()
    return SocketTransport("127.0.0.1", listener.getsockname()[1]), "agent closed the connection", thread


@pytest.mark.parametrize("kind", ["subprocess", "socket"])
def test_transport_contract(kind, tmp_path):
    transport, closed, thread = scripted_transport(kind, tmp_path)
    try:
        transport.send({"type": "script", "chunks": ['{"type": "ack", ', '"n": 1}\n']}, 5.0)
        assert transport.recv(5.0) == {"type": "ack", "n": 1}

        transport.send({"type": "script", "chunks": ['{"type":"ack","n":2}\n{"type":"ack","n":3}\n']}, 5.0)
        assert [transport.recv(5.0)["n"] for _ in range(2)] == [2, 3]

        transport.send({"type": "script", "chunks": []}, 5.0)
        start = time.monotonic()
        with pytest.raises(PolicyTimeout, match="no reply within 0.3 s"):
            transport.recv(0.3)
        assert time.monotonic() - start >= 0.3

        transport.send({"type": "script", "hang_up": True}, 5.0)
        with pytest.raises(ProtocolViolation, match=closed):
            transport.recv(5.0)
    finally:
        transport.close(5.0)
    if thread is not None:
        thread.join(timeout=5.0)
        assert not thread.is_alive()
    else:
        assert transport.proc.returncode == 0  # reaped, not killed


# It reads every message, the close included, to EOF and stays alive.
IGNORES_CLOSE = """
import sys, time
sys.stdin.read()
time.sleep(30)
"""


def test_closing_an_agent_that_ignores_close_kills_it_at_the_deadline(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_RELEASE_TIMEOUT", 0.3)
    script = tmp_path / "ignores_close.py"
    script.write_text(IGNORES_CLOSE)
    transport = SubprocessTransport(f"{sys.executable} {script}")
    start = time.monotonic()
    transport.close(1.0)
    assert 0.3 <= time.monotonic() - start < 2.0
    assert transport.proc.returncode == -signal.SIGKILL


class CountingPipe:
    """A pipe that records each write it passes on."""

    def __init__(self, pipe):
        self.pipe = pipe
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return self.pipe.write(data)

    def flush(self):
        self.pipe.flush()

    def close(self):
        self.pipe.close()


def test_subprocess_agent_round_trip_under_a_map(open_room):
    tour, by_id = tour_of(ep("e0", [(2, 2), (6, 2)]), ep("e1", [(6, 2), (6, 5)]))
    transport = SubprocessTransport(f"python3 {AGENT_SCRIPT} --forward-steps 2")
    transport.proc.stdin = pipe = CountingPipe(transport.proc.stdin)
    policy = ExternalPolicy(transport, timeout=10.0)
    try:
        trace, _ = run_tour(open_room, tour, by_id, policy, Config(map_mode="episodic"))
    finally:
        policy.close()
    check_trace_invariants(trace, 2)
    for et in trace.episodes:
        assert et.actions == ["forward", "forward", "stop"]
    observes = [(len(data), json.loads(data)) for data in pipe.writes if json.loads(data)["type"] == "observe"]
    active = [(size, msg) for size, msg in observes if not msg["passive"]]
    assert len(active) == 6 and len(observes) > len(active)
    for size, msg in active:
        assert size < 16 * 1024
        assert msg["crop"]["size"] == 64
    # passive observations carry no crop
    assert all(msg["crop"] is None for _, msg in observes if msg["passive"])


def load_template_agent():
    spec = importlib.util.spec_from_file_location("example_agent", AGENT_SCRIPT)
    agent = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(agent)
    return agent


def test_template_acks_the_harness_protocol_version():
    assert load_template_agent().PROTOCOL_VERSION == harness.PROTOCOL_VERSION


def test_template_reads_the_compact_crop_with_the_stdlib(synth):
    agent = load_template_agent()
    grid = synth["scene"].grid
    pose = Pose(Point3(grid.origin.x + 1.3, grid.origin.y + 2.1, 0.0), 0.4)
    labels, occupied = crop_layers(known_map(grid), pose, 24)
    size, got_labels, got_occupied = agent.read_crop(json.loads(json.dumps(crop_to_compact(labels, occupied))))
    assert size == 24 and labels.any() and occupied.any()
    for i, (label, occ) in enumerate(zip(labels.ravel(), occupied.ravel())):
        assert got_labels[i] == label
        assert got_occupied[i // 8] >> (7 - i % 8) & 1 == occ
    assert agent.read_crop(None) is None
    with pytest.raises(ValueError):
        agent.read_crop({"size": 25, "labels": "", "occupied": ""})


def test_make_policy_specs(open_room):
    by_id = {}
    cfg = Config(seed=4)
    assert isinstance(make_policy("oracle", open_room, by_id, cfg), OraclePolicy)
    noisy = make_policy("noisy:0.25", open_room, by_id, cfg)
    assert isinstance(noisy, NoisyOraclePolicy)
    assert noisy.p_error == pytest.approx(0.25)
    assert isinstance(make_policy("random", open_room, by_id, cfg), RandomPolicy)
    assert isinstance(make_policy("stop", open_room, by_id, cfg), StopPolicy)
    with pytest.raises(ValueError):
        make_policy("telepathy", open_room, by_id, cfg)
