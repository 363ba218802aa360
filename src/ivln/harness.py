"""Tour rollouts: alternating agent and oracle phases.

A tour runs its episodes back to back.  For each episode the policy in
control acts until it stops or exhausts the step budget; if it ends
farther than the correction radius from the goal, an oracle drives the
agent the rest of the way along the shortest path, and between episodes
the oracle walks the agent to the next start.  The policy receives
passive observations while the oracle drives but takes no actions, and
oracle motion is logged in separate trace segments that scoring never
reads.

Motion is quantized to the scene: on grids a forward step moves one
cell toward the nearest of the eight compass directions to the agent's
heading (a blocked step is a no-op), turns rotate in fixed increments;
on graphs the agent hops between adjacent nodes.  Positions in traces
are therefore always cell centers or node positions.

External policies speak line-delimited JSON over a subprocess pipe or a
TCP socket.  Active observations are answered with an act message,
resets and episode starts with an ack.  Passive observations are acked
under protocol version 2; under version 3 they carry no crop and get no
reply, so an agent's fault shows at the next message that needs one or
at the next send.  Every send and every reply has the per-step deadline.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import selectors
import shlex
import socket
import subprocess
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_MAX_STEPS_CONTINUOUS, Config
from .environment import (
    GeodesicMetric,
    Point3,
    Pose,
    Scene,
    json_line,
    normalize_heading,
)
from .errors import Disconnected, MissingEpisode, PolicyTimeout, ProtocolViolation, UnsupportedScene
from .mapper import (
    CameraIntrinsics,
    SemanticOccMap,
    crop_layers,
    crop_to_compact,
    known_map,
    one_hot,
    sense,
)
from .metrics import ORACLE_GOAL, ORACLE_TRANSIT, EpisodeTrace, OracleSegment, TourTrace
from .tourgen import Episode, Tour

FORWARD = "forward"
TURN_LEFT = "left"
TURN_RIGHT = "right"
STOP = "stop"
GOTO = "goto"

# the rollout camera: height above the floor (m), frame size (px),
# horizontal field of view (degrees) and depth range (m)
CAMERA_HEIGHT = 1.25
FRAME_WIDTH = 64
FRAME_HEIGHT = 48
HFOV_DEG = 90.0
MAX_RANGE = 10.0

# poses a walk folds in one ``sense``; small batches keep memory flat
SENSE_CHUNK = 8

# the newest wire protocol version, the one a reset names; the harness
# also speaks version 2.  Both carry crops as compact label and occupancy
# grids; under version 3 a passive observation has no crop and no ack
PROTOCOL_VERSION = 3

# how much of an external agent's stderr a protocol error quotes
_STDERR_TAIL_BYTES = 2048

# compass directions for heading quantization; index k covers the 45
# degree sector centered at k * 45 degrees
_DIR8 = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


@dataclass(frozen=True)
class AgentAction:
    kind: str
    node: str | None = None

    def label(self) -> str:
        return f"{GOTO}:{self.node}" if self.kind == GOTO else self.kind


@dataclass(eq=False)
class Observation:
    """What a policy sees at one step.

    ``layers`` is the egocentric crop's label and occupancy grids
    (``mapper.crop_layers``), cut from the map at this step, or None
    without a map or ``Policy.reads_crops`` (for a passive observation,
    ``Policy.reads_passive_crops``).  The one-hot ``crop`` is made
    from them on first read, so a reader that never reads it makes none.
    """

    episode_id: str
    episode_index_in_tour: int
    instruction: str
    pose: Pose
    location: object  # cell tuple (grid) or node id (graph)
    steps_remaining: int
    phase: str  # "agent" | "oracle"
    layers: tuple[np.ndarray, np.ndarray] | None = None

    @functools.cached_property
    def crop(self) -> np.ndarray | None:
        return None if self.layers is None else one_hot(*self.layers)


@dataclass
class AgentState:
    location: object
    heading: float

    def __post_init__(self):
        self.heading = normalize_heading(self.heading)


def heading_to_dir8(heading: float) -> tuple[int, int]:
    k = round(heading / (math.pi / 4.0)) % 8
    return _DIR8[k]


def legal_actions(scene: Scene, state: AgentState) -> list[AgentAction]:
    if scene.is_discrete:
        hops = [AgentAction(GOTO, node=n) for n in scene.graph.adjacency[state.location]]
        return hops + [AgentAction(STOP)]
    return [AgentAction(FORWARD), AgentAction(TURN_LEFT), AgentAction(TURN_RIGHT), AgentAction(STOP)]


def apply_action(scene: Scene, state: AgentState, action: AgentAction, cfg: Config) -> AgentState:
    """Next state under the motion model; blocked moves leave it unchanged."""
    if action.kind == STOP:
        return state
    if scene.is_discrete:
        if action.kind != GOTO:
            raise ProtocolViolation(f"graph scenes accept goto or stop, got {action.kind}")
        if action.node not in scene.graph.adjacency[state.location]:
            raise ProtocolViolation(
                f"goto target {action.node} is not adjacent to {state.location}"
            )
        a = scene.graph.nodes[state.location]
        b = scene.graph.nodes[action.node]
        heading = math.atan2(b.y - a.y, b.x - a.x)
        return AgentState(action.node, heading)
    turn = math.radians(cfg.turn_deg)
    if action.kind == TURN_LEFT:
        return AgentState(state.location, state.heading + turn)
    if action.kind == TURN_RIGHT:
        return AgentState(state.location, state.heading - turn)
    if action.kind != FORWARD:
        raise ProtocolViolation(f"grid scenes accept move/turn/stop, got {action.kind}")
    dx, dy = heading_to_dir8(state.heading)
    target = (state.location[0] + dx, state.location[1] + dy)
    if any(cell == target for cell, _ in scene.grid.neighbors(state.location)):
        return AgentState(target, state.heading)
    return state


# ---------------------------------------------------------------------------
# waypoint control (the oracle and its noisy variant)


def _dedup(seq):
    out = []
    for item in seq:
        if not out or out[-1] != item:
            out.append(item)
    return out


def _step_toward(scene: Scene, state: AgentState, target) -> AgentAction | None:
    """One action moving the agent toward a snapped location; None if there.

    Raises Disconnected when no route leads there.
    """
    if state.location == target:
        return None
    nxt = scene.nav.next_location(state.location, target)
    if nxt is None:
        raise Disconnected(f"no route from {state.location} to {target} in {scene.scene_id}")
    if scene.is_discrete:
        return AgentAction(GOTO, node=nxt)
    dx = nxt[0] - state.location[0]
    dy = nxt[1] - state.location[1]
    if heading_to_dir8(state.heading) == (dx, dy):
        return AgentAction(FORWARD)
    want = math.atan2(dy, dx)
    diff = (want - state.heading + math.pi) % (2.0 * math.pi) - math.pi
    return AgentAction(TURN_LEFT) if diff > 0 else AgentAction(TURN_RIGHT)


class _WaypointCursor:
    """Tracks progress along a snapped reference path."""

    def __init__(self, scene: Scene, points):
        self.targets = _dedup([scene.snap_point(p) for p in points])
        self.index = 0

    def next_target(self, location):
        while self.index < len(self.targets) and self.targets[self.index] == location:
            self.index += 1
        if self.index >= len(self.targets):
            return None
        return self.targets[self.index]


class Policy:
    """Base policy; subclasses override act, the rest are optional hooks.
    Observations carry a map crop only if ``reads_crops`` (False on the built-in ones),
    and passive ones only if ``reads_passive_crops`` too, read after ``reset``."""

    reads_crops = True
    reads_passive_crops = True

    def reset(self, tour_id: str) -> None:
        pass

    def begin_episode(self, episode_id: str, instruction: str) -> None:
        pass

    def act(self, obs: Observation) -> AgentAction:
        raise NotImplementedError

    def observe(self, obs: Observation) -> None:
        pass

    def close(self) -> None:
        pass


class StopPolicy(Policy):
    reads_crops = False

    def act(self, obs):
        return AgentAction(STOP)


class RandomPolicy(Policy):
    """Uniform over the legal actions at each step."""

    reads_crops = False

    def __init__(self, scene: Scene, seed: int = 0):
        self.scene = scene
        self.rng = random.Random(seed)

    def act(self, obs):
        options = legal_actions(self.scene, AgentState(obs.location, obs.pose.heading))
        return options[self.rng.randrange(len(options))]


class OraclePolicy(Policy):
    """Follows each episode's reference path, then stops."""

    reads_crops = False

    def __init__(self, scene: Scene, episodes_by_id: dict[str, Episode]):
        self.scene = scene
        self.episodes_by_id = episodes_by_id
        self.cursor: _WaypointCursor | None = None

    def begin_episode(self, episode_id, instruction):
        self.cursor = _WaypointCursor(self.scene, self.episodes_by_id[episode_id].path)

    def act(self, obs):
        target = self.cursor.next_target(obs.location)
        if target is None:
            return AgentAction(STOP)
        action = _step_toward(self.scene, AgentState(obs.location, obs.pose.heading), target)
        return action if action is not None else AgentAction(STOP)


class NoisyOraclePolicy(OraclePolicy):
    """Oracle that errs: with probability p_error a uniform legal action
    (including stop) replaces the intended one.  The oracle replans from
    whatever state the error leaves, so small error rates degrade paths
    gracefully instead of derailing them."""

    def __init__(self, scene, episodes_by_id, p_error: float, seed: int = 0):
        if not 0.0 <= p_error <= 1.0:
            raise ValueError("p_error must lie in [0, 1]")
        super().__init__(scene, episodes_by_id)
        self.p_error = p_error
        self.rng = random.Random(seed)

    def act(self, obs):
        intended = super().act(obs)
        if self.rng.random() < self.p_error:
            options = legal_actions(self.scene, AgentState(obs.location, obs.pose.heading))
            return options[self.rng.randrange(len(options))]
        return intended


# ---------------------------------------------------------------------------
# rollout


class _Walk:
    """One tour's walk: the agent, its camera and the tour's fresh map.

    It owns the map lifetime rule: every tour starts with a fresh map (no
    map for mode "none"), an "episodic" map clears at every episode
    start, an "iterative" map keeps what the tour has sensed, and a
    "known" map is the ground truth and never changes.  The live rollout
    and the replay both drive a walk, so their maps agree.

    A map is sensed only for a crop reader or a caller that keeps it.
    Poses queue up and fold, ``SENSE_CHUNK`` at a time, when the map is
    handed out: in a crop, or as the kept map.  A kept map also folds
    every ``SENSE_CHUNK`` poses as the walk goes, which keeps its memory
    flat; an episodic clear drops the queued poses nobody read.
    """

    def __init__(self, scene: Scene, cfg: Config, reads_crops: bool = False, keep_map: bool = True):
        self.scene = scene
        self.cfg = cfg
        self._map: SemanticOccMap | None = None
        if cfg.map_mode != "none" and scene.is_discrete:
            raise UnsupportedScene("maps need a grid scene")
        if cfg.map_mode == "known":
            self._map = known_map(scene.grid)
        elif cfg.map_mode != "none":
            self._map = SemanticOccMap.for_grid(scene.grid, cfg.map_mode)
        self.reads_crops = reads_crops
        self.reads_passive_crops = reads_crops
        self.keep_map = keep_map
        self._senses = cfg.map_mode in ("episodic", "iterative") and (reads_crops or keep_map)
        self._pending: list[Pose] = []
        self.intrinsics = CameraIntrinsics.from_hfov(FRAME_WIDTH, FRAME_HEIGHT, HFOV_DEG)
        self.state: AgentState | None = None

    @property
    def position(self) -> Point3:
        return self.scene.location_point(self.state.location)

    @property
    def occ_map(self) -> SemanticOccMap | None:
        """The map, with every pending pose folded in."""
        self._fold()
        return self._map

    def _fold(self) -> None:
        for i in range(0, len(self._pending), SENSE_CHUNK):
            sense(self._map, self.scene.grid, self._pending[i:i + SENSE_CHUNK], self.intrinsics, MAX_RANGE)
        self._pending = []

    def begin(self, episode: Episode) -> Point3:
        """Start an episode: the first at its snapped start, later ones where
        the agent stands, facing the episode's start heading."""
        if self.cfg.map_mode == "episodic":
            self._pending = []
            self._map.clear()
        start = self.scene.snap_point(episode.path[0]) if self.state is None else self.state.location
        self.state = AgentState(start, episode.start_heading)
        self._sense()
        return self.position

    def move(self, action: AgentAction) -> Point3:
        self.state = apply_action(self.scene, self.state, action, self.cfg)
        self._sense()
        return self.position

    def _sense(self) -> None:
        if not self._senses:
            return
        pos = self.position
        self._pending.append(Pose(Point3(pos.x, pos.y, self.scene.grid.floor_z + CAMERA_HEIGHT), self.state.heading))
        if self.keep_map and len(self._pending) == SENSE_CHUNK:
            self._fold()

    def observation(self, episode: Episode, index: int, steps_remaining: int, phase: str) -> Observation:
        pose = Pose(self.position, self.state.heading)
        reads = self.reads_crops if phase == "agent" else self.reads_passive_crops
        occ_map = self.occ_map if reads else None
        layers = None if occ_map is None else crop_layers(occ_map, pose, self.cfg.crop_size)
        return Observation(episode.episode_id, index, episode.instruction, pose, self.state.location,
                           steps_remaining, phase, layers)


def _oracle_drive(walk: _Walk, target, kind: str, policy: Policy, episode: Episode, index: int):
    """Drive to a snapped location; returns the segment of logged motion.
    The policy observes passively after every step.

    Raises RuntimeError when the step guard trips: oracle steps always
    make progress, so that is a bug, and stopping short would start the
    next episode from the wrong location.
    """
    segment = OracleSegment(kind, [], [])
    guard = 64 * (DEFAULT_MAX_STEPS_CONTINUOUS + 64)
    while len(segment.actions) < guard:
        action = _step_toward(walk.scene, walk.state, target)
        if action is None:
            return segment
        segment.points.append(walk.move(action))
        segment.actions.append(action.label())
        policy.observe(walk.observation(episode, index, 0, "oracle"))
    raise RuntimeError(f"oracle drive to {target} did not arrive within {guard} steps")


def run_tour(
    scene: Scene,
    tour: Tour,
    episodes_by_id: dict[str, Episode],
    policy: Policy,
    cfg: Config | None = None,
    keep_map: bool = True,
) -> tuple[TourTrace, SemanticOccMap | None]:
    """Execute one tour; returns its trace and, if ``keep_map``, the final map (if any).

    The map mode must be "none" on graph scenes, which have no depth
    sensing.  Every episode runs: agent phase under the policy, then a
    goal correction when the agent ended farther than the correction
    radius from the goal (geodesic), then a transit to the next start.
    On policy failure after the reset, wherever it happens in the tour,
    the exception carries the partial trace in its ``partial_trace``
    attribute: the finished episodes, the agent phase in progress and
    the oracle segments finished so far.  Raises ValueError on an invalid
    ``cfg`` before any step.
    """
    if cfg is None:
        cfg = Config()
    cfg.validate()
    try:
        episodes = [episodes_by_id[eid] for eid in tour.episode_ids]
    except KeyError as exc:
        raise MissingEpisode(f"tour {tour.tour_id} references unknown episode {exc}") from None

    walk = _Walk(scene, cfg, getattr(policy, "reads_crops", True), keep_map)
    geo = GeodesicMetric(scene)
    budget = cfg.budget(scene)
    policy.reset(tour.tour_id)
    # an external agent's acked protocol version decides this
    walk.reads_passive_crops = walk.reads_crops and getattr(policy, "reads_passive_crops", True)

    episode_traces: list[EpisodeTrace] = []
    try:
        for index, episode in enumerate(episodes):
            # logged as it runs, so a policy failure keeps the phase in progress
            logged = EpisodeTrace(
                episode_id=episode.episode_id,
                agent_path=[walk.begin(episode)],
                reference_path=episode.path,
                stop_called=False,
            )
            episode_traces.append(logged)
            policy.begin_episode(episode.episode_id, episode.instruction)

            for step in range(budget):
                action = policy.act(walk.observation(episode, index, budget - step, "agent"))
                logged.actions.append(action.label())
                if action.kind == STOP:
                    logged.stop_called = True
                    break
                logged.agent_path.append(walk.move(action))

            goal = episode.path[-1]
            if geo(goal, walk.position) > cfg.oracle_correction_radius:
                target = scene.snap_point(goal)
                logged.segments.append(_oracle_drive(walk, target, ORACLE_GOAL, policy, episode, index))
            if index + 1 < len(episodes):
                nxt = scene.snap_point(episodes[index + 1].path[0])
                if walk.state.location != nxt:
                    logged.segments.append(_oracle_drive(walk, nxt, ORACLE_TRANSIT, policy, episode, index))
    except (PolicyTimeout, ProtocolViolation) as exc:
        exc.partial_trace = TourTrace(tour_id=tour.tour_id, episodes=episode_traces)
        raise
    return TourTrace(tour_id=tour.tour_id, episodes=episode_traces), walk.occ_map if keep_map else None


def run_tours(scene, tours, episodes_by_id, policy, cfg=None, keep_map=True):
    """Run tours sequentially with one policy; returns (traces, last map).

    Only the last tour keeps its map, if ``keep_map``.  On policy failure
    the exception's ``partial_traces`` attribute holds every finished
    tour trace, then the failed tour's partial trace when it has one.
    """
    traces = []
    occ_map = None
    try:
        for i, tour in enumerate(tours):
            trace, occ_map = run_tour(scene, tour, episodes_by_id, policy, cfg, keep_map and i == len(tours) - 1)
            traces.append(trace)
    except (PolicyTimeout, ProtocolViolation) as exc:
        partial = getattr(exc, "partial_trace", None)
        exc.partial_traces = traces + ([partial] if partial is not None else [])
        raise
    return traces, occ_map


def _check_replayed(position: Point3, point, where) -> None:
    if position != point:
        raise ValueError(f"{where}: replay is at {tuple(position)}, trace logs {tuple(point)}")


def _replay_phase(walk: _Walk, points, actions, stopped, where) -> None:
    """Re-run one logged phase on the walk.

    A phase that ``stopped`` logs one more action than points: the stop.
    """
    moves = actions[:-1] if stopped else actions
    if len(moves) != len(points) or (stopped and actions[-1:] != [STOP]):
        raise ValueError(
            f"{where}: {len(actions)} actions for {len(points)} logged points (stopped: {stopped})"
        )
    for step, (label, point) in enumerate(zip(moves, points), start=1):
        if label not in (FORWARD, TURN_LEFT, TURN_RIGHT):
            raise ValueError(f"{where} step {step}: cannot replay action {label!r}")
        _check_replayed(walk.move(AgentAction(label)), point, f"{where} step {step}")


def replay_tour(
    scene: Scene,
    trace: TourTrace,
    episodes_by_id: dict[str, Episode],
    cfg: Config,
    keep_map: bool = True,
) -> SemanticOccMap | None:
    """Rebuild the map of a logged tour under ``cfg.map_mode``.

    The logged actions re-run on the rollout's own walk, so the map
    equals the live one; without ``keep_map`` it is None, and nothing is
    sensed.  Raises ValueError when a logged position is not where the
    actions lead, or when the actions and positions of a phase disagree
    in number, and on an invalid ``cfg``.
    """
    cfg.validate()
    if cfg.map_mode == "none":
        raise ValueError("replay needs a map mode: episodic, iterative or known")
    walk = _Walk(scene, cfg, keep_map=keep_map)
    for ep_trace in trace.episodes:
        episode = episodes_by_id.get(ep_trace.episode_id)
        if episode is None:
            raise MissingEpisode(f"trace episode {ep_trace.episode_id} not in episode set")
        where = f"tour {trace.tour_id} episode {episode.episode_id}"
        _check_replayed(walk.begin(episode), ep_trace.agent_path[0], f"{where} agent step 0")
        _replay_phase(walk, ep_trace.agent_path[1:], ep_trace.actions, ep_trace.stop_called, f"{where} agent")
        for seg in ep_trace.segments:
            _replay_phase(walk, seg.points, seg.actions, False, f"{where} {seg.kind}")
    return walk.occ_map if keep_map else None


# ---------------------------------------------------------------------------
# external policies (line-delimited JSON)


def observation_message(obs: Observation) -> dict:
    """Wire form of an observation; pose is [x, y, z, heading] and the crop
    the ``crop_to_compact`` dict."""
    crop = None if obs.layers is None else crop_to_compact(*obs.layers)
    msg = {
        "type": "observe",
        "pose": [obs.pose.position.x, obs.pose.position.y, obs.pose.position.z, obs.pose.heading],
        "steps_remaining": obs.steps_remaining,
        "crop": crop,
        "passive": obs.phase != "agent",
        "episode_id": obs.episode_id,
        "episode_index": obs.episode_index_in_tour,
    }
    if isinstance(obs.location, str):
        msg["node"] = obs.location
    else:
        msg["cell"] = list(obs.location)
    return msg


class _LineTransport:
    """The framing both transports share: one ``json_line`` per message
    each way.  A transport supplies ``send`` (raising PolicyTimeout when
    the peer takes in too little within the timeout), ``_read`` (the
    bytes that arrive within a timeout, b"" for none, raising on a closed
    peer) and ``_release``."""

    _buf = b""

    def recv(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise PolicyTimeout(f"no reply within {timeout} s")
            self._buf += self._read(remaining)
        line, self._buf = self._buf.split(b"\n", 1)
        return _parse_message(line)

    def close(self, timeout: float) -> None:
        try:
            self.send({"type": "close"}, timeout)
        except (PolicyTimeout, ProtocolViolation):
            pass
        self._release()


class SubprocessTransport(_LineTransport):
    """Line-delimited JSON over a child process's stdin/stdout.

    The child's stderr goes to a temporary file, which needs no reader
    and so cannot fill up and stall the child the way a pipe can; when
    the child closes its end of the protocol, the error carries its exit
    status and the tail of that file.
    """

    def __init__(self, command: str):
        self._stderr = tempfile.TemporaryFile()
        try:
            self.proc = subprocess.Popen(
                shlex.split(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self._stderr,
                bufsize=0,
            )
        except BaseException:
            self._stderr.close()
            raise
        self._sel = selectors.DefaultSelector()
        self._sel.register(self.proc.stdout, selectors.EVENT_READ)
        # a write never blocks: send waits for room in the pipe until its deadline
        os.set_blocking(self.proc.stdin.fileno(), False)
        self._writable = selectors.DefaultSelector()
        self._writable.register(self.proc.stdin, selectors.EVENT_WRITE)

    def _closed(self, what: str) -> ProtocolViolation:
        """The error for a child that closed its input or output."""
        try:
            status = self.proc.wait(timeout=1.0)
        except subprocess.TimeoutExpired:
            status = None
        # pread leaves the file offset the child writes at untouched
        fd = self._stderr.fileno()
        size = os.fstat(fd).st_size
        start = max(0, size - _STDERR_TAIL_BYTES)
        tail = os.pread(fd, size - start, start).decode(errors="replace").strip()
        state = "still running" if status is None else f"exit status {status}"
        return ProtocolViolation(f"agent process closed its {what} ({state}); stderr tail: {tail!r}")

    def send(self, message: dict, timeout: float) -> None:
        data = memoryview(json_line(message).encode())
        deadline = time.monotonic() + timeout
        try:
            while True:
                # a full pipe takes part of the data, or none (None)
                data = data[self.proc.stdin.write(data) or 0:]
                if not data:
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._writable.select(remaining):
                    raise PolicyTimeout(f"agent did not read the message within {timeout} s")
        except (BrokenPipeError, ValueError):
            raise self._closed("input") from None

    # bound here too: perfbench's tracer wraps only a class's own methods
    recv = _LineTransport.recv

    def _read(self, timeout: float) -> bytes:
        if not self._sel.select(timeout):
            return b""
        chunk = os.read(self.proc.stdout.fileno(), 65536)
        if not chunk:
            raise self._closed("output")
        return chunk

    def _release(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._sel.close()
        self._writable.close()
        self.proc.stdout.close()
        self._stderr.close()


class SocketTransport(_LineTransport):
    """Line-delimited JSON over a TCP connection."""

    def __init__(self, host: str, port: int, connect_timeout: float = 10.0):
        self.sock = socket.create_connection((host, port), timeout=connect_timeout)

    def send(self, message: dict, timeout: float) -> None:
        self.sock.settimeout(timeout)
        try:
            self.sock.sendall(json_line(message).encode())
        except TimeoutError:
            raise PolicyTimeout(f"agent did not read the message within {timeout} s") from None
        except OSError as exc:
            raise ProtocolViolation(f"agent connection failed: {exc}") from None

    def _read(self, timeout: float) -> bytes:
        self.sock.settimeout(timeout)
        try:
            chunk = self.sock.recv(65536)
        except TimeoutError:
            return b""
        except OSError as exc:
            raise ProtocolViolation(f"agent connection failed: {exc}") from None
        if not chunk:
            raise ProtocolViolation("agent closed the connection")
        return chunk

    def _release(self) -> None:
        self.sock.close()


def _parse_message(line: bytes) -> dict:
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolViolation(f"bad JSON from agent: {exc}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolViolation(f"agent messages must be objects with a type: {line[:200]!r}")
    return message


_ACTION_NAMES = {FORWARD, TURN_LEFT, TURN_RIGHT, STOP, GOTO}


class ExternalPolicy(Policy):
    """Bridges the harness to an agent behind a transport.

    Each tour's reset names ``PROTOCOL_VERSION``, and the agent's ack
    carries the version it speaks for the tour, 2 or 3.  A version-2
    agent acks every passive observation, which carries a crop; a
    version-3 agent gets passive observations without one and sends no
    reply.  Every send and every reply is bounded by ``timeout``.
    """

    version = None  # the protocol version acked at the last reset

    def __init__(self, transport, timeout: float = 10.0):
        self.transport = transport
        self.timeout = timeout

    @property
    def reads_passive_crops(self) -> bool:
        return self.version == 2

    def _send(self, message: dict) -> None:
        self.transport.send(message, self.timeout)

    def _expect_ack(self) -> dict:
        reply = self.transport.recv(self.timeout)
        if reply.get("type") != "ack":
            raise ProtocolViolation(f"expected ack, got {reply.get('type')!r}")
        return reply

    def reset(self, tour_id):
        self._send({"type": "reset", "tour_id": tour_id, "protocol_version": PROTOCOL_VERSION})
        version = self._expect_ack().get("protocol_version")
        if type(version) is not int or version not in (2, 3):
            raise ProtocolViolation(
                f"agent acked protocol_version {version!r}; the harness speaks versions 2 and 3"
                " (ack protocol_version 2 or 3)"
            )
        self.version = version

    def begin_episode(self, episode_id, instruction):
        self._send({"type": "episode", "episode_id": episode_id, "instruction": instruction})
        self._expect_ack()

    def act(self, obs):
        self._send(observation_message(obs))
        reply = self.transport.recv(self.timeout)
        if reply.get("type") != "act":
            raise ProtocolViolation(f"expected act, got {reply.get('type')!r}")
        kind = reply.get("action")
        if kind not in _ACTION_NAMES:
            raise ProtocolViolation(f"unknown action {kind!r}")
        if kind == GOTO:
            node = reply.get("node")
            if not isinstance(node, str):
                raise ProtocolViolation("goto actions need a node id")
            return AgentAction(GOTO, node=node)
        return AgentAction(kind)

    def observe(self, obs):
        self._send(observation_message(obs))
        if self.version == 2:
            self._expect_ack()

    def close(self):
        self.transport.close(self.timeout)


def make_policy(spec: str, scene: Scene, episodes_by_id: dict, cfg: Config) -> Policy:
    """Build a policy from its command-line spec string.

    Specs: "oracle", "noisy:<p_error>", "random", "stop",
    "ext:<command>" (subprocess), "tcp:<host>:<port>".
    """
    if spec == "oracle":
        return OraclePolicy(scene, episodes_by_id)
    if spec.startswith("noisy:"):
        try:
            p_error = float(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"policy spec {spec!r} is not noisy:<probability>") from None
        return NoisyOraclePolicy(scene, episodes_by_id, p_error, seed=cfg.seed)
    if spec == "random":
        return RandomPolicy(scene, seed=cfg.seed)
    if spec == "stop":
        return StopPolicy()
    if spec.startswith("ext:"):
        command = spec.split(":", 1)[1]
        try:
            argv = shlex.split(command)
        except ValueError as e:
            raise ValueError(f"policy spec {spec!r} is not ext:<command>: {e}") from None
        if not argv:
            raise ValueError(f"policy spec {spec!r} names no command")
        return ExternalPolicy(SubprocessTransport(command), timeout=cfg.step_timeout)
    if spec.startswith("tcp:"):
        try:
            _, host, port = spec.split(":")
            port = int(port)
        except ValueError:
            raise ValueError(f"policy spec {spec!r} is not tcp:<host>:<port>") from None
        return ExternalPolicy(SocketTransport(host, port), timeout=cfg.step_timeout)
    raise ValueError(f"unknown policy spec {spec!r}")
