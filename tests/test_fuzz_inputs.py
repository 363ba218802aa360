"""Every input reader reads a file or refuses it with a ValueError that
starts with the file's path, whichever single leaf of a valid file is
replaced, and with whichever of ``VALUES``.  Likewise a rollout over the
wire completes or fails with the policy's error and the traces so far,
whichever single reply of its agent is replaced or has one leaf replaced.

The files are those of one tiny world (3 rooms, 5 paths x 2 instructions):
the grid scene and its graph twin, the episodes, the tours, a noisy
rollout's traces and its iterative map.  A leaf is a value that is not a
non-empty object or list, so an empty list (an oracle segment that took
no step) is a leaf too.  The NaN value is written as the bare ``NaN``
token that ``json.load`` accepts.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivln.cli import main
from ivln.config import Config
from ivln.environment import load_scene
from ivln.errors import PolicyTimeout, ProtocolViolation
from ivln.harness import PROTOCOL_VERSION, ExternalPolicy, _LineTransport, run_tours
from ivln.mapper import load_map
from ivln.metrics import TourTrace, read_traces
from ivln.tourgen import load_episodes, load_tours

VALUES = [None, True, "x", -1, 2.5, 10**30, [], {}, math.nan]

FILES = ("scene.json", "graph.json", "episodes.json", "tours.json", "traces.jsonl", "map.json")


def leaf_paths(value, path=()):
    """The key path of every leaf of a JSON value."""
    if isinstance(value, (dict, list)) and value:
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from leaf_paths(item, path + (key,))
    else:
        yield path


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {name: root / name for name in FILES}
    for argv in (
        ("gen-env", "--rooms", 3, "--seed", 3, "--out", paths["scene.json"], "--graph-out", paths["graph.json"]),
        ("gen-episodes", "--scene", paths["scene.json"], "--count", 5, "--n", 2, "--seed", 3,
         "--out", paths["episodes.json"]),
        ("gen-tours", "--scene", paths["scene.json"], "--episodes", paths["episodes.json"],
         "--out", paths["tours.json"]),
        ("run", "--scene", paths["scene.json"], "--episodes", paths["episodes.json"], "--tours", paths["tours.json"],
         "--policy", "noisy:0.2", "--seed", 3, "--map", "iterative", "--map-out", paths["map.json"],
         "--out", paths["traces.jsonl"]),
    ):
        assert main([str(a) for a in argv]) == 0
    by_id = {ep.episode_id: ep for ep in load_episodes(paths["episodes.json"])}
    readers = {"scene.json": load_scene, "graph.json": load_scene, "episodes.json": load_episodes,
               "tours.json": load_tours, "traces.jsonl": lambda path: read_traces(path, by_id), "map.json": load_map}
    # a file is a list of documents: one JSON document, or one per line
    documents = {name: [json.loads(line) for line in path.read_text().splitlines()] for name, path in paths.items()}
    leaves = {name: [(k, leaf) for k, doc in enumerate(docs) for leaf in leaf_paths(doc)]
              for name, docs in documents.items()}
    return root, readers, documents, leaves


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_a_reader_reads_a_file_with_one_leaf_replaced_or_names_the_file(world, data):
    root, readers, documents, leaves = world
    name = data.draw(st.sampled_from(FILES), label="file")
    k, leaf = data.draw(st.sampled_from(leaves[name]), label="leaf")
    value = data.draw(st.sampled_from(VALUES), label="value")
    docs = json.loads(json.dumps(documents[name]))
    parent = docs[k]
    for key in leaf[:-1]:
        parent = parent[key]
    parent[leaf[-1]] = value
    path = root / f"mutated-{name}"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    try:
        readers[name](path)
    except ValueError as exc:
        assert str(exc).startswith(str(path)), f"{name} {leaf} = {value!r}: {exc}"


# -- the wire ------------------------------------------------------------------

# whole replies in place of one: lines that are no object, not JSON, not
# UTF-8 or nested too deep for the JSON reader, and an object of no type
LINES = [b"[]", b'"act"', b"3", b"null", b'{"type": ', b'{"type": "\x80"}', b"[" * 10**5 + b"]" * 10**5, b"{}"]
DROP = object()  # the value that leaves a reply's field out
STEPS = 4  # each episode's agent phase: forward or a hop while 2 steps or more remain, then stop


@pytest.fixture(scope="module")
def wire_worlds(world):
    """(scene, tours, episodes by id) on the grid scene and its graph twin."""
    root = world[0]
    worlds = {}
    for kind, scene, episodes, tours in (("grid", "scene.json", "episodes.json", "tours.json"),
                                         ("graph", "graph.json", "graph-episodes.json", "graph-tours.json")):
        if kind == "graph":
            for argv in (("gen-episodes", "--scene", root / scene, "--count", 4, "--min-length", 1, "--seed", 3,
                          "--out", root / episodes),
                         ("gen-tours", "--scene", root / scene, "--episodes", root / episodes, "--out", root / tours)):
                assert main([str(a) for a in argv]) == 0
        worlds[kind] = (load_scene(root / scene), load_tours(root / tours),
                        {ep.episode_id: ep for ep in load_episodes(root / episodes)})
    return worlds


class InProcessAgent(_LineTransport):
    """An agent behind the harness's line framing, in this process: each
    message that needs a reply gets it at once, except that reply number
    ``target`` is replaced by ``mutate(reply)``, a line of bytes."""

    def __init__(self, scene, target=-1, mutate=None):
        self.scene, self.target, self.mutate = scene, target, mutate
        self.replies = 0

    def answer(self, message):
        if message["type"] == "reset":
            return {"type": "ack", "protocol_version": PROTOCOL_VERSION}
        if message["type"] == "episode":
            return {"type": "ack"}
        if message["type"] != "observe" or message["passive"]:
            return None
        if message["steps_remaining"] <= STEPS - 2:
            return {"type": "act", "action": "stop"}
        if "node" in message:
            return {"type": "act", "action": "goto", "node": self.scene.graph.adjacency[message["node"]][0]}
        return {"type": "act", "action": "forward"}

    def send(self, message, timeout):
        reply = self.answer(message)
        if reply is not None:
            line = self.mutate(reply) if self.replies == self.target else json.dumps(reply).encode()
            self._buf += line + b"\n"
            self.replies += 1

    def _read(self, timeout):
        raise AssertionError("the harness waits for a reply the agent does not owe")

    def _release(self):
        pass


def rollout(world, transport):
    scene, tours, by_id = world
    return run_tours(scene, tours, by_id, ExternalPolicy(transport), Config(max_steps=STEPS), keep_map=False)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_a_rollout_with_one_agent_reply_replaced_completes_or_keeps_its_traces(wire_worlds, data):
    world = wire_worlds[data.draw(st.sampled_from(sorted(wire_worlds)), label="scene")]
    clean = InProcessAgent(world[0])
    rollout(world, clean)
    target = data.draw(st.integers(0, clean.replies - 1), label="reply")

    def mutate(reply):
        how = data.draw(st.sampled_from(["leaf", "line", "other type"]), label="how")
        if how == "line":
            return data.draw(st.sampled_from(LINES), label="line")
        if how == "other type":
            reply = {"type": "act", "action": "stop"} if reply["type"] == "ack" else {"type": "ack"}
        else:
            key = data.draw(st.sampled_from(sorted(reply)), label="field")
            value = data.draw(st.sampled_from([DROP, *VALUES]), label="value")
            reply = {k: v for k, v in reply.items() if k != key or value is not DROP}
            if value is not DROP:
                reply[key] = value
        return json.dumps(reply).encode()

    agent = InProcessAgent(world[0], target, mutate)
    try:
        traces, _ = rollout(world, agent)
    except (PolicyTimeout, ProtocolViolation) as exc:
        traces = exc.partial_traces
    assert agent.replies > target
    assert all(type(trace) is TourTrace for trace in traces)
    assert [trace.tour_id for trace in traces] == [tour.tour_id for tour in world[1][:len(traces)]]
