"""Every input reader reads a file or refuses it with a ValueError that
starts with the file's path, whichever single leaf of a valid file is
replaced, and with whichever of ``VALUES``.

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
from ivln.environment import load_scene
from ivln.mapper import load_map
from ivln.metrics import read_traces
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
