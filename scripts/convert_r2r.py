#!/usr/bin/env python3
"""Convert a Room-to-Room training split into scene and episode files.

Expects the standard layout: an R2R_train.json annotation file and a
connectivity/ directory of per-scan viewpoint graphs.  Each scan becomes
a navigation-graph scene (viewpoint positions from the pose matrices,
edges where traversal is unobstructed in either direction) plus an
episode file with one episode per instruction, sharing the annotated
path.  Headings are converted from compass convention (clockwise from
north) to counterclockwise from +x.

Writes out/scenes/<scan>.json, out/episodes/<scan>.json, and a
summary.json with corpus counts.
"""

import argparse
import math
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ivln.environment import NavGraph, Point3, Scene, read_json, save_scene, write_json
from ivln.tourgen import Episode, save_episodes


def load_connectivity(path: Path) -> Scene:
    scan = path.name.removesuffix("_connectivity.json")
    data = read_json(path)
    nodes = {}
    for entry in data:
        if not entry["included"]:
            continue
        pose = entry["pose"]  # 4x4 row-major; translation in column 3
        nodes[entry["image_id"]] = Point3(pose[3], pose[7], pose[11])
    edges = set()
    for i, entry in enumerate(data):
        if not entry["included"]:
            continue
        for j, open_ in enumerate(entry["unobstructed"]):
            if not open_ or j == i:
                continue
            other = data[j]
            if not other["included"]:
                continue
            a, b = entry["image_id"], other["image_id"]
            edges.add((a, b) if a < b else (b, a))
    graph = NavGraph(nodes=nodes, edges=sorted(edges))
    return Scene(scene_id=scan, graph=graph)


def episodes_for_scan(scan: str, items: list[dict], scene: Scene) -> list[Episode]:
    episodes = []
    for item in items:
        points = [scene.graph.nodes[vp] for vp in item["path"]]
        heading = (math.pi / 2.0) - item.get("heading", 0.0)
        path_id = str(item["path_id"])
        for k, text in enumerate(item["instructions"]):
            episodes.append(
                Episode(
                    episode_id=f"{path_id}_{k}",
                    path_id=path_id,
                    scene_id=scan,
                    path=points,
                    start_heading=heading,
                    instruction_id=f"{path_id}_{k}",
                    instruction=text,
                )
            )
    return episodes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True, help="directory holding the dataset")
    parser.add_argument("--train-json", help="annotation file (default <data-dir>/R2R_train.json)")
    parser.add_argument(
        "--connectivity", help="per-scan graph directory (default <data-dir>/connectivity)"
    )
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args()

    data_dir = Path(args.data_dir)
    train_json = Path(args.train_json) if args.train_json else data_dir / "R2R_train.json"
    connectivity = Path(args.connectivity) if args.connectivity else data_dir / "connectivity"
    out = Path(args.out)
    (out / "scenes").mkdir(parents=True, exist_ok=True)
    (out / "episodes").mkdir(parents=True, exist_ok=True)

    annotations = read_json(train_json)
    by_scan = defaultdict(list)
    for item in annotations:
        by_scan[item["scan"]].append(item)

    total_episodes = 0
    total_paths = 0
    for scan in sorted(by_scan):
        scene = load_connectivity(connectivity / f"{scan}_connectivity.json")
        episodes = episodes_for_scan(scan, by_scan[scan], scene)
        save_scene(scene, out / "scenes" / f"{scan}.json")
        save_episodes(episodes, out / "episodes" / f"{scan}.json")
        total_episodes += len(episodes)
        total_paths += len(by_scan[scan])

    summary = {
        "scenes": len(by_scan),
        "paths": total_paths,
        "episodes": total_episodes,
    }
    write_json(out / "summary.json", summary)
    print(
        f"{summary['scenes']} scenes, {summary['paths']} paths, "
        f"{summary['episodes']} episodes -> {out}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
