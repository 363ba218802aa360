#!/usr/bin/env python3
"""Sweep oracle noise levels and write the split score per run to CSV.

Builds one synthetic world and its tour set, then rolls a noisy oracle
over the tours for every (p_error, seed) pair.  The CSV has one row per
run plus a mean row per noise level; a quick way to see the score fall
as the policy degrades.
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ivln.harness import NoisyOraclePolicy, run_tours
from ivln.metrics import aggregate_t_ndtw, scale_score, tour_ndtw
from ivln.syngen import EpisodeSpec, FloorplanSpec, generate_episodes, generate_scene
from ivln.tourgen import build_tours


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rooms", type=int, default=3)
    parser.add_argument("--episodes", type=int, default=8)
    parser.add_argument("--world-seed", type=int, default=11)
    parser.add_argument(
        "--p", type=float, nargs="+", default=[0.0, 0.1, 0.3, 0.5], help="noise levels"
    )
    parser.add_argument("--seeds", type=int, default=20, help="rollout seeds per level")
    parser.add_argument("--out", default="noise_sweep.csv")
    args = parser.parse_args()

    scene, _ = generate_scene(FloorplanSpec(rooms=args.rooms, seed=args.world_seed))
    episodes = generate_episodes(
        scene, EpisodeSpec(count=args.episodes, seed=args.world_seed)
    )
    by_id = {ep.episode_id: ep for ep in episodes}
    tours = build_tours(episodes, scene, seed=args.world_seed)
    print(f"world {scene.scene_id}: {len(episodes)} episodes, {len(tours)} tour(s)")

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p_error", "seed", "split_score"])
        for p in args.p:
            scores = []
            for seed in range(args.seeds):
                policy = NoisyOraclePolicy(scene, by_id, p_error=p, seed=seed)
                traces, _ = run_tours(scene, tours, by_id, policy)
                score = scale_score(aggregate_t_ndtw([(t, tour_ndtw(t)) for t in traces]))
                scores.append(score)
                writer.writerow([p, seed, f"{score:.1f}"])
            mean = sum(scores) / len(scores)
            writer.writerow([p, "mean", f"{mean:.1f}"])
            print(f"p={p:.2f}: mean split score {mean:.1f} over {args.seeds} seeds")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
