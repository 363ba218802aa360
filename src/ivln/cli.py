"""Command-line entry point.

Subcommands cover the full pipeline: gen-env and gen-episodes produce
synthetic inputs, gen-tours orders them into tours, run executes a
policy over the tours, eval scores the traces, coverage and stats emit
plot-ready CSV, and build-map replays a trace into a map snapshot.

Every subcommand reads its files through one path, ``_inputs``, which
cross-checks them and names the file of any input error, and its
settings through one, ``_config``.

Exit codes: 0 success, 1 policy failure during run (partial traces are
flushed first), 2 bad input (OSError or ValueError only), 3 infeasible
request (IvlnError); any other exception escapes with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import math
import sys

from .config import Config, resolve_config
from .coverage import ObservationModel, coverage_curves
from .environment import FORMAT_VERSION, load_scene, save_scene, write_json
from .errors import (
    EmptySequence,
    IvlnError,
    MissingEpisode,
    PolicyTimeout,
    ProtocolViolation,
)
from .harness import make_policy, replay_tour, run_tours
from .mapper import MAP_MODES, save_map
from .metrics import build_report, read_traces, write_traces
from .syngen import EpisodeSpec, FloorplanSpec, generate_episodes, generate_scene
from .tourgen import (
    build_tours,
    compute_tour_stats,
    load_episodes,
    load_tours,
    save_episodes,
    save_tours,
    unique_paths,
)

# bad input: a file that cannot be read, or a value that is not of its form
_PARSE_ERRORS = (OSError, ValueError)


def _stats_block(stats) -> str:
    head = (
        f"{'scenes':>7} {'episodes':>9} {'tours':>6} {'tours/scene':>12} "
        f"{'mean':>7} {'min':>5} {'max':>5} {'stddev':>7}"
    )
    row = (
        f"{stats.scenes:>7d} {stats.episodes:>9d} {stats.tours:>6d} "
        f"{stats.tours_per_scene:>12.1f} {stats.mean_length:>7.1f} "
        f"{stats.min_length:>5d} {stats.max_length:>5d} {stats.stddev_length:>7.1f}"
    )
    return head + "\n" + row


def _config(args) -> Config:
    """Each Config field the subcommand has a flag for: the flag over the config
    file over the default, where a flag left out is absent from args or None."""
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(Config) if hasattr(args, f.name)}
    return resolve_config(getattr(args, "config", None), overrides)


def _max_steps(raw: str) -> int | None:
    """``--max-steps`` value: a step count, or none for the per-kind default."""
    if raw.strip().lower() in ("none", "null"):
        return None
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a step count or none, got {raw!r}") from None


def _inputs(args) -> argparse.Namespace:
    """The files the subcommand names, read in the order scene, episodes
    (by id), tours, traces, each checked once: a file of episodes, tours or
    traces holds some, episodes and tours belong to the scene, and traces
    follow the tour file (``_check_complete``).  A ValueError raised in
    reading a file starts with the file's path."""
    got = argparse.Namespace(scene=None, episodes={}, tours=[], traces=[])
    for name, load in (("scene", load_scene), ("episodes", load_episodes), ("tours", load_tours),
                       ("traces", lambda path: read_traces(path, got.episodes))):
        path = getattr(args, name, None)
        if path is None:
            continue
        records = load(path)
        if not records:
            raise EmptySequence(f"no {'tour traces' if name == 'traces' else name} in {path}")
        if got.scene is not None and name in ("episodes", "tours"):
            for rec in records:
                if rec.scene_id != got.scene.scene_id:
                    record = f"episode {rec.episode_id}" if name == "episodes" else f"tour {rec.tour_id}"
                    raise ValueError(f"{path}: {record} belongs to scene {rec.scene_id!r}, "
                                     f"not to {got.scene.scene_id!r}")
        setattr(got, name, {ep.episode_id: ep for ep in records} if name == "episodes" else records)
    if got.tours and got.traces:
        _check_complete(got.tours, got.traces)
    return got


def _check_complete(tours, traces):
    """Each traced tour must be in the tour file and trace its episodes,
    in order; the error names the tour and the first episode that differs."""
    listed = {tour.tour_id: tour.episode_ids for tour in tours}
    traced = {t.tour_id: [ep.episode_id for ep in t.episodes] for t in traces}
    for tid in traced:
        if tid not in listed:
            raise MissingEpisode(f"trace holds tour {tid}, which the tour file lacks")
    for tid, want in listed.items():
        for i, (got, eid) in enumerate(itertools.zip_longest(traced.get(tid, []), want)):
            if got != eid:
                raise MissingEpisode(f"trace of tour {tid} differs from the tour file at episode {i}: "
                                     f"traced {got or 'nothing'}, listed {eid or 'nothing'}")


def cmd_gen_env(args) -> int:
    spec = FloorplanSpec(
        rooms=args.rooms,
        room_size_range=(args.room_min, args.room_max),
        door_width=args.door_width,
        sealed_door_probability=args.sealed_prob,
        furniture_per_room=args.furniture,
        resolution=args.resolution,
        seed=args.seed,
    )
    grid_scene, graph_scene = generate_scene(spec)
    save_scene(grid_scene, args.out)
    if args.graph_out:
        save_scene(graph_scene, args.graph_out)
    g = grid_scene.grid
    print(
        f"scene {grid_scene.scene_id}: {g.width}x{g.height} cells at {g.resolution} m, "
        f"{len(graph_scene.graph.nodes)} graph nodes"
    )
    return 0


def cmd_gen_episodes(args) -> int:
    spec = EpisodeSpec(
        count=args.count,
        length_range=(args.min_length, args.max_length),
        instructions_per_path=args.n,
        seed=args.seed,
    )
    scene = _inputs(args).scene
    episodes = generate_episodes(scene, spec)
    save_episodes(episodes, args.out)
    paths = len(unique_paths(episodes))
    print(f"{len(episodes)} episodes over {paths} paths in {scene.scene_id}")
    return 0


def cmd_gen_tours(args) -> int:
    cfg = _config(args)
    got = _inputs(args)
    episodes = list(got.episodes.values())
    tours = build_tours(episodes, got.scene, cfg.seed)
    save_tours(tours, episodes, args.out)
    print(_stats_block(compute_tour_stats(tours)))
    return 0


def cmd_run(args) -> int:
    cfg = _config(args)
    if args.map_out and cfg.map_mode == "none":
        raise ValueError("--map-out needs --map episodic|iterative|known")
    got = _inputs(args)
    policy = make_policy(cfg.policy, got.scene, got.episodes, cfg)
    try:
        traces, occ_map = run_tours(got.scene, got.tours, got.episodes, policy, cfg, keep_map=bool(args.map_out))
    except (PolicyTimeout, ProtocolViolation) as exc:
        write_traces(exc.partial_traces, args.out)
        print(f"error: policy failed: {exc}", file=sys.stderr)
        print(f"flushed {len(exc.partial_traces)} tour trace(s) to {args.out}", file=sys.stderr)
        return 1
    finally:
        policy.close()
    write_traces(traces, args.out)
    if args.map_out:
        save_map(occ_map, args.map_out)
    print(f"{len(traces)} tours -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _config(args)
    if cfg.geodesic and not args.scene:
        raise ValueError("--geodesic needs --scene")
    got = _inputs(args)
    report = build_report(
        got.traces,
        scene=got.scene,
        success_radius=cfg.success_radius,
        d_th=cfg.d_th,
        geodesic=cfg.geodesic,
        config=cfg.to_dict(),
    )
    if got.scene is not None:  # a goal out of reach makes a row's SPL NaN or its NE infinite
        for row in report.per_episode:
            cause = ("the reference start" if math.isnan(row["spl"]) else
                     "the final position" if math.isinf(row["ne"]) else None)
            if cause:
                raise ValueError(f"tour {row['tour_id']} episode {row['episode_id']}: {cause} does not reach the goal")
    report.save_json(args.out)
    if args.csv:
        report.save_csv(args.csv)
    s = report.summary
    print(f"tours {s['tours']}  episodes {s['episodes']}")
    print(f"t-nDTW {s['t_ndtw']:.1f}")
    print(
        f"TL {s['tl']:.2f}  NE {s['ne']:.2f}  OS {s['os']:.4f}  "
        f"SR {s['sr']:.4f}  SPL {s['spl']:.4f}  nDTW {s['ndtw']:.4f}"
    )
    return 0


def cmd_coverage(args) -> int:
    cfg = _config(args)
    got = _inputs(args)
    model = ObservationModel(radius=cfg.radius, occlusion=cfg.occlusion)
    curve = coverage_curves(got.tours, got.episodes, got.scene, model)
    curve.save_csv(args.out)
    if args.json:
        curve.save_json(args.json)
    print(f"{len(curve.records)} indices over {len(curve.per_tour)} tours -> {args.out}")
    return 0


def cmd_stats(args) -> int:
    stats = compute_tour_stats(_inputs(args).tours)
    print(_stats_block(stats))
    if args.out:
        write_json(args.out, {"format_version": FORMAT_VERSION, **dataclasses.asdict(stats)})
    return 0


def cmd_build_map(args) -> int:
    cfg = _config(args)
    got = _inputs(args)
    for i, trace in enumerate(got.traces):
        occ_map = replay_tour(got.scene, trace, got.episodes, cfg, keep_map=i == len(got.traces) - 1)
    save_map(occ_map, args.out)
    print(f"map snapshot ({cfg.map_mode}) -> {args.out}")
    return 0


class _OnOff(argparse.Action):
    """An ``on``/``off`` choice stored as a bool."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values == "on")


def _add_config_flag(sub):
    sub.add_argument("--config", help="key=value config file (default: $IVLN_CONFIG)")


@functools.cache  # one per process: building it costs about as much as a small command
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ivln", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-env", help="generate a synthetic scene")
    p.add_argument("--rooms", type=int, default=4)
    p.add_argument("--room-min", type=float, default=3.0)
    p.add_argument("--room-max", type=float, default=5.0)
    p.add_argument("--door-width", type=float, default=0.75)
    p.add_argument("--sealed-prob", type=float, default=0.0)
    p.add_argument("--furniture", type=int, default=2)
    p.add_argument("--resolution", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--graph-out", help="also write the navigation-graph twin")
    p.set_defaults(func=cmd_gen_env)

    p = subs.add_parser("gen-episodes", help="sample episodes in a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--n", type=int, default=1, help="instructions per path")
    p.add_argument("--min-length", type=float, default=5.0)
    p.add_argument("--max-length", type=float, default=15.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_episodes)

    p = subs.add_parser("gen-tours", help="partition, order, and expand into tours")
    p.add_argument("--episodes", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    _add_config_flag(p)
    p.set_defaults(func=cmd_gen_tours)

    p = subs.add_parser("run", help="execute a policy over tours")
    p.add_argument("--scene", required=True)
    p.add_argument("--tours", required=True)
    p.add_argument("--episodes", required=True)
    p.add_argument("--policy", help="oracle | noisy:<p> | random | stop | ext:<cmd> | tcp:<host>:<port>")
    p.add_argument("--map", choices=("none", *MAP_MODES), dest="map_mode")
    p.add_argument("--map-out", help="write the final tour's map snapshot")
    p.add_argument("--max-steps", type=_max_steps, dest="max_steps", default=argparse.SUPPRESS,
                   help="agent steps per episode; none for the per-kind default")
    p.add_argument("--step-timeout", type=float, dest="step_timeout")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    _add_config_flag(p)
    p.set_defaults(func=cmd_run)

    p = subs.add_parser("eval", help="score a trace file")
    p.add_argument("--traces", required=True)
    p.add_argument("--tours")
    p.add_argument("--episodes", required=True, help="the episode file, which gives each trace its reference path")
    p.add_argument("--scene")
    p.add_argument("--d-th", type=float, dest="d_th")
    p.add_argument("--success-radius", type=float, dest="success_radius")
    p.add_argument("--geodesic", action="store_const", const=True, default=None,
                   help="geodesic point metric for the alignment score")
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="also write per-episode rows")
    _add_config_flag(p)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("coverage", help="oracle-observation coverage curves")
    p.add_argument("--tours", required=True)
    p.add_argument("--episodes", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--radius", type=float)
    p.add_argument("--occlusion", choices=["on", "off"], action=_OnOff)
    p.add_argument("--out", required=True)
    p.add_argument("--json", help="also write per-tour detail")
    _add_config_flag(p)
    p.set_defaults(func=cmd_coverage)

    p = subs.add_parser("stats", help="tour corpus statistics")
    p.add_argument("--tours", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = subs.add_parser("build-map", help="replay a trace into a map snapshot")
    p.add_argument("--scene", required=True)
    p.add_argument("--traces", required=True)
    p.add_argument("--episodes", required=True)
    p.add_argument("--mode", choices=MAP_MODES, default="iterative", dest="map_mode")
    p.add_argument("--out", required=True)
    _add_config_flag(p)
    p.set_defaults(func=cmd_build_map)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IvlnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
