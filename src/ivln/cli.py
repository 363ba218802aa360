"""Command-line entry point.

Subcommands cover the full pipeline: gen-env and gen-episodes produce
synthetic inputs, gen-tours orders them into tours, run executes a
policy over the tours, eval scores the traces, coverage and stats emit
plot-ready CSV, and build-map replays a trace into a map snapshot.

Exit codes: 0 success, 1 policy failure during run (partial traces are
flushed first), 2 unreadable or invalid input, 3 infeasible request.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
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

# json.JSONDecodeError is a ValueError
_PARSE_ERRORS = (OSError, KeyError, ValueError, TypeError)


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


def _config_from_args(args, keys) -> Config:
    # a flag left out is either absent from args or None
    overrides = {key: getattr(args, key) for key in keys if hasattr(args, key)}
    return resolve_config(getattr(args, "config", None), overrides)


def _max_steps(raw: str) -> int | None:
    """``--max-steps`` value: a step count, or none for the per-kind default."""
    if raw.strip().lower() in ("none", "null"):
        return None
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a step count or none, got {raw!r}") from None


def _check_scene(scene, episodes_path, episodes, tours_path=None, tours=()) -> None:
    """Raise ValueError naming the file, the record and both ids for the
    first episode, then tour, that belongs to a scene other than ``scene``."""
    named = [(episodes_path, f"episode {ep.episode_id}", ep.scene_id) for ep in episodes]
    named += [(tours_path, f"tour {tour.tour_id}", tour.scene_id) for tour in tours]
    for path, record, scene_id in named:
        if scene_id != scene.scene_id:
            raise ValueError(f"{path}: {record} belongs to scene {scene_id!r}, not to {scene.scene_id!r}")


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
    scene = load_scene(args.scene)
    episodes = generate_episodes(scene, spec)
    save_episodes(episodes, args.out)
    paths = len(unique_paths(episodes))
    print(f"{len(episodes)} episodes over {paths} paths in {scene.scene_id}")
    return 0


def cmd_gen_tours(args) -> int:
    cfg = _config_from_args(args, ("seed",))
    scene = load_scene(args.scene)
    episodes = load_episodes(args.episodes)
    _check_scene(scene, args.episodes, episodes)
    if not episodes:
        raise EmptySequence(f"no episodes in {args.episodes}")
    tours = build_tours(episodes, scene, cfg.seed)
    save_tours(tours, episodes, args.out)
    print(_stats_block(compute_tour_stats(tours)))
    return 0


def cmd_run(args) -> int:
    cfg = _config_from_args(args, ("seed", "policy", "map_mode", "max_steps", "step_timeout"))
    if args.map_out and cfg.map_mode == "none":
        raise ValueError("--map-out needs --map episodic|iterative|known")
    scene = load_scene(args.scene)
    episodes_by_id = {ep.episode_id: ep for ep in load_episodes(args.episodes)}
    tours = load_tours(args.tours)
    _check_scene(scene, args.episodes, episodes_by_id.values(), args.tours, tours)
    if not tours:
        raise EmptySequence(f"no tours in {args.tours}")
    policy = make_policy(cfg.policy, scene, episodes_by_id, cfg)
    try:
        traces, occ_map = run_tours(scene, tours, episodes_by_id, policy, cfg, keep_map=bool(args.map_out))
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


def cmd_eval(args) -> int:
    cfg = _config_from_args(args, ("d_th", "success_radius", "geodesic"))
    if cfg.geodesic and not args.scene:
        raise ValueError("--geodesic needs --scene")
    scene = load_scene(args.scene) if args.scene else None
    episodes_by_id = {ep.episode_id: ep for ep in load_episodes(args.episodes)}
    tours = load_tours(args.tours) if args.tours else []
    if scene is not None:
        _check_scene(scene, args.episodes, episodes_by_id.values(), args.tours, tours)
    traces = read_traces(args.traces, episodes_by_id)
    if not traces:
        raise EmptySequence(f"no tour traces in {args.traces}")
    if args.tours:
        _check_complete(tours, traces)
    report = build_report(
        traces,
        scene=scene,
        success_radius=cfg.success_radius,
        d_th=cfg.d_th,
        geodesic=cfg.geodesic,
        config=cfg.to_dict(),
    )
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
    cfg = _config_from_args(args, ("radius",))
    if args.occlusion is not None:
        cfg.occlusion = args.occlusion == "on"
    scene = load_scene(args.scene)
    episodes_by_id = {ep.episode_id: ep for ep in load_episodes(args.episodes)}
    tours = load_tours(args.tours)
    _check_scene(scene, args.episodes, episodes_by_id.values(), args.tours, tours)
    if not tours:
        raise EmptySequence(f"no tours in {args.tours}")
    model = ObservationModel(radius=cfg.radius, occlusion=cfg.occlusion)
    curve = coverage_curves(tours, episodes_by_id, scene, model)
    curve.save_csv(args.out)
    if args.json:
        curve.save_json(args.json)
    print(f"{len(curve.records)} indices over {len(curve.per_tour)} tours -> {args.out}")
    return 0


def cmd_stats(args) -> int:
    tours = load_tours(args.tours)
    if not tours:
        raise EmptySequence(f"no tours in {args.tours}")
    stats = compute_tour_stats(tours)
    print(_stats_block(stats))
    if args.out:
        write_json(args.out, {"format_version": FORMAT_VERSION, **dataclasses.asdict(stats)})
    return 0


def cmd_build_map(args) -> int:
    cfg = dataclasses.replace(_config_from_args(args, ()), map_mode=args.mode)
    scene = load_scene(args.scene)
    episodes_by_id = {ep.episode_id: ep for ep in load_episodes(args.episodes)}
    _check_scene(scene, args.episodes, episodes_by_id.values())
    traces = read_traces(args.traces, episodes_by_id)
    if not traces:
        raise EmptySequence(f"no tour traces in {args.traces}")
    for i, trace in enumerate(traces):
        occ_map = replay_tour(scene, trace, episodes_by_id, cfg, keep_map=i == len(traces) - 1)
    save_map(occ_map, args.out)
    print(f"map snapshot ({args.mode}) -> {args.out}")
    return 0


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
    p.add_argument("--occlusion", choices=["on", "off"])
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
    p.add_argument("--mode", choices=MAP_MODES, default="iterative")
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
