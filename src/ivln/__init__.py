"""Tours, rollouts, maps, and metrics for iterative instruction-following.

The pipeline: ``syngen`` (or converted real data) produces scenes and
episodes, ``tourgen`` orders episodes into tours, ``harness`` runs a
policy through them with oracle corrections, ``mapper`` accumulates
semantic-occupancy maps along the way, and ``metrics`` / ``coverage``
score and analyze the resulting traces.
"""

from .environment import (
    GridWorld,
    NavGraph,
    Point3,
    Pose,
    Scene,
    connectivity_matrix,
    euclidean,
    geodesic_distance,
    load_scene,
    save_scene,
    shortest_path,
)
from .errors import (
    Disconnected,
    DimensionMismatch,
    EmptySequence,
    InstructionCountMismatch,
    IvlnError,
    MissingEpisode,
    PolicyTimeout,
    ProtocolViolation,
    SamplingExhausted,
    SizeLimit,
    SnapFailure,
    SpecInfeasible,
    UnsupportedScene,
)
from .tourgen import (
    Episode,
    PathGroup,
    Tour,
    TourStats,
    build_tours,
    compute_tour_stats,
    expand_instruction_tours,
    held_karp_exact,
    load_episodes,
    load_tours,
    order_paths,
    partition_paths,
    save_episodes,
    save_tours,
    solve_atsp,
    unique_paths,
)
from .metrics import (
    EpisodeTrace,
    MetricReport,
    OracleSegment,
    TourTrace,
    aggregate_t_ndtw,
    build_report,
    dtw,
    episodic_metrics,
    ndtw,
    read_traces,
    scale_score,
    tour_dtw,
    tour_ndtw,
    write_traces,
)
from .mapper import (
    CameraIntrinsics,
    SemanticOccMap,
    crop_egocentric,
    integrate,
    known_map,
    load_map,
    save_map,
)
from .harness import (
    AgentAction,
    ExternalPolicy,
    NoisyOraclePolicy,
    Observation,
    OraclePolicy,
    Policy,
    RandomPolicy,
    StopPolicy,
    make_policy,
    run_tour,
    run_tours,
)
from .coverage import CoverageCurve, ObservationModel, coverage_curves, observed_cells
from .syngen import EpisodeSpec, FloorplanSpec, generate_episodes, generate_scene
from .config import Config, resolve_config

__version__ = "0.1.0"
