"""ctcfst: blank-regularized CTC training graphs over weighted FSTs.

Builds CTC topology and training graphs (standard, soft self-loop penalty,
hard repeat bound), computes exact losses and gradients, analyzes
blank-frame skipping, and runs small synthetic training experiments.
"""

from .errors import (
    CtcFstError,
    InfeasibleAlignmentError,
    NoPathError,
    TrainingDivergedError,
)
from .fsa import (
    BLANK,
    EPSILON,
    TERMINAL,
    Arc,
    Fst,
    compose,
    connect,
    fst_from_text,
    fst_to_text,
    log_add,
    log_sum,
)
from .lattice import (
    Lattice,
    arc_posteriors,
    backward_scores,
    best_path,
    forward_scores,
    intersect_dense,
    iterate_paths,
    total_score,
)
from .loss import (
    LossResult,
    brute_force_loss,
    ctc_loss,
    ctc_loss_alpha,
    format_matrix,
    grad_check,
    greedy_decode,
    log_softmax,
    parse_matrix,
)
from .skip import (
    REFERENCE_CORPUS_GAMMA_MAX,
    SWEEP_BETAS,
    SweepPoint,
    classify_blank_frames,
    gamma_max,
    sweep_thresholds,
)
from .topology import (
    STANDARD,
    TopologyVariant,
    build_chain,
    build_linear_graph,
    build_topology,
    build_training_graph,
    collapse_ctc,
    enumerate_alignments,
    hard,
    soft,
)
from .toy import (
    DEFAULT_RUNS,
    CorpusConfig,
    ExperimentReport,
    RunSpec,
    SyntheticCorpus,
    ToyModel,
    Utterance,
    edit_distance,
    evaluate,
    generate_corpus,
    min_alignment_length,
    run_experiment,
    token_means,
    train,
)

__version__ = "0.1.0"
