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
    format_matrix,
    fst_to_text,
    parse_matrix,
)
from .loss import (
    LossResult,
    ctc_loss,
    grad_check,
    greedy_decode,
    log_softmax,
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
    build_topology,
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
from . import lattice, reference  # the test oracles: bound as submodules, names not re-exported

__version__ = "0.1.0"
