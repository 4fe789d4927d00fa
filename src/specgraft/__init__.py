"""Speculative decoding with prune-then-graft hybrid draft trees, desk scale."""

from .drafttree import (
    HybridTree,
    PruneConfig,
    PruneDecision,
    evaluate_gate,
    resolve_stage,
)
from .engine import (
    AblationFixture,
    CalibrationResult,
    CostModel,
    DecodeConfig,
    DecodeReport,
    build_next_tree,
    calibrate,
    compute_metrics,
    coverage_gain,
    decode_session,
    run_ablation,
    theory_checks,
)
from .errors import AnalysisError, ConfigError, InputError, SpecGraftError, StructureError
from .hybrid import (
    flatten,
    merge,
    render_tree,
)
from .models import (
    DraftDerivation,
    MarkovTableModel,
    VocabSpec,
    build_markov,
    derive_draft,
    train_ngram,
)
from .retrieval import (
    StageTemplate,
    TransitionMatrix,
    builtin_templates,
    instantiate,
    load_matrix,
    new_matrix,
    save_matrix,
    storage_bytes,
    warmup,
)
from .verify import VerifyOutcome, verify_greedy, verify_stochastic

__version__ = "0.1.0"
