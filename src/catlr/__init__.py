"""catlr — likelihood ratios for categorical expert-witness statements.

Black-box performance studies record categorical conclusions (e.g.
identification, levels of inconclusive, elimination) for comparison pairs
of known ground truth.  This package tallies such data, computes the
likelihood ratio each statement carries (P(statement | same source) over
P(statement | different source)), quantifies sampling uncertainty, and
renders tables plus downstream interpretations (posterior probabilities,
hardest-fraction sensitivity, verbal strength labels).

The command-line entry point is ``catlr`` (see ``catlr --help``).
"""

from .engine import (
    NO_SMOOTHING,
    SmoothingPolicy,
    conditional_probability,
    full_table_lrs,
    likelihood_ratio,
    lr_from_error_rates,
    presentation_round,
)
from .ingest import (
    IngestError,
    emit_aggregated,
    emit_records,
    load_table,
    parse_aggregated,
    parse_records,
    tally,
    tally_csv,
)
from .interpret import (
    BUNDLED_SCALES,
    VerbalScale,
    bundled_scale,
    hardness_adjust,
    load_scale,
    posterior_probability,
    verbal_label,
)
from .model import (
    ConfusionTable,
    DataError,
    EvaluationRecord,
    GroundTruth,
    LrEstimate,
    RecordBatch,
)
from .report import (
    build_report,
    read_display_fixture,
    render_lr_table,
    render_summary_table,
)
from .simulate import PanelProfile, load_profile, simulate_study, true_lr
from .uncertainty import (
    Interval,
    bootstrap_interval,
    dirichlet_interval,
    zero_count_lower_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BUNDLED_SCALES",
    "ConfusionTable",
    "DataError",
    "EvaluationRecord",
    "GroundTruth",
    "IngestError",
    "Interval",
    "LrEstimate",
    "NO_SMOOTHING",
    "PanelProfile",
    "RecordBatch",
    "SmoothingPolicy",
    "VerbalScale",
    "bootstrap_interval",
    "build_report",
    "bundled_scale",
    "conditional_probability",
    "dirichlet_interval",
    "emit_aggregated",
    "emit_records",
    "full_table_lrs",
    "hardness_adjust",
    "likelihood_ratio",
    "load_profile",
    "load_scale",
    "load_table",
    "lr_from_error_rates",
    "parse_aggregated",
    "parse_records",
    "posterior_probability",
    "presentation_round",
    "read_display_fixture",
    "render_lr_table",
    "render_summary_table",
    "simulate_study",
    "tally",
    "tally_csv",
    "true_lr",
    "verbal_label",
    "zero_count_lower_bound",
]
