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

# Public names and their defining modules.  A module is imported on first
# access to one of its names (PEP 562), so ``import catlr`` loads none of
# them and the CLI loads only what a command runs.
_MODULE_OF = {
    name: module
    for module, names in {
        "engine": (
            "NO_SMOOTHING",
            "SmoothingPolicy",
            "conditional_probability",
            "full_table_lrs",
            "likelihood_ratio",
            "lr_from_error_rates",
            "presentation_round",
        ),
        "ingest": (
            "IngestError",
            "emit_aggregated",
            "load_table",
            "parse_aggregated",
        ),
        "interpret": (
            "BUNDLED_SCALES",
            "VerbalScale",
            "bundled_scale",
            "hardness_adjust",
            "load_scale",
            "posterior_probability",
            "verbal_label",
        ),
        "model": (
            "ConfusionTable",
            "DataError",
            "EvaluationRecord",
            "GroundTruth",
            "LrEstimate",
        ),
        "records": (
            "parse_records",
            "tally",
            "tally_csv",
        ),
        "report": (
            "build_report",
            "read_display_fixture",
            "render_lr_table",
            "render_summary_table",
        ),
        "simulate": (
            "PanelProfile",
            "RecordBatch",
            "emit_records",
            "load_profile",
            "simulate_study",
            "true_lr",
        ),
        "uncertainty": (
            "Interval",
            "bootstrap_interval",
            "dirichlet_interval",
            "zero_count_lower_bound",
        ),
    }.items()
    for name in names
}

# Submodules reachable as attributes of a bare ``import catlr``.
_SUBMODULES = {*_MODULE_OF.values(), "betaratio", "binomratio"}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)  # the import binds it here
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
