"""Bundled datasets.

``bullets.csv`` holds the aggregated tally of a published black-box
firearm-examiner (bullet comparison) study and is the end-to-end fixture:
its LR table is fully derivable from the counts.

The summary and appendix files store *published display values* for five
further study families (bloodstain patterns, handwriting, footwear,
cartridge cases, latent fingerprints).  Their underlying counts are not
available here, so they serve as formatting-regression data only — never
as inputs to the LR engine.
"""

from __future__ import annotations

import os

from .ingest import _read_input, load_table
from .model import ConfusionTable, DataError
from .report import read_display_fixture

APPENDIX_STUDIES = ("bloodstain", "handwriting", "footwear", "cartridge", "fingerprint")

_DATA = os.path.join(os.path.dirname(__file__), "data")
_BULLETS = os.path.join(_DATA, "bullets.csv")


def bullets_csv() -> str:
    """Raw text of the bundled aggregated bullet-study table."""
    return _read_input(_BULLETS, lambda lines: lines.read())


def bullets_table() -> ConfusionTable:
    return load_table(_BULLETS)


def published_summary() -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    """(headers, rows) of published identification/exclusion display values."""
    return _read_input(os.path.join(_DATA, "summary_published.csv"), read_display_fixture)


def appendix_table(study: str) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    """(headers, rows) of one study's published per-statement display values."""
    if study not in APPENDIX_STUDIES:
        raise DataError(f"unknown appendix study {study!r}; have {APPENDIX_STUDIES}")
    return _read_input(os.path.join(_DATA, "appendix", f"{study}.csv"), read_display_fixture)
