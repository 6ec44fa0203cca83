import math
from fractions import Fraction
from pathlib import Path

import pytest

from catlr import fixtures

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture
def bullets():
    """The bundled bullet-study confusion table (row totals 1429 / 2891)."""
    return fixtures.bullets_table()


@pytest.fixture
def golden():
    def read(name: str) -> str:
        return (GOLDEN_DIR / name).read_text(encoding="utf-8")

    return read


@pytest.fixture(scope="session")
def exact_display():
    """The display of an exact ratio (a Fraction, ``math.inf`` or None),
    rounded half-up in rationals: an oracle for ``presentation_round``."""

    def display(exact) -> str:
        if exact is None:
            return "undefined"
        if exact == math.inf:
            return "∞"
        if exact >= 1:
            return str(math.floor(exact + Fraction(1, 2)))
        if exact == 0:
            return "0"
        reciprocal = math.floor(1 / exact + Fraction(1, 2))
        return "1" if reciprocal == 1 else f"1 / {reciprocal}"

    return display
