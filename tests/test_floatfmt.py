"""floatfmt.format_cells against ``repr``, cell by cell, byte for byte."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridloop import floatfmt

_LF = floatfmt.separator(b"\n")


def _format(cells) -> bytes:
    x = np.ascontiguousarray(cells, dtype=np.float64)
    return floatfmt.format_cells(x, np.array([x.size - 1]), _LF)


def _repr(cells) -> bytes:
    return (",".join(map(repr, np.asarray(cells, dtype=np.float64).tolist())) + "\n").encode()


def _assert_repr(cells) -> None:
    got, want = _format(cells).decode().split(","), _repr(cells).decode().split(",")
    bad = [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad and len(got) == len(want), f"{len(bad)} cells differ, first {bad[:3]}"


def _bits(sign: int, exponent: int, fraction: int) -> float:
    return float(np.array([sign << 63 | exponent << 52 | fraction], np.uint64).view(np.float64)[0])


# Every biased exponent (0: zeros and subnormals, 2047: infinities and NaNs
# with any payload), either sign, any fraction, fraction 0 (the asymmetric
# interval) and the fractions next to it.
_CELL = st.builds(
    _bits,
    st.integers(0, 1),
    st.integers(0, 2047),
    st.one_of(st.integers(0, 2**52 - 1), st.sampled_from((0, 1, 2**52 - 1))),
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(cells=st.lists(_CELL, min_size=1, max_size=40))
@example(cells=[0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, 4.94e-323])
def test_cells_match_repr_on_raw_bit_patterns(cells):
    _assert_repr(cells)


def _neighbours(x: np.ndarray) -> np.ndarray:
    x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
    return np.concatenate([x, -x])


def test_cells_match_repr_at_powers_and_switches():
    tens = 10.0 ** np.arange(-323, 309)
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    _assert_repr(_neighbours(tens))
    _assert_repr(_neighbours(twos))
    # The fixed/exponent switch on both sides, the extremes, and the double
    # near 4.94e-323 that repr writes as 5e-323 (plain Schubfach: 4.9e-323).
    _assert_repr(_neighbours(np.array([1e-4, 1e16, 1e-5, 1e15, 9.999999999999999e-5, 9999999999999998.0])))
    _assert_repr([5e-324, 1e-323, 4.94e-323, 2.2250738585072014e-308, 2.225073858507201e-308,
                  1.7976931348623157e308, -1.7976931348623157e308])


def test_cells_match_repr_on_exact_ties():
    # Integers from 2^53 up: the rounding interval's ends and midpoints are
    # integers, so the digits can tie exactly. The odd significands whose
    # interval ends on a multiple of 10^j must not take that shorter decimal.
    _assert_repr(2.0**53 + 2 * np.arange(-50, 400))
    _assert_repr(2.0**60 + 2**8 * np.arange(-50, 400))
    odd_ends = []
    for e in range(54, 60):
        ulp = 2 ** (e - 52)
        for j in range(1, 6):
            for b in range(-(-(2**e) // 10**j) * 10**j, 2**e + 300 * 10**j, 10**j):
                odd_ends += [x for x in (b - ulp // 2, b + ulp // 2) if x % ulp == 0 and x // ulp % 2]
    assert len(odd_ends) > 100
    _assert_repr(np.array(odd_ends, dtype=np.float64))
    _assert_repr(np.arange(1, 4000) / 64.0)


def test_cells_match_repr_in_bulk():
    rng = np.random.default_rng(29)
    _assert_repr(rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64))
    _assert_repr(rng.standard_normal(100_000) * 10.0 ** rng.integers(-30, 30, 100_000))
    _assert_repr(np.round(rng.standard_normal(100_000) * 100, 4))
    _assert_repr(rng.integers(-(10**17), 10**17, 50_000).astype(np.float64))


def test_tables_hold_the_decimal_exponents():
    # k = floor(log10 2^q), or floor(log10 (3/4) 2^q) for the asymmetric
    # interval, checked in rationals over every normal exponent.
    k = floatfmt._SCALE[6] - 17 - floatfmt._DECPT_OFF
    for col in range(4096):
        e = col % 2048
        if e in (0, 2047):
            continue
        width = Fraction(3 if col >= 2048 and e > 1 else 4, 4) * Fraction(2) ** (e - 1075)
        assert Fraction(10) ** int(k[col]) <= width < Fraction(10) ** int(k[col] + 1), col


@pytest.mark.parametrize("text", [b"", b"\r\n\r\n", b"\0", b";e"])
def test_separator_rejects_what_it_cannot_hold(text):
    # At most two bytes, none a NUL (dropped with the padding) or a byte of
    # some cell's text (rows are split on it).
    with pytest.raises(ValueError, match="row end"):
        floatfmt.separator(text)
