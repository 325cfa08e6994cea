"""Shortest round-trip text of float64 cells, a block at a time: the bytes
``float.__repr__`` gives, without one ``repr`` call per cell.

The digits follow Schubfach (Giulietti, "The Schubfach way to render
doubles", 2020). A finite nonzero x = c 2^q (c the 53-bit significand) is
scaled by 10^-k, with k = floor(log10 2^q) (or of 3/4 2^q when c = 2^52 and
the gap below x is half the gap above), to V = c 2^q 10^-k in [2^52, 2^57).
In those units the interval of reals that round to x is [V - hl, V + h]
with h = 2^q 10^-k / 2 and hl = h (or h / 2), of width in [1, 10), so it
holds s = floor(V) or s + 1 and at most one multiple of ten. With r = s mod
10, the shortest digits are s - r or s - r + 10 when one of them lies in
the interval, else whichever of s and s + 1 does, the nearer to V when both
do. Python's ``repr`` (Gay's correctly rounded shortest conversion) picks the
same digits. Layout then follows ``repr``: fixed notation for 1e-4 <= |x| <
1e16 with at least one digit after the point, otherwise ``d.ddde±XX``.

V is computed in double-double float64, not with 128-bit products: the
exact (Dekker) product of c with the high part of a 10^-k table, plus c
times its low part. Every decision compares V's fraction f = V - s (or f + r)
with a threshold; a cell whose comparison falls within ``MARGIN`` of its
threshold, and every subnormal, is handed to ``repr`` (in the manner of
Grisu's certified fast path; Loitsch, PLDI 2010). Exact ties (f = 1/2 or a
boundary exactly on an integer) occur only where V is exact, for integers
near 2^53 and above and short binary fractions.

Text is laid out in six 8-byte words per cell, NUL-padded, and one
``bytes.translate`` drops the NULs:

- word 0: the prefix (``-``, ``0.``, ``0.000``), the lead digit and the
  point's slot after it;
- words 1 to 4: four digits each, as ``d.d.d.d.`` from a table of the 10^4
  chunks, ANDed with a mask that keeps the digits shown and the one point;
- word 5: the exponent (``e-05``) or ``.0``, then the separator.

Tables are built from Python integers at import.
"""

from __future__ import annotations

import math

import numpy as np

# Decimal exponents k of the scaling 10^-k over all normal doubles.
_K_MIN, _K_MAX = -324, 292
# decpt (x = 0.d1d2... 10^decpt) is offset by this to index ``_EXP`` and
# ``_DC``; normal doubles take indices 23 to 639. Below them, two slots each
# for zeros, infinities and NaNs.
_DECPT_OFF = 330
_ZERO, _INF, _NAN = 0, 2, 4

# Error of the computed V (units of V, V < 2^57): the 10^-k table's
# double-double is within 2^-106 of the power (relative), and so is the
# rounding of c times its low part, each < 2^-49 absolute; the sum of the
# Dekker error and that product (|.| < 24) rounds by < 2^-49. So
# |V_computed - V| < 3 2^-49 < 2^-47, and f = V - floor(V) inherits it. A
# decision value (f - hl, f - (1 - h), f - 1/2, then + r, - 9) takes at most
# three roundings of operands below 16, < 2^-50 each, and a threshold
# rounded by < 2^-50: it is off by less than 2^-47 + 4 2^-50 < 2^-46.
# Deciding only outside 2^-44 leaves a factor of four.
MARGIN = 2.0**-44


def _words(texts) -> np.ndarray:
    """Each byte string NUL-padded to a whole number of 8-byte words, as uint64."""
    return np.frombuffer(b"".join(t.ljust(-(-len(t) // 8) * 8 or 8, b"\0") for t in texts), np.uint64)


def _pow10():
    """``(hi, lo, F)`` per k in [_K_MIN, _K_MAX]: 10^-k ≈ (hi + lo) 2^F, hi
    in [1, 2), within 2^-106 relative (a 128-bit quotient of Python ints,
    rounded to a high double and the rest)."""
    his, los, exps = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            n = 10**-k
            f = n.bit_length() - 1
            t = n << (127 - f) if f <= 127 else n >> (f - 127)
        else:
            d = 10**k
            f = -d.bit_length()
            t = (1 << (127 - f)) // d
        hi = float(t)
        his.append(math.ldexp(hi, -127))
        los.append(math.ldexp(float(t - int(hi)), -127))
        exps.append(f)
    return np.array(his), np.array(los), np.array(exps)


def _scale_table() -> np.ndarray:
    """Per biased exponent e, plus 2048 when the significand is 2^52 (the
    asymmetric interval; only for e > 1): the scaled 10^-k as ``m`` (= its
    Veltkamp split ``m_hi + m_lo``) and ``ml``, the thresholds ``hl`` and
    ``1 - h``, and k + 17 + _DECPT_OFF. The scale 2^(q + F) is folded in,
    so V = c (m + ml). Subnormals get NaN thresholds, which no comparison
    passes."""
    his, los, exps = _pow10()
    e = np.arange(4096) % 2048
    asym = (np.arange(4096) >= 2048) & (e > 1)
    q = np.clip(e, 1, 2046) - 1075
    # Schubfach's floor(log10 2^q) and floor(log10 (3/4) 2^q), exact for |q| < 5456721.
    k = (q * 661971961083 - asym * 274743187321) >> 41
    sc = exps[k - _K_MIN] + q
    table = np.empty((7, 4096))
    m, m_hi, m_lo, ml, hl, one_minus_h, dp = table
    np.ldexp(his[k - _K_MIN], sc, out=m)
    np.multiply(m, 134217729.0, out=m_lo)
    np.subtract(m_lo, m, out=m_hi)
    np.subtract(m_lo, m_hi, out=m_hi)
    np.subtract(m, m_hi, out=m_lo)
    np.ldexp(los[k - _K_MIN], sc, out=ml)
    np.ldexp(m, -1, out=one_minus_h)
    np.ldexp(one_minus_h, -asym.astype(int), out=hl)
    np.subtract(1.0, one_minus_h, out=one_minus_h)
    np.add(k, 17.0 + _DECPT_OFF, out=dp)
    table[4:6, e == 0] = np.nan
    # Zeros, infinities, NaNs: V = 0, every decision 1/2 or more from its
    # threshold, and a decpt slot of their own (d = 1 is padded once).
    for col, slot in ((2048, _ZERO), (4095, _INF), (2047, _NAN)):
        table[:, col] = [0.0, 0.0, 0.0, 0.0, -1.0, -1.0, slot + 1]
    return table


_SCALE = _scale_table()


def _digit_words() -> np.ndarray:
    """The four digits of each v < 10^4 at the even bytes of a word, '.'
    at every odd byte; then the lead-digit words (the digit at byte 6, '.'
    at byte 7), from index ``_LEAD``."""
    v = np.arange(10**4, dtype=np.int16)[:, None]
    chunks = np.full((10**4, 8), ord("."), np.uint8)
    chunks[:, ::2] = v // np.array([1000, 100, 10, 1], np.int16) % 10
    chunks[:, ::2] += ord("0")
    leads = np.zeros((10, 8), np.uint8)
    leads[:, 6] = ord("0") + np.arange(10)
    leads[:, 7] = ord(".")
    return np.concatenate([chunks, leads]).view(np.uint64).ravel()


def _npos() -> np.ndarray:
    """Per chunk position i (digits 2 + 4i .. 5 + 4i) and value v, at
    i 10^4 + v: twice the index of its last nonzero digit (0 for v = 0), so
    the maximum over a cell's chunks is 2 (n - 1), n its number of
    significant digits."""
    v = np.arange(10**4, dtype=np.int16)
    kept = np.full(10**4, 4, np.uint8)
    for j in range(1, 5):
        kept -= v % 10**j == 0
    return (2 * (4 * np.arange(4, dtype=np.uint8)[:, None] + kept) * (v > 0)).ravel()


_DIGITS = _digit_words()
_LEAD = 10**4
_NPOS = _npos()
_NPOS_AT = (np.arange(4) * 10**4)[:, None]

# decpt is clipped to [_DC_LO, _DC_HI] for the layout: the ends stand for
# exponent notation (decpt <= -4 or > 16), the rest are fixed. Each clipped
# decpt has a layout column per digit count n (1 to 17) and sign.
_DC_LO, _DC_HI = -4, 17
_PER_DC = 2 * 17


def _layout() -> np.ndarray:
    """Seven words per (clipped decpt, n, sign): word 0's prefix, the AND
    masks of words 0 to 4 (digits shown, the one point kept) and the ``.0``
    suffix. Column ``(dc - _DC_LO) _PER_DC + 2 (n - 1) + sign``; after them
    the texts of zero, infinity and NaN, _PER_DC columns each."""
    cols = []
    for dc in range(_DC_LO, _DC_HI + 1):
        fixed = _DC_LO < dc < _DC_HI
        for n in range(1, 18):
            prefix, suffix, shown, point = b"", b"", n, 0
            if fixed and dc <= 0:
                prefix = b"0." + b"0" * -dc
            elif fixed and dc < n:
                point = dc
            elif fixed:
                shown, suffix = dc, b".0"
            elif n > 1:
                point = 1
            mask = b"\xff" * 7 + (b"\xff" if point == 1 else b"\0")
            for t in range(2, 18):
                mask += (b"\xff" if t <= shown else b"\0") + (b"\xff" if point == t else b"\0")
            for sign in (b"", b"-"):
                cols.append((sign + prefix, mask, suffix))
    for texts in ((b"0.0", b"-0.0"), (b"inf", b"-inf"), (b"nan", b"nan")):
        cols += [(text, b"\xff" * 6 + b"\0" * 34, b"") for _ in range(17) for text in texts]
    return np.stack([_words(c[0] for c in cols), *_words(c[1] for c in cols).reshape(-1, 5).T,
                     _words(c[2] for c in cols)])


_LAYOUT = _layout()


def _decpt_tables():
    """Per decpt + _DECPT_OFF: the exponent word (``e-05``; empty where
    fixed) and the layout column of the clipped decpt, sign and n aside."""
    decpts = range(-_DECPT_OFF, _DECPT_OFF)
    exp = _words(b"" if _DC_LO < d < _DC_HI else b"e%+03d" % (d - 1) for d in decpts).copy()
    dc = np.array([(min(max(d, _DC_LO), _DC_HI) - _DC_LO) * _PER_DC for d in decpts])
    for n, slot in enumerate((_ZERO, _INF, _NAN)):
        exp[slot : slot + 2] = 0
        dc[slot : slot + 2] = (_DC_HI - _DC_LO + 1 + n) * _PER_DC
    return exp, dc


_EXP, _DC = _decpt_tables()

_SEP_AT = 6


def separator(text: bytes) -> np.uint64:
    """A word 5 with ``text`` in its separator slot: one or two bytes, no
    NUL (dropped with the padding) and none that a cell's text holds (rows
    are found by it)."""
    if not 1 <= len(text) <= 8 - _SEP_AT or any(byte in b"\0,.+-0123456789aefin" for byte in text):
        raise ValueError(f"row end {text!r} is not one or two bytes outside a cell's text")
    return _words([b"\0" * _SEP_AT + text])[0]


_COMMA = _words([b"\0" * _SEP_AT + b","])[0]


def format_cells(x: np.ndarray, ends: np.ndarray, end: np.uint64) -> bytes:
    """The ``repr`` of each cell of the float64 array ``x``, each followed
    by ``,``, or by ``end`` (a :func:`separator` word) at the indices
    ``ends``, in one bytes object."""
    bits = x.view(np.int64)
    d, decpt, unsure = _shortest(bits)
    words = _words_of(d, decpt, bits < 0)
    del d, decpt
    # Each temporary is dropped once used: what is held is about 160 bytes a cell.
    odd = np.flatnonzero(~(unsure >= MARGIN))  # NaN (subnormals) included
    del unsure
    if odd.size:
        _patch(words, x, odd)
    words[5] |= _COMMA
    words[5, ends] ^= _COMMA ^ end
    text = words.T.tobytes()
    del words
    return text.translate(None, b"\0")


def _shortest(bits: np.ndarray):
    """Per cell: the shortest digits as a 17-digit integer d (zeros padded
    on the right), decpt + _DECPT_OFF, and the distance of the nearest
    decision to its threshold (NaN for subnormals)."""
    frac = bits & ((1 << 52) - 1)
    idx = np.equal(frac, 0).view(np.int8).astype(np.int64)
    idx <<= 11
    idx += (bits >> 52) & 0x7FF
    scale = _SCALE.take(idx, axis=1)
    del idx
    m, m_hi, m_lo, ml = scale[:4]

    # V = c (m + ml) = P + E: Dekker's exact product c m = P + err with
    # Veltkamp splits (c < 2^53, so no overflow), then err + c ml.
    c = frac.astype(np.float64)
    del frac
    c += 2.0**52
    c_hi = c * 134217729.0
    c_lo = c_hi - c
    c_hi -= c_lo
    np.subtract(c, c_hi, out=c_lo)
    P = c * m
    E = c_hi * m_hi
    E -= P
    E += c_hi * m_lo
    E += c_lo * m_hi
    E += c_lo * m_lo
    del c_hi, c_lo
    E += c * ml
    del c
    # s = floor(V) = P + floor(E) (P >= 2^52 is an integer); f = V - s.
    s = np.floor(E)
    E -= s
    s = s.astype(np.int64)
    s += P.astype(np.int64)
    del P
    sp10 = s // 10
    sp10 *= 10
    s -= sp10
    r = s

    # Signs of f - hl (s in), f - (1 - h) (s + 1 in), f - 1/2 (s + 1 nearer),
    # f + r - hl (s - r in), f + r - (10 - h) (s - r + 10 in).
    D = np.empty((5, bits.size))
    np.subtract(E, scale[4:6], out=D[:2])
    np.subtract(E, 0.5, out=D[2])
    del E
    np.add(D[:2], r, out=D[3:])
    D[4] -= 9.0
    neg = np.signbit(D)
    np.abs(D, out=D)
    unsure = np.minimum.reduce(D, axis=0)
    del D
    # u, the last digit's offset from s - r: s + 1 when it is in and s is
    # not or lies farther, else s; 0 or 10 when s - r or s - r + 10 is in.
    up = neg[0] & neg[2]
    up |= neg[1]
    r += 1
    r -= up
    del up
    r *= ~neg[3]
    np.maximum(r, (~neg[4]) * np.int64(10), out=r)
    del neg
    sp10 += r
    d = sp10
    del r

    # Pad to 17 digits.
    short = d < 10**16
    decpt = scale[6].astype(np.int64)
    del scale, m, m_hi, m_lo, ml
    decpt -= short
    short = short * d
    short *= 9
    d += short
    return d, decpt, unsure


def _words_of(d: np.ndarray, decpt: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The six words per cell (a (6, cells) array) of the text of ``d``
    10^(decpt - 17), negative where ``negative``, without its separator."""
    # d = a 10^16 + (c0 c1 c2 c3 in chunks of four digits) in rows 0 to 4;
    # rows 5 and 6 hold the halves, then the layout.
    work = np.empty((7, d.size), np.int64)
    chunks, halves = work[:5], work[5:]
    np.floor_divide(d, 10**16, out=chunks[0])
    np.multiply(chunks[0], 10**16, out=halves[0])
    d -= halves[0]
    np.floor_divide(d, 10**8, out=halves[0])
    np.multiply(halves[0], 10**8, out=halves[1])
    np.subtract(d, halves[1], out=halves[1])
    np.floor_divide(halves, 10**4, out=chunks[1::2])
    np.multiply(chunks[1::2], 10**4, out=chunks[2::2])
    np.subtract(halves, chunks[2::2], out=chunks[2::2])
    chunks[0] += _LEAD
    words = np.empty((6, d.size), np.uint64)
    _DIGITS.take(chunks, out=words[:5], mode="clip")

    # Layout column: clipped decpt, n and sign.
    chunks[1:] += _NPOS_AT
    lay = np.maximum.reduce(_NPOS.take(chunks[1:]), axis=0).astype(np.int64)
    lay += _DC.take(decpt)
    lay += negative
    layout = work.view(np.uint64)
    _LAYOUT.take(lay, axis=1, out=layout, mode="clip")
    del lay
    words[:5] &= layout[1:6]
    words[0] |= layout[0]
    _EXP.take(decpt, out=words[5], mode="clip")
    words[5] |= layout[6]
    return words


def _patch(words: np.ndarray, x: np.ndarray, odd: np.ndarray) -> None:
    """Rewrite the cells ``odd`` (subnormals, decisions within ``MARGIN``)
    by ``repr``."""
    words[5, odd] = 0
    for i in odd.tolist():
        words[:5, i] = _words([repr(float(x[i])).encode().ljust(40, b"\0")])
