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

Text is laid out in four 8-byte words per cell, NUL-padded, and
``bytes.translate`` drops the NULs. The 17 digits d1 ... d17 (zeros padded
on the right) get a hole for the point after digit t: S = 10 d - 9 (d mod
10^(17 - t)) spells d1 ... dt, 0, d(t+1) ... d17 in 18 digits. t is the
point's place in fixed notation, and 1 elsewhere, where the hole is shown
only in ``d.ddde±XX``. Then

- word A: the sign and prefix (``-``, ``0.``, ``-0.000``) ending at byte 5,
  and S's first two digits at bytes 6 and 7;
- words B and C: S's other 16 digits, eight to a word from a table of the
  10^4 chunks.

A, B and C hold the digits as byte values, to which a layout word adds
``0`` at each digit shown and ``.`` at the hole (digits not shown are
zeros, so they stay NUL). Word D holds the exponent (``e-05``) at bytes 0
to 4 and the separator at bytes 6 and 7. The longest ``repr``
(``-1.7976931348623157e+308``) is 24 bytes. Tables are built from Python
integers at import.
"""

from __future__ import annotations

import math

import numpy as np

# Decimal exponents k of the scaling 10^-k over all normal doubles.
_K_MIN, _K_MAX = -324, 292
# decpt (x = 0.d1d2... 10^decpt) is offset by this to index the decpt
# tables; normal doubles take indices 23 to 639. Below them, two slots each
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
    """Each byte string NUL-padded to a whole number of 8-byte words, as int64."""
    return np.frombuffer(b"".join(t.ljust(-(-len(t) // 8) * 8 or 8, b"\0") for t in texts), np.int64)


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
    asymmetric interval; only for e > 1): the scaled 10^-k as ``m`` and
    ``ml``, the thresholds ``hl`` and ``1 - h``, and k + 17 + _DECPT_OFF.
    The scale 2^(q + F) is folded in, so V = c (m + ml). Subnormals get NaN
    thresholds, which no comparison passes."""
    his, los, exps = _pow10()
    e = np.arange(4096) % 2048
    asym = (np.arange(4096) >= 2048) & (e > 1)
    q = np.clip(e, 1, 2046) - 1075
    # Schubfach's floor(log10 2^q) and floor(log10 (3/4) 2^q), exact for |q| < 5456721.
    k = (q * 661971961083 - asym * 274743187321) >> 41
    sc = exps[k - _K_MIN] + q
    table = np.empty((5, 4096))
    m, ml, hl, one_minus_h, dp = table
    np.ldexp(his[k - _K_MIN], sc, out=m)
    np.ldexp(los[k - _K_MIN], sc, out=ml)
    np.ldexp(m, -1, out=one_minus_h)
    np.ldexp(one_minus_h, -asym.astype(int), out=hl)
    np.subtract(1.0, one_minus_h, out=one_minus_h)
    np.add(k, 17.0 + _DECPT_OFF, out=dp)
    table[2:4, e == 0] = np.nan
    # Zeros, infinities, NaNs: V = 0, every decision 1/2 or more from its
    # threshold and all digits 0 (s - r = 0 is in: hl = 1, 1 - h = -1),
    # and a decpt slot of their own (d = 0 is padded once).
    for col, slot in ((2048, _ZERO), (4095, _INF), (2047, _NAN)):
        table[:, col] = [0.0, 0.0, 1.0, -1.0, slot + 1]
    return table


_SCALE = _scale_table()


def _chunk_tables():
    """The four digits of each v < 10^4 as byte values, the first at the
    lowest byte of a word; and per chunk i of S (its digits 4i + 3 to 4i +
    6) and v: twice the position in S of its last nonzero digit (0 for v =
    0)."""
    v = np.arange(10**4, dtype=np.int16)
    digits = np.zeros((10**4, 8), np.uint8)
    digits[:, :4] = v[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
    last = np.full(10**4, 4, np.uint8)
    for j in range(1, 5):
        last -= v % 10**j == 0
    npos = 2 * (4 * np.arange(4, dtype=np.uint8)[:, None] + 2 + last) * (v > 0)
    return digits.view(np.int64).ravel(), npos


_DIGITS, _NPOS = _chunk_tables()
# S's first two digits as byte values at bytes 6 and 7 of word A.
_TOP = np.arange(100) // 10 << 48 | np.arange(100) % 10 << 56

# decpt is clipped to [_DC_LO, _DC_HI] for the layout: the ends stand for
# exponent notation (decpt <= -4 or > 16), the rest are fixed. Each clipped
# decpt has a layout column per position j of S's last nonzero digit after
# the second (0 for none, else 3 to 18) and sign.
_DC_LO, _DC_HI = -4, 17
_PER_DC = 2 * 19


def _layout() -> np.ndarray:
    """Words A to C to add per (clipped decpt, j, sign), at column ``(dc -
    _DC_LO) _PER_DC + 2 j + sign``: A's prefix, then at each of S's digits
    ``0`` where shown and ``.`` at the hole where shown. After them the
    texts of zero, infinity and NaN, two columns each."""
    cols = []
    for dc in range(_DC_LO, _DC_HI + 1):
        fixed = _DC_LO < dc < _DC_HI
        hole = dc + 1 if fixed and dc >= 1 else 2
        prefix = b"0." + b"0" * -dc if fixed and dc <= 0 else b""
        for j in range(19):
            # Up to the last nonzero digit; in fixed notation with digits
            # before the point, at least one after it; "0.00d" drops the hole.
            shown = max(j, hole + 1) if fixed and dc >= 1 else max(j, 1)
            dot = 0 if fixed and dc <= 0 else 0x2E
            adds = bytes((dot if t == hole else 0x30) * (t <= shown) for t in range(1, 19))
            for sign in (b"", b"-"):
                cols.append((sign + prefix).rjust(6, b"\0") + adds)
    for texts in ((b"0.0", b"-0.0"), (b"inf", b"-inf"), (b"nan", b"nan")):
        cols += [text.ljust(24, b"\0") for text in texts]
    return _words(cols).reshape(-1, 3).T.copy()


_LAYOUT = _layout()


def _decpt_tables():
    """Per decpt + _DECPT_OFF: word D (the exponent, ``e-05``, none where
    fixed, and a comma), 10^(17 - t) for the hole after digit t, and the
    layout column of the clipped decpt, j and sign aside."""
    decpts = range(-_DECPT_OFF, _DECPT_OFF)
    exp = [b"" if _DC_LO < d < _DC_HI else b"e%+03d" % (d - 1) for d in decpts]
    hole = [10 ** (17 - d) if 2 <= d < _DC_HI else 10**16 for d in decpts]
    dc = [(min(max(d, _DC_LO), _DC_HI) - _DC_LO) * _PER_DC for d in decpts]
    for n, slot in enumerate((_ZERO, _INF, _NAN)):
        exp[slot : slot + 2] = b"", b""
        dc[slot : slot + 2] = [(_DC_HI - _DC_LO + 1) * _PER_DC + 2 * n] * 2
    exp = _words(text.ljust(_SEP_AT, b"\0") + b",\0" for text in exp)
    return exp, np.array(hole), np.array(dc)


_SEP_AT = 6
_EXP, _HOLE, _DC = _decpt_tables()


def separator(text: bytes) -> np.int64:
    """A word D with ``text`` in its separator slot: one or two bytes, no
    NUL (dropped with the padding) and none that a cell's text holds (rows
    are found by it)."""
    if not 1 <= len(text) <= 8 - _SEP_AT or any(byte in b"\0,.+-0123456789aefin" for byte in text):
        raise ValueError(f"row end {text!r} is not one or two bytes outside a cell's text")
    return _words([b"\0" * _SEP_AT + text])[0]


_COMMA = _words([b"\0" * _SEP_AT + b","])[0]


def format_cells(x: np.ndarray, ends: np.ndarray, end: np.int64) -> bytes:
    """The ``repr`` of each cell of the float64 array ``x``, each followed
    by ``,``, or by ``end`` (a :func:`separator` word) at the indices
    ``ends``, in one bytes object."""
    bits = x.view(np.int64)
    d, decpt, unsure = _shortest(bits)
    odd = np.flatnonzero(~(unsure >= MARGIN))  # NaN (subnormals) included
    del unsure
    words = _words_of(d, decpt, bits < 0)
    del d, decpt
    if odd.size:
        _patch(words, x, odd)
    words[3, ends] ^= _COMMA ^ end
    # The NULs are dropped 2048 cells at a time: one 256 KB text and its
    # translation took fresh pages from the allocator at every block.
    pieces = [words[:, i : i + 2048].T.tobytes().translate(None, b"\0") for i in range(0, x.size, 2048)]
    del words
    return b"".join(pieces)


def _shortest(bits: np.ndarray):
    """Per cell: the shortest digits as a 17-digit integer d (zeros padded
    on the right), decpt + _DECPT_OFF, and the distance of the nearest
    decision to its threshold (NaN for subnormals). It holds seven
    cell-sized arrays at most: the scale rows are gathered as each step
    reads them, m is split as the table used to be, and the scale index is
    held as int16 while the product needs its buffer."""
    # The scale index: the biased exponent, plus 2048 where the significand
    # is 2^52 (its fraction, shifted out, is 0).
    c, idx = np.empty(bits.size), np.right_shift(bits, 52)
    idx &= 0x7FF
    np.left_shift(bits, 12, out=c.view(np.int64))
    np.add(idx, 2048, out=idx, where=c.view(np.int64) == 0)
    held = idx.astype(np.int16)
    m, ml, hl, one_minus_h, dp = _SCALE
    np.bitwise_and(bits, (1 << 52) - 1, out=c.view(np.int64))
    np.add(c.view(np.int64), 2.0**52, out=c)
    m_lo, p, cml, c_hi, err = (np.empty(bits.size) for _ in range(5))

    # V = c (m + ml) = P + E: Dekker's exact product c m = P + err with
    # Veltkamp splits (c < 2^53, so no overflow), then err + c ml.
    m.take(idx, out=m_lo, mode="clip")
    np.multiply(c, m_lo, out=p)
    ml.take(idx, out=cml, mode="clip")
    cml *= c
    m_hi = idx.view(np.float64)
    np.multiply(c, 134217729.0, out=c_hi)
    np.subtract(c_hi, c, out=m_hi)
    c_hi -= m_hi
    c_lo = np.subtract(c, c_hi, out=c)
    np.multiply(m_lo, 134217729.0, out=m_hi)
    np.subtract(m_hi, m_lo, out=err)
    m_hi -= err
    m_lo -= m_hi
    np.multiply(c_hi, m_hi, out=err)
    err -= p
    c_hi *= m_lo
    err += c_hi
    m_hi *= c_lo
    err += m_hi
    m_lo *= c_lo
    err += m_lo
    err += cml
    # s = floor(V) = P + floor(E) (P >= 2^52 is an integer); f = V - s.
    np.floor(err, out=c_hi)
    err -= c_hi
    f = err
    s = c.view(np.int64)
    s[...] = c_hi
    sp10 = m_lo.view(np.int64)
    sp10[...] = p
    s += sp10
    np.floor_divide(s, 10, out=sp10)
    sp10 *= 10
    s -= sp10
    r = p
    np.copyto(r, s)

    # The five decisions: f - hl (s in), f - (1 - h) (s + 1 in), f - 1/2
    # (s + 1 nearer), f + r - hl (s - r in), f + r - (10 - h) (s - r + 10
    # in), and the distance of the nearest to its threshold. A decision at
    # 0 (or NaN) is within MARGIN, so its cell goes to repr and "< 0"
    # stands for the sign. Bools are cast by copyto, not inside a ufunc,
    # which would take a buffer of its own.
    idx = m_hi.view(np.int64)
    np.copyto(idx, held)
    del held
    below, above, unsure = c_hi, cml, c
    hl.take(idx, out=below, mode="clip")
    np.subtract(f, below, out=below)
    one_minus_h.take(idx, out=above, mode="clip")
    np.subtract(f, above, out=above)
    f -= 0.5
    stay = below < 0
    stay &= f < 0
    stay |= above < 0
    gap = f  # its sign is taken
    np.abs(below, out=unsure)
    for dist in (f, above):
        np.abs(dist, out=gap)
        np.minimum(unsure, gap, out=unsure)
    below += r
    above += r
    above -= 9.0
    for dist in (above, below):
        np.abs(dist, out=gap)
        np.minimum(unsure, gap, out=unsure)
    # u, the last digit's offset from s - r: s + 1 when it is in and s is
    # not or lies farther, else s; 0 or 10 when s - r or s - r + 10 is in.
    r += 1.0
    np.copyto(gap, stay)
    r -= gap
    np.greater_equal(below, 0.0, out=stay)
    np.copyto(gap, stay)
    r *= gap
    np.greater_equal(above, 0.0, out=stay)
    np.copyto(gap, stay)
    gap *= 10.0
    np.maximum(r, gap, out=r)
    u = gap.view(np.int64)
    np.copyto(u, r, casting="unsafe")
    sp10 += u
    d = sp10

    # Pad to 17 digits.
    short = np.less(d, 10**16, out=stay)
    dp.take(idx, out=below, mode="clip")
    decpt = idx
    np.copyto(decpt, below, casting="unsafe")
    np.copyto(u, short)
    decpt -= u
    u *= d
    u *= 9
    d += u
    return d, decpt, unsure


def _words_of(d: np.ndarray, decpt: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """Words A to D per cell (a (4, cells) array) of the text of ``d``
    10^(decpt - 17), negative where ``negative``, each followed by a comma.
    Its rows hold the steps' values until they hold the words."""
    words = np.empty((4, d.size), np.int64)
    a, b, c, scratch = words
    # S = 10 d - 9 (d mod 10^(17 - t)), d's digits with a hole after the
    # t-th; word A takes its first two digits, d the other sixteen.
    _HOLE.take(decpt, out=scratch, mode="clip")
    np.remainder(d, scratch, out=scratch)
    d *= 10
    scratch *= 9
    d -= scratch
    np.floor_divide(d, 10**16, out=a)
    np.multiply(a, 10**16, out=scratch)
    d -= scratch
    _TOP.take(a, out=scratch, mode="clip")
    a[...] = scratch
    # Sixteen digits in four chunks k1, k2 of each half, gathered as byte
    # values eight to a word; j, the position of the last nonzero one.
    np.floor_divide(d, 10**8, out=b)
    np.multiply(b, 10**8, out=scratch)
    d -= scratch
    j, last = np.zeros(d.size, np.uint8), np.empty(d.size, np.uint8)
    k1 = scratch
    for i, (half, word, k2) in enumerate(((b, b, c), (d, c, d))):
        np.floor_divide(half, 10**4, out=k1)
        np.multiply(k1, 10**4, out=c)
        np.subtract(half, c, out=k2)
        for chunk, npos in ((k1, _NPOS[2 * i]), (k2, _NPOS[2 * i + 1])):
            npos.take(chunk, out=last, mode="clip")
            np.maximum(j, last, out=j)
        _DIGITS.take(k1, out=word, mode="clip")
        _DIGITS.take(k2, out=scratch, mode="clip")
        scratch <<= 32
        word |= scratch
    del last
    lay = _DC.take(decpt, out=d, mode="clip")
    lay += j
    lay += negative
    del j
    for i in range(3):
        _LAYOUT[i].take(lay, out=scratch, mode="clip")
        words[i] += scratch
    _EXP.take(decpt, out=words[3], mode="clip")
    return words


def _patch(words: np.ndarray, x: np.ndarray, odd: np.ndarray) -> None:
    """Rewrite the cells ``odd`` (subnormals, decisions within ``MARGIN``)
    by ``repr``."""
    words[3, odd] = _COMMA
    for i in odd.tolist():
        words[:3, i] = _words([repr(float(x[i])).encode().ljust(24, b"\0")])
