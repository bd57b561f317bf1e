"""Text of sampled rows ``(j, k, value)``: int64 labels and float64 values
rendered in numpy, ``TEXT_ROWS`` rows per pass, byte for byte as ``repr``
and ``json`` print them.

A value's digits are the shortest that read back to it, and the nearest to it
among those, by Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020), in uint64 arithmetic; Ryu (U. Adams, "Ryu: fast
float-to-string conversion", PLDI 2018) finds the same digits with other
constants.  For ``v = c * 2**q`` let ``k = floor(log10 2**q)`` (of ``3/4 *
2**q`` when ``c`` is a power of two, whose lower neighbour is nearer), and
``g`` the 126-bit integer just above ``10**-k`` times a power of two.  The
products of ``g`` with ``4c`` and with the two ends of the rounding interval
(``4c - 2`` or ``4c - 1``, ``4c + 2``), shifted and rounded to odd, are
formed from 32-bit limbs, as Java's ``DoubleToDecimal.rop`` forms them.  They
decide exactly whether ``s * 10**k``, ``(s + 1) * 10**k`` and the multiples
of ``10**(k + 1)`` beside them lie in the interval (its ends in it when ``c``
is even, as round-half-even reads them back).  The interval is narrower than
``10**(k + 1)``, so it holds at most one multiple of it; that one, else the
nearer of ``s`` and ``s + 1`` in it (the even on a tie), is the shortest and
nearest.  Java additionally asks for two digits; ``repr`` does not, and
neither does this kernel.  Subnormals take the same path.  The tests compare
every byte with ``repr`` on 10**6 uniformly drawn bit patterns, on every
power of two and its neighbours, and on the ends of the layouts.

The layout is ``repr``'s: positional for decimal exponents ``-4 <= e < 16``
(``0.0001``, ``1234.5``, ``1e+16`` beyond), ``d.ddde-XX`` otherwise, and
``0.0``, ``-0.0``, ``nan``, ``inf`` (``NaN``, ``Infinity`` in JSON).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

TEXT_ROWS = 1024  # rows per pass: the work buffers take about 300 bytes a row

FORMATS = {  # header, the literals around j, k and value, and the non-finite words
    "csv": ("j,k,value\n", ("", ",", ",", "\n"), ("nan", "inf")),
    "json": ("", ('{"j": ', ', "k": ', ', "value": ', "}\n"), ("NaN", "Infinity")),
}
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k of float64 values
# numpy scalars, not Python ints: a ufunc converts a Python int at every call
_U = tuple(np.uint64(n) for n in range(65))
_M32 = np.uint64(0xFFFFFFFF)
_M52 = np.uint64((1 << 52) - 1)  # the fraction field
_M63 = np.uint64((1 << 63) - 1)  # all but the sign bit
_BIT52 = np.uint64(1 << 52)  # the implicit bit of a normal value
_EXP = np.uint64(0x7FF << 52)  # the exponent field of an infinity or a NaN
_TEN_4 = np.uint64(10000)
_BIAS = 400  # added to decimal exponents, which then fit uint64


@lru_cache(maxsize=None)
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's constant tables, built at its first use from Python ints
    and bytes (no numpy loop runs for them alone): ``10**i`` for ``i < 20``;
    0..9999 as 4-character words, uint32 elements whose bytes are the
    characters; and their trailing zeros (4 for 0000) as uint64."""
    chars, zeros = bytearray(40000), bytearray(80000)
    for place in range(4):
        run = 10**place  # the digit at this place changes every run numbers
        chars[3 - place :: 4] = b"".join(bytes([c]) * run for c in b"0123456789") * (1000 // run)
        zeros[:: 80 * run] = bytes([place + 1]) * (1000 // run)  # byte 0 of each (10 run)-th entry
    p10 = np.array([10**i for i in range(20)], dtype=np.uint64)
    return (p10, np.frombuffer(bytes(chars), dtype=np.uint32),
            np.frombuffer(bytes(zeros), dtype="<u8").astype(np.uint64, copy=False))


def _g_table(table: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``table``, five rows with a column per ``k`` from ``_K_MIN`` and zeros
    where not yet built, with the columns of ``k = lo..hi`` built: ``g =
    floor(10**-k * 2**(125 - r)) + 1`` with ``r = floor(-k log2 10)`` as the
    kernel computes it, so ``2**125 < g < 2**126``, split as ``g = g1 *
    2**63 + g0``; the rows are the 32-bit limbs of ``g0`` and ``g1``, then
    ``g1``."""
    for k in (lo + np.flatnonzero(table[4, lo - _K_MIN : hi - _K_MIN + 1] == 0)).tolist():
        r = -k * 913124641741 >> 38
        g = (10**-k << 125 - r if r <= 125 else 10**-k >> r - 125) if k <= 0 else (1 << 125 - r) // 10**k
        g1, g0 = (g + 1) >> 63, (g + 1) & (1 << 63) - 1
        table[:, k - _K_MIN] = (g0 & 0xFFFFFFFF, g0 >> 32, g1 & 0xFFFFFFFF, g1 >> 32, g1)
    return table


def _mul_hi(a0, a1, b0, b1, hi, t, w) -> None:
    """``hi = (a * b) >> 64`` from the 32-bit limbs of ``a`` and ``b``; ``t``
    and ``w`` are scratch.  No partial sum passes 2**64."""
    np.multiply(a0, b0, out=t)
    t >>= _U[32]
    np.multiply(a1, b0, out=w)
    t += w
    np.bitwise_and(t, _M32, out=w)
    t >>= _U[32]
    np.multiply(a0, b1, out=hi)
    w += hi
    w >>= _U[32]
    np.multiply(a1, b1, out=hi)
    hi += t
    hi += w


def _rop(cb, into, g, h, cp, c0, c1, z, t) -> None:
    """``into = g * (cb << h) / 2**127`` rounded to odd, as Java's ``rop``
    (the low words of ``g0 * cp`` and ``g1 * cp`` cannot change it); ``cb``
    may be ``into``."""
    np.left_shift(cb, h, out=cp)
    np.bitwise_and(cp, _M32, out=c0)
    np.right_shift(cp, _U[32], out=c1)
    _mul_hi(g[0], g[1], c0, c1, z, t, into)
    cp *= g[4]  # the low word of g1 * cp
    cp >>= _U[1]
    z += cp  # below 2**64: g0 < 2**63
    _mul_hi(g[2], g[3], c0, c1, into, t, cp)
    np.right_shift(z, _U[63], out=t)
    into += t
    z &= _M63
    z += _M63
    z >>= _U[63]
    into |= z


def _quarter(a: np.ndarray, rest: np.ndarray) -> None:
    """``a, rest = divmod(a, 10000)`` in place, by floor division by a
    scalar, which numpy does far faster than ``np.divmod``."""
    np.floor_divide(a, _TEN_4, out=rest)
    np.multiply(rest, _TEN_4, out=rest)
    np.subtract(a, rest, out=rest)
    np.floor_divide(a, _TEN_4, out=a)


def _put_quads(words: np.ndarray, quads: np.ndarray, rows: np.ndarray, scratch: np.ndarray):
    """The characters of the 4-digit groups ``quads`` (uint64 rows) into
    ``rows``, one row per character, the last ``len(rows)`` of them;
    ``scratch`` is uint32 in the shape of ``quads``."""
    np.take(words, quads.view(np.int64), out=scratch, mode="clip")
    chars = scratch.view(np.uint8).reshape(len(quads), -1, 4)
    skip = 4 * len(quads) - len(rows)
    for g in range(len(quads)):
        lo = max(4 * g, skip)
        np.copyto(rows[lo - skip : 4 * g + 4 - skip], chars[g, :, lo - 4 * g :].T)


def _width(labels: np.ndarray) -> int:
    """Decimal digits of the largest ``|label|``."""
    return len(str(max(-int(labels.min()), int(labels.max()), 1)))


def row_text(js: np.ndarray, ks: np.ndarray, values: np.ndarray, fmt: str) -> Iterator[str]:
    """The text of the rows of int64 labels and float64 values (at least
    one), one string per block of ``TEXT_ROWS`` rows.

    A row's characters sit in fixed positions: the literals, a sign and
    right-aligned digits per label, and the value's sign, ``0.000`` prefix,
    18 positions of digits and point, and ``e+ddd``.  A uint8 matrix holds a
    position per row and a row of text per column, so that every step is a
    pass over whole rows; a boolean mask of its shape marks the positions in
    use, and the text is the matrix read one row of text at a time where the
    mask is set.  The matrix, the mask, the powers of ten and every scratch
    array are allocated here, for ``TEXT_ROWS`` rows, and the literals are
    written once."""
    p10, words, quad_zeros = _tables()
    g_table = np.zeros((5, _K_MAX - _K_MIN + 1), dtype=np.uint64)  # built as exponents appear
    _, lit, specials = FORMATS[fmt]
    widths = _width(js), _width(ks)
    layout = (lit[0] + "-" + "0" * widths[0] + lit[1] + "-" + "0" * widths[1] + lit[2]
              + "-0.000" + "0" * 18 + "e+000" + lit[3])
    j_at = len(lit[0])
    k_at = j_at + 1 + widths[0] + len(lit[1])
    sign = k_at + 1 + widths[1] + len(lit[2])  # the value's positions from here
    point, digit, expo = sign + 1, sign + 6, sign + 24
    rows = min(TEXT_ROWS, len(values))
    text = np.empty((len(layout), rows), dtype=np.uint8)
    text[:] = np.frombuffer(layout.encode(), dtype=np.uint8)[:, None]
    used = np.zeros((len(layout), rows), dtype=bool)
    for lo, hi in ((0, j_at), (j_at + widths[0], k_at), (k_at + widths[1], sign),
                   (expo + 5, len(layout))):
        used[lo:hi] = True  # the literals, each after a label's units digit
    buffer = np.empty((12, rows), dtype=np.uint64)
    limbs = np.empty((5, rows), dtype=np.uint64)  # g, then 4-digit groups
    scratch = np.empty((5, rows), dtype=np.uint32)
    flags = np.empty((11, rows), dtype=bool)
    chars = np.empty((17, rows), dtype=np.uint8)
    places = np.empty((18, rows), dtype=bool)
    tops = [(p10[w - 1 : 0 : -1] - _U[1])[:, None] for w in widths]  # below 10**i: no digit i
    index = np.arange(18, dtype=np.uint64)[:, None]
    biased = {e: np.uint64(_BIAS + e) for e in (-99, -5, -2, -1, 0, 1, 16, 99)}
    nan_word, inf_word = (np.frombuffer(w.encode(), dtype=np.uint8)[:, None] for w in specials)
    one, q_bias, k_min = np.int64(1), np.int64(1075), np.int64(_K_MIN)
    e_bias = np.int64(_BIAS)
    log10_2, log10_3_4, log2_10 = (np.int64(661971961083), np.int64(274743187321),
                                   np.int64(-913124641741))

    for start in range(0, len(values), TEXT_ROWS):
        stop = min(start + TEXT_ROWS, len(values))
        m = stop - start
        out, mask = text[:, :m], used[:, :m]
        c, h, k, t, w, vb, vbl, vbr, c0, c1, z, odd = buffer[:, :m]
        s, a, cp = c, vb, w  # c is free once the ends are rounded, vb after the labels
        nonzero, finite, nan, inf, irregular, up, wp, short, ui, pick, even = flags[:, :m]
        g = quad = limbs[:, :m]
        for labels, at, width, top in zip((js, ks), (j_at, k_at), widths, tops):
            part = labels[start:stop]
            np.copyto(a, part, casting="unsafe")
            np.greater(a, _M63, out=mask[at])  # the sign bit
            np.subtract(_U[0], a, out=a, where=mask[at])  # |label|, 2**63 included
            np.greater(a, top, out=mask[at + 1 : at + width])  # the units digit is always used
            groups = -(-width // 4)
            for i in range(groups - 1, 0, -1):
                _quarter(a, quad[i])
            quad[0] = a
            _put_quads(words, quad[:groups], out[at + 1 : at + 1 + width], scratch[:groups, :m])

        bits = values[start:stop].view(np.uint64)
        np.bitwise_and(bits, _M63, out=t)
        np.less(t, _EXP, out=finite)
        np.greater(t, _EXP, out=nan)
        np.equal(t, _EXP, out=inf)
        np.not_equal(t, _U[0], out=nonzero)
        np.greater(bits, _M63, out=mask[sign])  # the sign bit
        np.copyto(mask[sign], False, where=nan)  # a NaN prints no sign

        # v = c * 2**q: q from the exponent field, c with its implicit bit
        np.right_shift(t, _U[52], out=h)
        np.bitwise_and(bits, _M52, out=c)
        np.greater(h, _U[0], out=up)
        np.bitwise_or(c, _BIT52, out=c, where=up)
        np.equal(c, _BIT52, out=irregular)  # a power of two above the least exponent:
        np.greater(h, _U[1], out=up)  # the interval's lower end is nearer
        irregular &= up
        qi, ki, ti = h.view(np.int64), k.view(np.int64), t.view(np.int64)
        np.maximum(qi, one, out=qi)
        qi -= q_bias
        np.multiply(qi, log10_2, out=ki)  # k = floor(log10 2**q), or of 3/4 * 2**q
        np.subtract(ki, log10_3_4, out=ki, where=irregular)
        ki >>= 41
        np.multiply(ki, log2_10, out=ti)  # h = q + floor(-k log2 10) + 2, in 1..4
        ti >>= 38
        qi += ti
        qi += 2
        np.subtract(ki, k_min, out=ti)
        np.take(_g_table(g_table, int(ki.min()), int(ki.max())), ti, axis=1, out=g, mode="clip")
        rop = g, h, cp, c0, c1, z, t

        np.bitwise_and(c, _U[1], out=odd)  # an odd c leaves the interval's ends out
        c <<= _U[2]
        _rop(c, vb, *rop)
        np.subtract(c, _U[2], out=vbr)
        np.add(vbr, _U[1], out=vbr, where=irregular)
        _rop(vbr, vbl, *rop)
        np.add(c, _U[2], out=vbr)
        _rop(vbr, vbr, *rop)

        vbl += odd
        np.right_shift(vb, _U[2], out=s)
        np.floor_divide(s, _U[10], out=w)
        w *= _U[10]  # the multiples of 10**(k + 1) beside v: w and w + 10
        np.left_shift(w, _U[2], out=t)
        np.less_equal(vbl, t, out=up)
        t += _U[40]
        t += odd
        np.less_equal(t, vbr, out=wp)
        np.bitwise_xor(up, wp, out=short)  # exactly one of them is in the interval
        np.left_shift(s, _U[2], out=t)
        np.less_equal(vbl, t, out=ui)
        t += _U[4]
        t += odd
        np.less_equal(t, vbr, out=wp)
        np.bitwise_xor(ui, wp, out=wp)  # exactly one of s and s + 1 is
        t -= odd
        t -= _U[2]  # 4s + 2: v's distances to s and to s + 1 compared
        np.less(vb, t, out=pick)
        np.equal(vb, t, out=irregular)
        np.bitwise_and(s, _U[1], out=t)
        np.equal(t, _U[0], out=even)
        irregular &= even  # a tie goes to the even digit
        pick |= irregular
        np.copyto(pick, ui, where=wp)
        np.invert(pick, out=pick)
        np.add(s, _U[1], out=s, where=pick)
        np.invert(up, out=up)
        np.add(w, _U[10], out=w, where=up)
        np.copyto(s, w, where=short)  # the digits d: v is about d * 10**k

        n = np.searchsorted(p10, s, side="right")  # d has n digits
        ki += n
        ki -= one  # the decimal exponent e of the first digit
        np.subtract(18, n, out=n)
        np.take(p10, n, out=t, mode="clip")
        s *= t
        s //= _U[10]  # 17 digits, zeros after the last
        np.invert(nonzero, out=up)
        np.copyto(s, _U[0], where=up)
        np.copyto(ki, 0, where=up)
        for i in (4, 3, 2, 1):
            _quarter(s, quad[i])
        quad[0] = s
        digits = chars[:, :m]
        _put_quads(words, quad, digits, scratch[:, :m])
        zeros, count, dot, width, prefix, big = h, w, vb, vbl, vbr, c0
        np.take(quad_zeros, quad[4].view(np.int64), out=zeros, mode="clip")
        np.equal(quad[4], _U[0], out=even)
        for i in (3, 2, 1):  # the trailing zeros of the digits
            np.take(quad_zeros, quad[i].view(np.int64), out=t, mode="clip")
            np.add(zeros, t, out=zeros, where=even)
            np.equal(quad[i], _U[0], out=irregular)
            even &= irregular
        np.subtract(_U[17], zeros, out=count)  # the digits to the last nonzero
        np.copyto(count, _U[1], where=up)

        # the layout, in uint64 as the steps above: b = e + 400 > 0
        b = k
        ki += e_bias
        fixed, scientific, whole, temp = wp, short, ui, pick
        np.greater(b, biased[-5], out=fixed)
        np.less(b, biased[16], out=temp)
        fixed &= temp
        fixed &= finite
        np.greater(b, biased[-1], out=whole)
        whole &= fixed
        np.invert(fixed, out=scientific)
        scientific &= finite
        np.copyto(dot, _U[17])  # the point's position, 17 for none
        np.subtract(b, biased[0], out=dot, where=whole)
        np.greater(count, _U[1], out=temp)
        temp &= scientific
        np.copyto(dot, _U[0], where=temp)
        np.subtract(b, biased[-2], out=width)  # e + 2 positions up to the first decimal
        np.greater(count, width, out=temp)
        np.invert(whole, out=irregular)
        temp |= irregular
        np.copyto(width, count, where=temp)
        np.less(dot, _U[17], out=temp)
        np.add(width, _U[1], out=width, where=temp)
        np.copyto(width, _U[len(nan_word)], where=nan)
        np.copyto(width, _U[len(inf_word)], where=inf)
        np.subtract(biased[1], b, out=prefix)  # 1 - e: "0." and -e - 1 zeros
        np.less(b, biased[0], out=temp)
        temp &= fixed
        np.invert(temp, out=temp)
        np.copyto(prefix, _U[0], where=temp)
        np.less(index[:5], prefix, out=mask[point : point + 5])

        area = out[digit : digit + 18]
        area[:17] = digits
        np.greater(index[:17], dot, out=places[:17, :m])
        np.copyto(area[1:], digits, where=places[:17, :m])
        np.add(dot, _U[1], out=t)
        np.equal(index, t, out=places[:, :m])
        np.copyto(area, ord("."), where=places[:, :m])
        np.less(index, width, out=mask[digit : digit + 18])
        if not finite.all():
            for word, rows in ((nan_word, nan), (inf_word, inf)):
                area[: len(word), rows] = word

        np.greater(b, biased[99], out=temp)
        np.less(b, biased[-99], out=irregular)
        temp |= irregular  # |e| >= 100
        for i in (0, 1, 3, 4):
            np.copyto(mask[expo + i], scientific)
        np.bitwise_and(scientific, temp, out=mask[expo + 2])
        if scientific.any():
            np.less(b, biased[0], out=temp)
            np.copyto(out[expo + 1], ord("+"))
            np.copyto(out[expo + 1], ord("-"), where=temp)
            np.subtract(b, biased[0], out=big)
            np.subtract(biased[0], b, out=big, where=temp)
            _put_quads(words, big[None], out[expo + 2 : expo + 5], scratch[:1, :m])
        yield str(out.T[mask.T], "ascii")
