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

Memory: a call holds one work array, allocated for ``TEXT_ROWS`` rows,
whose bytes the arithmetic, the digits, the text and its mask take in turn:
128 bytes a row in CSV while the two labels take at most 10 digits together
(``generations(16)`` takes 2 + 5), about a byte a row more per further
digit, and 141 bytes plus the labels' digits in JSON.  A block adds the text
it gathers and the ``str`` made of it, 27 bytes a row each for
``generations(16)``, so it peaks at 185 bytes a row.  Each block also pays
a fixed cost of about 0.5 ms in numpy calls, so blocks are made as large as
memory allows: ``TEXT_ROWS`` = 3328 is the largest multiple of 256 rows
whose chunk stays within 616 KiB, the tracemalloc peak of a 4096-row chunk
formatted one row at a time (601 KiB; 3584 rows peak at 646 KiB).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

TEXT_ROWS = 3328  # rows per pass: 185 bytes a row at the peak, 601 KiB (the bound is 616)

FORMATS = {  # header, the literals around j, k and value, and the non-finite words
    "csv": ("j,k,value\n", ("", ",", ",", "\n"), ("nan", "inf")),
    "json": ("", ('{"j": ', ', "k": ', ', "value": ', "}\n"), ("NaN", "Infinity")),
}
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k of float64 values
# numpy scalars, not Python ints: a ufunc converts a Python int at every call
_U = tuple(np.uint64(n) for n in range(65))
_I = {n: np.int16(n) for n in (-5, -1, 0, 1, 2, 16, 17, 99)}
_M32 = np.uint64(0xFFFFFFFF)
_M52 = np.uint64((1 << 52) - 1)  # the fraction field
_M63 = np.uint64((1 << 63) - 1)  # all but the sign bit
_LOW2 = np.uint64((1 << 64) - 4)  # all but the two lowest bits
_BIT52 = np.uint64(1 << 52)  # the implicit bit of a normal value
_EXP = np.uint64(0x7FF << 52)  # the exponent field of an infinity or a NaN
_TEN_4 = np.uint64(10000)
_MINUS = np.uint8(ord("-"))
# Byte rows of the work array of row_text, each one block long.  Kept from
# the arithmetic to the layout: 12 flags, then the decimal exponent and the
# digit count (int16).  The arithmetic's 14 uint64 registers follow; once the
# digits are known the same bytes hold the value's layout (18 flags and 4
# int16 rows), the digits' 4-character words and the text; then, beside the
# text, a label's 18 used-digit flags, its 4-digit groups and their words;
# last, the mask the text is read by.
_FLAGS, _NUMBERS, _REGISTERS = 0, 12, 16
_PLACES, _LAYOUT, _CHARS, _TEXT = 16, 34, 64, 84
_LABEL_USED, _LABEL_GROUPS = 16, 40


@lru_cache(maxsize=None)
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's constant tables, built at its first use from Python ints
    and bytes (no numpy loop runs for them alone): ``10**i`` for ``i < 20``;
    0..9999 as 4-character words, uint32 elements whose bytes are the
    characters; their trailing zeros (4 for 0000) as int16; and the table of
    :func:`_g_table`, which every call shares and fills as exponents first
    appear (its columns depend on ``k`` alone)."""
    chars, zeros = bytearray(40000), bytearray(20000)
    for place in range(4):
        run = 10**place  # the digit at this place changes every run numbers
        chars[3 - place :: 4] = b"".join(bytes([c]) * run for c in b"0123456789") * (1000 // run)
        zeros[:: 20 * run] = bytes([place + 1]) * (1000 // run)  # byte 0 of each (10 run)-th entry
    p10 = np.array([10**i for i in range(20)], dtype=np.uint64)
    return (p10, np.frombuffer(bytes(chars), dtype=np.uint32),
            np.frombuffer(bytes(zeros), dtype="<i2").astype(np.int16, copy=False),
            np.zeros((5, _K_MAX - _K_MIN + 1), dtype=np.uint64))


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


def _put_quads(chars: np.ndarray, rows: np.ndarray) -> None:
    """The characters of 4-digit groups, uint32 rows of the 4-character
    words of ``_tables``, into ``rows``, one row per character, the last
    ``len(rows)`` of them."""
    chars = chars.view(np.uint8).reshape(len(chars), -1, 4)
    skip = 4 * len(chars) - len(rows)
    for g in range(len(chars)):
        lo = max(4 * g, skip)
        np.copyto(rows[lo - skip : 4 * g + 4 - skip], chars[g, :, lo - 4 * g :].T)


def _width(labels: np.ndarray) -> int:
    """Decimal digits of the largest ``|label|``."""
    return len(str(max(-int(labels.min()), int(labels.max()), 1)))


def _rows(work: np.ndarray, at: int, count: int, dtype) -> np.ndarray:
    """``count`` rows of ``dtype`` from byte row ``at`` of ``work``, a uint8
    array of byte rows whose length is a multiple of 8."""
    size = np.dtype(dtype).itemsize
    return work[at : at + count * size].reshape(count, -1).view(dtype)


def row_text(js: np.ndarray, ks: np.ndarray, values: np.ndarray, fmt: str) -> Iterator[str]:
    """The text of the rows of int64 labels and float64 values (at least
    one), one string per block of ``TEXT_ROWS`` rows.

    A row's characters sit in fixed positions: the literals, a sign and
    right-aligned digits per label, and the value's sign, ``0.000`` prefix,
    18 positions of digits and point, and ``e+ddd``.  A uint8 matrix holds a
    position per row and a row of text per column, so that every step is a
    pass over whole rows; a position a row does not use holds 0, and the
    text is the matrix read one row of text at a time where it is not 0.
    Every array of a block is a view of one work array, allocated here for
    ``TEXT_ROWS`` rows, at the byte rows ``_FLAGS`` .. ``_LABEL_GROUPS``
    give, which each stage takes over from the last."""
    p10, words, quad_zeros, g_table = _tables()
    _, lit, specials = FORMATS[fmt]
    widths = _width(js), _width(ks)
    layout = (lit[0] + "-" + "0" * widths[0] + lit[1] + "-" + "0" * widths[1] + lit[2]
              + "-0.000" + "0" * 18 + "e+000" + lit[3])
    j_at = len(lit[0])
    k_at = j_at + 1 + widths[0] + len(lit[1])
    sign = k_at + 1 + widths[1] + len(lit[2])  # the value's positions from here
    point, digit, expo = sign + 1, sign + 6, sign + 24
    size, groups = len(layout), -(-max(widths) // 4)
    text_at = max(_TEXT, _LABEL_GROUPS + 12 * groups)  # past a label's groups and words
    mask_at = _REGISTERS if _REGISTERS + size <= text_at else text_at + size
    rows = min(TEXT_ROWS, len(values))
    work = np.empty((max(_REGISTERS + 8 * 14, text_at + size, mask_at + size),
                     -(-rows // 8) * 8), dtype=np.uint8)  # 8-byte aligned rows
    registers = _rows(work, _REGISTERS, 14, np.uint64)
    flags = _rows(work, _FLAGS, 12, np.bool_)
    numbers = _rows(work, _NUMBERS, 2, np.int16)
    places = _rows(work, _PLACES, 18, np.bool_)
    value_layout = _rows(work, _LAYOUT, 4, np.int16)
    chars = _rows(work, _CHARS, 5, np.uint32)
    text = _rows(work, text_at, size, np.uint8)
    mask = _rows(work, mask_at, size, np.bool_)
    used = _rows(work, _LABEL_USED, 18, np.bool_)
    label_quads = _rows(work, _LABEL_GROUPS, groups, np.uint64)
    label_chars = _rows(work, _LABEL_GROUPS + 8 * groups, groups, np.uint32)
    literals = np.frombuffer(layout.encode(), dtype=np.uint8)[:, None]
    tops = [(p10[w - 1 : 0 : -1] - _U[1])[:, None] for w in widths]  # below 10**i: no digit i
    index = np.arange(18, dtype=np.int16)[:, None]
    nan_word, inf_word = (np.frombuffer(w.encode(), dtype=np.uint8)[:, None] for w in specials)
    one, q_bias, k_min = np.int64(1), np.int64(1075), np.int64(_K_MIN)
    log10_2, log10_3_4, log2_10 = (np.int64(661971961083), np.int64(274743187321),
                                   np.int64(-913124641741))

    for start in range(0, len(values), TEXT_ROWS):
        stop = min(start + TEXT_ROWS, len(values))
        m = stop - start
        g = registers[:5, :m]
        cp, c0, c1, z, vb, vbl, t, c, h = registers[5:, :m]
        (nonzero, finite, nan, inf, irregular, up, wp, short, ui, pick, even,
         temp) = flags[:, :m]
        e, digits_to_last = numbers[:, :m]

        bits = values[start:stop].view(np.uint64)
        np.bitwise_and(bits, _M63, out=t)
        np.less(t, _EXP, out=finite)
        np.greater(t, _EXP, out=nan)
        np.equal(t, _EXP, out=inf)
        np.not_equal(t, _U[0], out=nonzero)

        # v = c * 2**q: q from the exponent field, c with its implicit bit
        np.right_shift(t, _U[52], out=h)
        np.bitwise_and(bits, _M52, out=c)
        np.greater(h, _U[0], out=up)
        np.bitwise_or(c, _BIT52, out=c, where=up)
        np.equal(c, _BIT52, out=irregular)  # a power of two above the least exponent:
        np.greater(h, _U[1], out=up)  # the interval's lower end is nearer
        irregular &= up
        qi, ki, ti = h.view(np.int64), t.view(np.int64), cp.view(np.int64)
        np.maximum(qi, one, out=qi)
        qi -= q_bias
        np.multiply(qi, log10_2, out=ki)  # k = floor(log10 2**q), or of 3/4 * 2**q
        np.subtract(ki, log10_3_4, out=ki, where=irregular)
        ki >>= 41
        np.copyto(e, ki, casting="unsafe")
        np.multiply(ki, log2_10, out=ti)  # h = q + floor(-k log2 10) + 2, in 1..4
        ti >>= 38
        qi += ti
        qi += 2
        np.subtract(ki, k_min, out=ti)
        np.take(_g_table(g_table, int(ki.min()), int(ki.max())), ti, axis=1, out=g, mode="clip")
        rop = g, h, cp, c0, c1, z, t

        c <<= _U[2]
        _rop(c, vb, *rop)
        np.subtract(c, _U[2], out=vbl)
        np.add(vbl, _U[1], out=vbl, where=irregular)
        _rop(vbl, vbl, *rop)
        np.right_shift(c, _U[2], out=t)
        t &= _U[1]  # an odd c leaves the interval's ends out
        vbl += t

        # s = floor(v / 10**k) and w, the multiple of 10**(k + 1) below it:
        # where the lower end is, and v's distances to s and to s + 1
        np.bitwise_and(vb, _LOW2, out=t)
        np.less_equal(vbl, t, out=ui)
        t += _U[2]  # 4s + 2
        np.less(vb, t, out=pick)
        np.equal(vb, t, out=irregular)
        s = vb
        s >>= _U[2]
        np.bitwise_and(s, _U[1], out=t)
        np.equal(t, _U[0], out=even)
        irregular &= even  # a tie goes to the even digit
        np.floor_divide(s, _U[10], out=t)
        t *= _U[40]
        np.less_equal(vbl, t, out=up)

        vbr = vbl  # the upper end, less 1 for an odd c
        np.add(c, _U[2], out=vbr)
        _rop(vbr, vbr, *rop)
        c >>= _U[2]
        c &= _U[1]
        vbr -= c
        w = c
        np.floor_divide(s, _U[10], out=w)
        w *= _U[10]  # the multiples of 10**(k + 1) beside v: w and w + 10
        np.left_shift(w, _U[2], out=t)
        t += _U[40]
        np.less_equal(t, vbr, out=wp)
        np.bitwise_xor(up, wp, out=short)  # exactly one of them is in the interval
        np.left_shift(s, _U[2], out=t)
        t += _U[4]
        np.less_equal(t, vbr, out=wp)
        np.bitwise_xor(ui, wp, out=wp)  # exactly one of s and s + 1 is
        pick |= irregular
        np.copyto(pick, ui, where=wp)
        np.invert(pick, out=pick)
        np.add(s, _U[1], out=s, where=pick)
        np.invert(up, out=up)
        np.add(w, _U[10], out=w, where=up)
        np.copyto(s, w, where=short)  # the digits d: v is about d * 10**k

        n = np.searchsorted(p10, s, side="right")  # d has n digits
        np.add(e, n, out=e, casting="unsafe")
        e -= _I[1]  # the decimal exponent e of the first digit
        np.subtract(18, n, out=n)
        np.take(p10, n, out=cp, mode="clip")
        del n  # 8 bytes a row, not held to the block's peak
        s *= cp
        s //= _U[10]  # 17 digits, zeros after the last
        np.invert(nonzero, out=up)
        np.copyto(s, _U[0], where=up)
        np.copyto(e, 0, where=up)
        quad = registers[9:14, :m]  # s, then four registers of 4-digit groups
        for i in (4, 3, 2, 1):
            _quarter(s, quad[i])
        digit_chars = chars[:, :m]
        np.take(words, quad.view(np.int64), out=digit_chars, mode="clip")
        dot, width, prefix, t16 = value_layout[:, :m]
        zeros = digits_to_last
        np.take(quad_zeros, quad[4].view(np.int64), out=zeros, mode="clip")
        np.equal(quad[4], _U[0], out=even)
        for i in (3, 2, 1):  # the trailing zeros of the digits
            np.take(quad_zeros, quad[i].view(np.int64), out=t16, mode="clip")
            np.add(zeros, t16, out=zeros, where=even)
            np.equal(quad[i], _U[0], out=irregular)
            even &= irregular
        np.subtract(_I[17], zeros, out=digits_to_last)  # the digits to the last nonzero
        np.copyto(digits_to_last, _I[1], where=up)

        # the layout, in int16
        fixed, scientific, whole = wp, short, ui
        np.greater(e, _I[-5], out=fixed)
        np.less(e, _I[16], out=temp)
        fixed &= temp
        fixed &= finite
        np.greater(e, _I[-1], out=whole)
        whole &= fixed
        np.invert(fixed, out=scientific)
        scientific &= finite
        np.copyto(dot, _I[17])  # the point's position, 17 for none
        np.copyto(dot, e, where=whole)
        np.greater(digits_to_last, _I[1], out=temp)
        temp &= scientific
        np.copyto(dot, _I[0], where=temp)
        np.add(e, _I[2], out=width)  # e + 2 positions up to the first decimal
        np.greater(digits_to_last, width, out=temp)
        np.invert(whole, out=irregular)
        temp |= irregular
        np.copyto(width, digits_to_last, where=temp)
        np.less(dot, _I[17], out=temp)
        np.add(width, _I[1], out=width, where=temp)
        np.copyto(width, len(nan_word), where=nan)
        np.copyto(width, len(inf_word), where=inf)
        np.subtract(_I[1], e, out=prefix)  # 1 - e: "0." and -e - 1 zeros
        np.less(e, _I[0], out=temp)
        temp &= fixed
        np.invert(temp, out=temp)
        np.copyto(prefix, _I[0], where=temp)

        out = text[:, :m]
        out[:] = literals
        value_sign = out[sign].view(np.bool_)
        np.greater(bits, _M63, out=value_sign)  # the sign bit
        np.copyto(value_sign, False, where=nan)  # a NaN prints no sign
        out[sign] *= _MINUS
        np.less(index[:5], prefix, out=out[point : point + 5].view(np.bool_))
        out[point : point + 5] *= literals[point : point + 5]

        area, place = out[digit : digit + 18], places[:, :m]
        _put_quads(digit_chars, area[:17])
        np.greater(index[:17], dot, out=place[:17])
        np.copyto(area[1:], area[:17], where=place[:17])
        np.add(dot, _I[1], out=t16)
        np.equal(index, t16, out=place)
        np.copyto(area, ord("."), where=place)
        if not finite.all():
            for word, rows in ((nan_word, nan), (inf_word, inf)):
                area[: len(word), rows] = word
        np.less(index, width, out=place)
        area *= place.view(np.uint8)

        if scientific.any():
            np.less(e, _I[0], out=temp)
            np.copyto(out[expo + 1], ord("+"))
            np.copyto(out[expo + 1], ord("-"), where=temp)
            np.copyto(ti, e)
            np.absolute(ti, out=ti)
            np.take(words, ti, out=digit_chars[0], mode="clip")
            _put_quads(digit_chars[:1], out[expo + 2 : expo + 5])
            out[expo : expo + 5] *= scientific.view(np.uint8)
            np.greater(e, _I[99], out=temp)
            np.less(e, -_I[99], out=irregular)
            temp |= irregular  # |e| >= 100
            out[expo + 2] *= temp.view(np.uint8)
        else:
            out[expo : expo + 5] = 0

        for labels, at, width, top in zip((js, ks), (j_at, k_at), widths, tops):
            n = -(-width // 4)  # 4-digit groups
            quads, used_digits = label_quads[:n, :m], used[: width - 1, :m]
            a = quads[0]
            np.copyto(a, labels[start:stop], casting="unsafe")
            negative = out[at].view(np.bool_)
            np.greater(a, _M63, out=negative)  # the sign bit
            np.subtract(_U[0], a, out=a, where=negative)  # |label|, 2**63 included
            out[at] *= _MINUS
            np.greater(a, top, out=used_digits)  # the units digit is always used
            for i in range(n - 1, 0, -1):
                _quarter(a, quads[i])
            np.take(words, quads.view(np.int64), out=label_chars[:n, :m], mode="clip")
            _put_quads(label_chars[:n, :m], out[at + 1 : at + 1 + width])
            out[at + 1 : at + width] *= used_digits.view(np.uint8)

        np.not_equal(out, 0, out=mask[:, :m])
        yield str(out.T[mask[:, :m].T], "ascii")
