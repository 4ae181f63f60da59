"""Shortest round-trip text of float64 arrays, byte for byte as ``repr``.

``columns(values, nonfinite, sep)`` lays out the text of each value, and a
separator after it, in one row of a uint8 matrix with NUL in every byte the
value does not use; ``text(matrix)`` drops the NULs and returns the rows'
bytes in order, so a caller can place other text columns beside it (the CSV
lines of ``kpii-stem sample``) and compact everything once.  A row is four
little-endian words, each filled by integer arithmetic on whole arrays:

    sign, "0." and up to three zeros, the first digit
    digits 2-9    } the point goes in at its byte and the digits after
    digits 10-17  } it move up one byte, NUL where no digit is shown
    the last digit moved, "0" after an integral value's point, the
    exponent "e+dd" or "e-ddd", the separator's first byte

and the rest of the separator follows in whole words.  ``packed(*arrays,
sep)`` gives the same text from byte 0 of each row, one matrix per array, as
wide as that array's longest row.

The text of a finite value is ``repr(value)``: the shortest decimal that
reads back as the value, the closest such one to it, written by CPython's
``'r'`` rules (exponent form when the decimal point position is below -3 or
above 16, with a signed exponent of at least two digits; ``.0`` after an
integral positional value; ``-0.0`` keeps its sign).  Non-finite values take
the given tokens: ``nan``/``inf``/``-inf`` as repr writes them, or
``NaN``/``Infinity``/``-Infinity`` as ``json.dumps`` does.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020), as the JDK's ``DoubleToDecimal`` computes them, on arrays
of uint64: every step is fixed-width integer arithmetic, so it runs on whole
arrays (Ryu, U. Adams, PLDI 2018, finds the same digits).  For a value
c 2^q the 126-bit g(k) ~ 10^-k 2^-r gives the scaled value and the two
bounds of its rounding interval by one 181-bit product g (c << 2), formed
from 32-bit halves, and two adds of g or 2g; each is rounded to odd.  The
table of g(k), k in [-324, 292], is built from exact integers on first use.

Two departures from the JDK, which ``repr``'s digits need:

- no x10 rescaling of subnormals with c < 3: the JDK keeps two digits for
  them (4.9e-324), repr writes one (5e-324);
- the one-digit-shorter candidate is tried whenever s >= 10, not only when
  s >= 100, so that 8e-323 is not written 7.9e-323.

Every step updates its arrays in place where it can and drops each one after
its last use, so a call holds about 80 bytes per value at its peak, the
result's 32 or more included: a caller can format tens of thousands of values
in one call, which pays the call's fixed cost of some hundred numpy
operations once.  Shift counts are kept as uint8 and the exponent k as int16.

Every step is a plain integer ufunc loop, the cheapest numpy has, because the
alternatives each cost several such loops (per element, on one core of a
2-vCPU Xeon, numpy 2.4):

- tables are read with ndarray.take on intp indices, 1.0 ns, not by fancy
  indexing with int16 arrays, 2.7 ns;
- a division by 10^16, 10^8 or 10^4 is ``//`` by a scalar, numpy's fast path
  for one divisor, and a multiply-subtract for the remainder, about 1 ns in
  all, not np.divmod, 4.0 ns;
- a choice between two values is mask arithmetic (a 0/1 mask times a
  constant, 0.7 ns, or s + (t - s) m in wrapping arithmetic), not a ufunc
  with ``where=``, 7.9 ns;
- each of a row's four words is assembled in a contiguous array and stored
  once into its strided column of the result.

A call on 16 384 values costs about 140 ns per value (180 ns with divmod,
masked ufuncs and fancy indexing).

``tests/test_floattext.py`` checks the bytes against ``repr`` bit pattern by
bit pattern.
"""

from __future__ import annotations

import functools

import numpy as np

REPR_NONFINITE = (b"nan", b"inf", b"-inf")
JSON_NONFINITE = (b"NaN", b"Infinity", b"-Infinity")

_K_MIN, _K_MAX = -324, 292
_U = np.uint64
_INF, _ONE = _U(0x7FF0000000000000), _U(0x3FF0000000000000)
_ZEROS = _U(0x3030303030303030)


def _flog2pow10(e):
    """floor(log2(10**e)), exact for |e| <= 1233."""
    return (e * 913124641741) >> 38


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


def _signed(f, lo, hi):
    """[f(i)] for lo <= i < hi, laid out so that numpy indexes it by i:
    i >= 0 from the start, negative i from the end."""
    return [f(i) for i in range(hi)] + [f(i) for i in range(lo, 0)]


@functools.cache
def _tables():
    """The lookup tables, built from exact integers on first use."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        # g(k) = floor(10^-k 2^-r) + 1 with 2^125 <= g(k) < 2^126
        r = _flog2pow10(-k) - 125
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        g.append((num << max(-r, 0)) // (den << max(r, 0)) + 1)
    masks = [(1 << 8 * i) - 1 for i in range(9)]
    arr = functools.partial(np.array, dtype=np.uint64)
    # eff, the decimal point's position (1 in exponent form), is in [-3, 16];
    # e <= 0 puts no point among the digits after the first
    point_at = lambda e: e - 1 if e > 0 else 17  # noqa: E731
    return {
        # g = g1 2^64 + g0 in 32-bit halves, and the two words of 2g
        "g0_hi": arr([(v >> 32) & 0xFFFFFFFF for v in g]),
        "g0_lo": arr([v & 0xFFFFFFFF for v in g]),
        "g1_hi": arr([v >> 96 for v in g]),
        "g1_lo": arr([(v >> 64) & 0xFFFFFFFF for v in g]),
        "g2_hi": arr([(2 * v) >> 64 for v in g]),
        "g2_lo": arr([(2 * v) & (2**64 - 1) for v in g]),
        "pow10": arr([10**i for i in range(18)]),
        # by the number of digits shown, 1-17: the digit bytes of each word
        "shown1": arr([masks[min(max(s - 1, 0), 8)] for s in range(18)]),
        "shown2": arr([masks[min(max(s - 9, 0), 8)] for s in range(18)]),
        # by eff: a point at byte b = eff - 1 of the 16 digits after the
        # first, the digits from there moved up one byte
        "keep1": arr(_signed(lambda e: masks[min(point_at(e), 8)], -3, 17)),
        "keep2": arr(_signed(lambda e: masks[min(max(point_at(e) - 8, 0), 8)], -3, 17)),
        "point1": arr(_signed(lambda e: 0x2E << 8 * point_at(e) if point_at(e) < 8 else 0,
                              -3, 17)),
        "point2": arr(_signed(lambda e: 0x2E << 8 * (point_at(e) - 8)
                              if 8 <= point_at(e) < 16 else 0, -3, 17)),
        # by eff: "0." and up to three zeros before the digits, after the sign
        "prefix": arr(_signed(lambda e: _word(b"\0" + b"0.000"[:2 - e]) if e < 1 else 0,
                              -3, 17)),
        # by the decimal point position d in [-323, 309]: "e+dd" (exponent
        # d - 1) at byte 2, in exponent form only
        "exponent": arr(_signed(lambda d: _word(b"e%+03d" % (d - 1)) << 16
                                if d < -3 or d > 16 else 0, -324, 310)),
    }


def _mul(g_hi, g_lo, i, b_hi, b_lo):
    """High and low 64-bit words of g b, where g = g_hi[i] 2^32 + g_lo[i] and
    b = b_hi 2^32 + b_lo: the two middle partial products are added into the
    low word, each with its carry into the high word."""
    a = g_lo.take(i)
    lo = a * b_lo
    a *= b_hi
    hi = a >> 32
    a <<= 32
    lo += a
    hi += lo < a
    del a
    a = g_hi.take(i)
    mid = a * b_lo
    a *= b_hi
    hi += a
    del a
    hi += mid >> 32
    mid <<= 32
    lo += mid
    hi += lo < mid
    return hi, lo


def _rop(w2, w1, w0, shifts):
    """floor(w 2^h / 2^127), w = w2 2^128 + w1 2^64 + w0, rounded to odd by
    the bits from 2^64 up of w 2^h: the bits below hold g's excess over
    10^-k 2^-r times c << (h + 2), which is below 2^64.  shifts holds h + 1,
    63 - h and 64 - h."""
    up, down1, down0 = shifts
    r = w1 << up
    t = w0 >> down0
    r |= t
    odd = r != 0
    np.right_shift(w1, down1, out=r)
    np.left_shift(w2, up, out=t)
    r |= t
    r |= odd
    return r


def _add(w, d1, d0):
    """w += d1 2^64 + d0 in place, w the words (w2, w1, w0) of a 192-bit
    integer and d1 < 2^63."""
    w2, w1, w0 = w
    w0 += d0
    t = d1 + (w0 < d0)
    w1 += t
    w2 += w1 < t


def _sub(w, d1, d0):
    """w -= d1 2^64 + d0 in place, as _add."""
    w2, w1, w0 = w
    t = d1 + (w0 < d0)
    w0 -= d0
    w2 -= w1 < t
    w1 -= t


def _decimal(bits, special, tab):
    """(d, k): the shortest decimal d 10^k closest to each finite positive
    value with these bits (sign ignored), d < 10^17 possibly with trailing
    zeros, k as int16.  Rows at the indices `special` are formatted as 1.0."""
    c = bits & _U(2**63 - 1)
    c[special] = _ONE
    bq = c >> 52
    c &= _U(2**52 - 1)
    # at a power of two above the least exponent the gap below the value is
    # half the gap above it
    irregular = np.flatnonzero((c == 0) & (bq > 1))
    # the hidden bit, where the biased exponent is not 0
    t = np.minimum(bq, _U(1))
    t <<= _U(52)
    c |= t
    del t
    q = bq.view(np.int64)
    np.maximum(q, 1, out=q)
    q -= 1075
    k = q * 661971961083
    k[irregular] -= 274743187321
    k >>= 41
    h = -k
    h *= 913124641741
    h >>= 38                         # _flog2pow10(-k)
    h += q
    h += 2                           # in [2, 5]
    del bq, q
    h = h.astype(np.uint8)
    shifts = (h + 1, 63 - h, 64 - h)
    del h
    i = k - _K_MIN
    k = k.astype(np.int16)
    odd = (c & _U(1)).astype(bool)
    c <<= 2
    b_hi = (c >> 32).astype(np.uint32)
    b_lo = c.astype(np.uint32)
    del c
    hi0, w0 = _mul(tab["g0_hi"], tab["g0_lo"], i, b_hi, b_lo)
    w2, w1 = _mul(tab["g1_hi"], tab["g1_lo"], i, b_hi, b_lo)
    del b_hi, b_lo
    w1 += hi0
    w2 += w1 < hi0
    del hi0
    w = (w2, w1, w0)

    vb = _rop(*w, shifts)
    s = vb >> 2
    # s or s + 1, the closer one (the even one on a tie)
    vb &= _U(3)
    closer = (vb < 2) | ((vb == 2) & ((s & _U(1)) == 0))
    del vb
    # the interval bounds g (cb + 2) and g (cb - 2), or g (cb - 1) below an
    # irregular value: w plus 2g, then w minus 2g or g, each rounded
    d1, d0 = tab["g2_hi"].take(i), tab["g2_lo"].take(i)
    del i
    _add(w, d1, d0)
    vbr = _rop(*w, shifts)
    # sp10 or sp10 + 10 (one digit shorter), and s or s + 1, each where it
    # lies inside the interval: its right end
    t = s // _U(10)
    t *= _U(40)
    t += odd
    t += _U(40)
    shorter_in = t <= vbr            # 4 (sp10 + 10) + odd
    np.left_shift(s, 2, out=t)
    t += odd
    t += _U(4)
    closer |= t > vbr
    del t, vbr
    _sub(w, d1, d0)
    d0[irregular] = (d0[irregular] >> _U(1)) | (d1[irregular] << _U(63))
    d1[irregular] >>= _U(1)
    _sub(w, d1, d0)
    del d1, d0
    vbl = _rop(*w, shifts)
    del w, w0, w1, w2
    # and its left end
    vbl += odd
    sp4 = s // _U(10)
    sp4 *= _U(40)                    # 4 sp10
    upin = vbl <= sp4
    t = s << 2
    pick_s = vbl <= t
    del t, vbl
    pick_s &= closer
    shorter = (s >= 10) & (upin != shorter_in)
    s += ~pick_s
    # s, or sp10 (+ 10 where not upin) where shorter: s + (that - s) shorter
    # in wrapping arithmetic
    sp4 >>= 2                        # sp10
    sp4 += _U(10)
    t = np.multiply(upin, _U(10))
    sp4 -= t
    del t
    sp4 -= s
    sp4 *= shorter
    s += sp4
    return s, k


def _swar8(x):
    """Eight decimal digits of each x < 10^8, in place, most significant in
    byte 0."""
    q = x // _U(10000)
    t = q * _U(10000)
    x -= t
    x <<= 32
    x |= q
    np.multiply(x, _U(5243), out=q)  # // 100 per 32-bit lane
    q >>= 19
    q &= _U(0x0000007F0000007F)
    np.multiply(q, _U(100), out=t)
    x -= t
    x <<= 16
    x |= q
    np.multiply(x, _U(103), out=q)   # // 10 per 16-bit lane
    q >>= 10
    q &= _U(0x000F000F000F000F)
    np.multiply(q, _U(10), out=t)
    x -= t
    x <<= 8
    x |= q


def _top_byte(x):
    """Index of the highest nonzero byte of each x < 2^60, -128 for x = 0."""
    b = x.astype(np.float64).view(np.int64)
    b >>= 52
    b -= 1023
    b >>= 3
    return b


def columns(values, nonfinite=REPR_NONFINITE, sep=b""):
    """uint8 matrix whose row i is the text of values[i] and then sep.

    The text stands in bytes 0-30 of the row, in order with NULs between;
    sep starts at byte 31 and the rest of the row is NUL.  The row is
    32 + 8 ceil((len(sep) - 1) / 8) bytes wide.
    """
    tab = _tables()
    values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    bits = values.view(np.uint64)
    mag = bits & _U(2**63 - 1)
    # zeros and non-finite values (mag - 1 wraps round at 0)
    special = np.flatnonzero(mag - _U(1) >= _INF - _U(1))
    mag = mag[special]
    d, k = _decimal(bits, special, tab)

    # nd digits, from the binary exponent of d (which gives nd or nd - 1) and
    # one comparison; then d is scaled to 17 digits and split 1 + 8 + 8
    nd = d.astype(np.float64).view(np.int64)
    nd >>= 52
    nd -= 1022
    nd *= 1233
    nd >>= 12
    pow10 = tab["pow10"]
    nd += d >= pow10.take(nd)
    d *= pow10.take(17 - nd)
    top = d // _U(10**16)
    w1 = top * _U(10**16)
    d -= w1
    np.floor_divide(d, _U(10**8), out=w1)
    w2 = d
    del d
    t = w1 * _U(10**8)
    w2 -= t
    del t
    _swar8(w1)                        # digits 2-9
    _swar8(w2)                        # digits 10-17
    # n significant digits, trailing zeros dropped
    n = _top_byte(w2)
    n += 10
    t = _top_byte(w1)
    t += 2
    np.maximum(n, t, out=n)
    del t
    np.maximum(n, 1, out=n)

    decpt = nd
    decpt += k
    del nd, k
    expo = (decpt < -3) | (decpt > 16)
    eff = np.where(expo, 1, decpt)   # 1 in exponent form
    shown = np.maximum(n, eff)
    w1 += _ZEROS
    w1 &= tab["shown1"].take(shown)
    w2 += _ZEROS
    w2 &= tab["shown2"].take(shown)
    del shown
    trail = (eff >= n) & ~expo
    nopoint = expo & (n == 1)
    del n, expo
    top += _U(48)
    top <<= 56
    top |= tab["prefix"].take(eff)
    # the point goes after digit eff - 1 (after the first in exponent form,
    # where there is more than one)
    eff *= ~nopoint
    del nopoint
    t = bits >> 63
    t *= _U(45)
    top |= t
    # the exponent, "0" after an integral value's point, sep[0]; the last
    # digit moved goes in below
    last = tab["exponent"].take(decpt)
    del decpt
    np.multiply(trail, _U(48 << 8), out=t)
    last |= t
    del t, trail
    if sep:
        last |= _U(sep[0]) << _U(56)
    # the digits from the point's byte move up one byte, the last one into
    # the next word
    move = tab["keep2"].take(eff)
    np.invert(move, out=move)
    move &= w2
    w2 ^= move
    t = move >> _U(56)
    last |= t
    move <<= 8
    w2 |= move
    w2 |= tab["point2"].take(eff)
    move = tab["keep1"].take(eff)
    np.invert(move, out=move)
    move &= w1
    w1 ^= move
    np.right_shift(move, 56, out=t)
    w2 |= t
    del t
    move <<= 8
    w1 |= move
    del move
    w1 |= tab["point1"].take(eff)
    del eff
    # the four words, each assembled in a contiguous array, stored once
    words = np.empty((len(values), 4 + (len(sep) + 6) // 8), dtype="<u8")
    for col, word in enumerate((top, w1, w2, last)):
        words[:, col] = word
    del top, w1, w2, last, word
    if len(sep) > 1:
        words[:, 4:] = np.frombuffer(sep[1:].ljust(8 * (words.shape[1] - 4), b"\0"),
                                     dtype="<u8")
    out = words.view(np.uint8)
    if len(special):
        nan_tok, inf_tok, ninf_tok = nonfinite
        neg = bits[special] >> 63
        for rows, token, col in ((mag == 0, b"0.0", 1),
                                 (mag > _INF, nan_tok, 0),
                                 ((mag == _INF) & (neg == 0), inf_tok, 0),
                                 ((mag == _INF) & (neg == 1), ninf_tok, 0)):
            if rows.any():
                out[special[rows], col:31] = np.frombuffer(token.ljust(31 - col, b"\0"),
                                                          dtype=np.uint8)
    return out


def packed(*arrays, sep=b""):
    """One uint8 matrix per array, whose row i is the text of array[i] and
    then sep from byte 0, NUL-padded to that array's longest row; the values
    of all the arrays are formatted in one columns call."""
    sizes = [np.size(a) for a in arrays]
    values = np.concatenate([np.ravel(a) for a in arrays])
    lines = text(columns(values, sep=sep + b"\n")).split(b"\n")
    starts = np.cumsum([0] + sizes)
    return [np.array(lines[lo:hi], dtype="S").view(np.uint8).reshape(hi - lo, -1)
            for lo, hi in zip(starts[:-1], starts[1:])]


def text(matrix) -> bytes:
    """The bytes of a uint8 text matrix in row order, NULs dropped."""
    return matrix.tobytes().translate(None, b"\0")
