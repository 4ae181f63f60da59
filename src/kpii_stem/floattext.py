"""Shortest round-trip text of float64 arrays, byte for byte as ``repr``.

``columns(values, nonfinite, sep)`` lays out the text of each value, and a
separator after it, in one row of a uint8 matrix with NUL in every byte the
value does not use; ``text(matrix)`` drops the NULs and returns the rows'
characters in order, so a caller can place other text columns beside it (the
CSV lines of ``kpii-stem sample``) and compact everything once.  A row is four
little-endian words, each filled by integer arithmetic on whole arrays:

    sign, "0." and up to three zeros, the first digit
    digits 2-9    } the point goes in at its byte and the digits after
    digits 10-17  } it move up one byte, NUL where no digit is shown
    the last digit moved, "0" after an integral value's point, the
    exponent "e+dd" or "e-ddd", the separator's first byte

and the rest of the separator follows in whole words.  ``packed(values,
sep)`` gives the same text from byte 0 of each row, as wide as the longest.

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
_M32 = _U(0xFFFFFFFF)
_INF, _ONE = _U(0x7FF0000000000000), _U(0x3FF0000000000000)
_ZEROS = _U(0x3030303030303030)


def _flog2pow10(e):
    """floor(log2(10**e)), exact for |e| <= 1233."""
    return (e * 913124641741) >> 38


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


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
    return {
        # g = g1 2^64 + g0 in 32-bit halves, and the two words of 2g
        "g0_hi": arr([(v >> 32) & 0xFFFFFFFF for v in g]),
        "g0_lo": arr([v & 0xFFFFFFFF for v in g]),
        "g1_hi": arr([v >> 96 for v in g]),
        "g1_lo": arr([(v >> 64) & 0xFFFFFFFF for v in g]),
        "g2_hi": arr([(2 * v) >> 64 for v in g]),
        "g2_lo": arr([(2 * v) & (2**64 - 1) for v in g]),
        "pow10": arr([10**i for i in range(18)]),
        # the first i bytes of a word
        "mask": arr(masks),
        # a point inserted at byte b of the 16 digit bytes; b = 17: none
        "keep1": arr([masks[min(b, 8)] for b in range(18)]),
        "keep2": arr([masks[min(max(b - 8, 0), 8)] for b in range(18)]),
        "point1": arr([0x2E << 8 * b if b < 8 else 0 for b in range(18)]),
        "point2": arr([0x2E << 8 * (b - 8) if 8 <= b < 16 else 0 for b in range(18)]),
        # "0." and up to three zeros before the digits, after the sign byte
        "prefix": arr([_word(b"\0" + b"0.000"[:i + 1]) if i else 0 for i in range(5)]),
        # "e+dd" for exponents -324 ... 308 at index + 325; index 0: none
        "exponent": arr([0] + [_word(b"e%+03d" % x) for x in range(-324, 309)]),
    }


def _mul(a_hi, a_lo, b_hi, b_lo):
    """High and low 64-bit words of a b, from the 32-bit halves of a and b."""
    ll, lh, hl = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (ll >> 32) + (lh & _M32) + (hl & _M32)
    return (a_hi * b_hi + (lh >> 32) + (hl >> 32) + (mid >> 32),
            (mid << 32) | (ll & _M32))


def _rop(w2, w1, w0, h):
    """floor(w 2^h / 2^127), w = w2 2^128 + w1 2^64 + w0, rounded to odd by
    the bits from 2^64 up of w 2^h: the bits below hold g's excess over
    10^-k 2^-r times c << (h + 2), which is below 2^64."""
    return ((w2 << (h + 1)) | (w1 >> (63 - h))
            | (((w1 << (h + 1)) | (w0 >> (64 - h))) != 0))


def _decimal(bits, tab):
    """(d, k): the shortest decimal d 10^k closest to each finite positive
    value with these bits, d < 10^17 possibly with trailing zeros."""
    bq = bits >> 52
    t = bits & _U(2**52 - 1)
    c = t | ((bq != 0).astype(np.uint64) << 52)
    q = np.maximum(bq.astype(np.int64), 1) - 1075
    # at a power of two above the least exponent the gap below the value is
    # half the gap above it
    irregular = (t == 0) & (bq > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    i = k - _K_MIN
    cb = c << 2
    b_hi, b_lo = cb >> 32, cb & _M32
    hi0, w0 = _mul(tab["g0_hi"][i], tab["g0_lo"][i], b_hi, b_lo)
    hi1, lo1 = _mul(tab["g1_hi"][i], tab["g1_lo"][i], b_hi, b_lo)
    w1 = hi0 + lo1
    w2 = hi1 + (w1 < lo1)
    vb = _rop(w2, w1, w0, h)
    # the interval bounds g (cb + 2) and g (cb - 2), or g (cb - 1) below an
    # irregular value: w plus or minus 2g, or g
    g2_hi, g2_lo = tab["g2_hi"][i], tab["g2_lo"][i]
    irr = irregular.astype(np.uint64)
    d1 = g2_hi >> irr
    d0 = (g2_lo >> irr) | ((g2_hi & irr) << 63)
    borrow = w0 < d0
    vbl = _rop(w2 - (w1 < d1 + borrow), w1 - d1 - borrow, w0 - d0, h)
    y0 = w0 + g2_lo
    t1 = g2_hi + (y0 < w0)
    y1 = w1 + t1
    vbr = _rop(w2 + (y1 < t1), y1, y0, h)

    out = c & _U(1)
    s = vb >> 2
    sp10 = s // 10 * 10
    # sp10 or sp10 + 10, one digit shorter, where exactly one is inside
    upin = vbl + out <= sp10 << 2
    shorter = (s >= 10) & (upin != (((sp10 + 10) << 2) + out <= vbr))
    # else s or s + 1, whichever is inside, the closer one (the even one on
    # a tie) where both are
    mid = (s << 2) + 2
    closer = (vb < mid) | ((vb == mid) & (s & _U(1) == 0))
    pick_s = (vbl + out <= s << 2) & (closer | (((s + 1) << 2) + out > vbr))
    d = s + ~pick_s
    d += (sp10 + _U(10) * ~upin - d) * shorter
    return d, k


def _swar8(x):
    """Eight decimal digits of each x < 10^8, most significant in byte 0."""
    hi = x // 10000
    v = hi | ((x - hi * 10000) << 32)
    q = ((v * 5243) >> 19) & _U(0x0000007F0000007F)  # // 100 per 32-bit lane
    v = q | ((v - q * 100) << 16)
    q = ((v * 103) >> 10) & _U(0x000F000F000F000F)   # // 10 per 16-bit lane
    return q | ((v - q * 10) << 8)


def _top_byte(x):
    """Index of the highest nonzero byte of each x < 2^60, -128 for x = 0."""
    return ((x.astype(np.float64).view(np.uint64) >> 52).astype(np.int64) - 1023) >> 3


def columns(values, nonfinite=REPR_NONFINITE, sep=b""):
    """uint8 matrix whose row i is the text of values[i] and then sep.

    The text stands in bytes 0-30 of the row, in order with NULs between;
    sep starts at byte 31 and the rest of the row is NUL.  The row is
    32 + 8 ceil((len(sep) - 1) / 8) bytes wide.
    """
    tab = _tables()
    values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    bits = values.view(np.uint64)
    neg = bits >> 63
    mag = bits & _U(2**63 - 1)
    zero, infnan = mag == 0, mag >= _INF
    special = np.flatnonzero(zero | infnan)
    d, k = _decimal(np.where(zero | infnan, _ONE, mag) if len(special) else mag, tab)

    # nd digits, from the binary exponent of d (which gives nd or nd - 1) and
    # one comparison; then d is scaled to 17 digits and split 1 + 8 + 8
    nd = (((d.astype(np.float64).view(np.uint64) >> 52).astype(np.int64) - 1022)
          * 1233) >> 12
    pow10 = tab["pow10"]
    nd += d >= pow10[nd]
    d *= pow10[17 - nd]
    top = d // _U(10**16)
    d -= top * _U(10**16)
    mid = d // _U(10**8)
    w1 = _swar8(mid)                  # digits 2-9
    w2 = _swar8(d - mid * _U(10**8))  # digits 10-17
    # n significant digits, trailing zeros dropped
    n = np.maximum(np.maximum(_top_byte(w2) + 10, _top_byte(w1) + 2), 1)

    decpt = k + nd
    expo = (decpt < -3) | (decpt > 16)
    eff = decpt + (1 - decpt) * expo  # 1 in exponent form
    shown = np.maximum(n, eff)
    mask = tab["mask"]
    w1 = (w1 + _ZEROS) & mask[np.clip(shown - 1, 0, 8)]
    w2 = (w2 + _ZEROS) & mask[np.clip(shown - 9, 0, 8)]
    # the point goes after digit eff - 1 (after the first in exponent form,
    # where there is more than one), at byte b of the 16 digits after the
    # first; the digits from there move up one byte
    b = eff - 1
    b[(b < 0) | (expo & (n == 1))] = 17
    keep1, keep2 = tab["keep1"][b], tab["keep2"][b]
    move1, move2 = w1 & ~keep1, w2 & ~keep2
    words = np.empty((len(values), 4 + (len(sep) + 6) // 8), dtype="<u8")
    words[:, 0] = ((neg * 45) | tab["prefix"][np.clip(1 - eff, 0, 4)]
                   | ((top + 48) << 56))
    words[:, 1] = (w1 & keep1) | (move1 << 8) | tab["point1"][b]
    words[:, 2] = (w2 & keep2) | (move2 << 8) | (move1 >> 56) | tab["point2"][b]
    # the last digit moved, ".0" after an integral value, the exponent, sep[0]
    trail = (~expo & (eff >= n)) * 48
    words[:, 3] = ((move2 >> 56) | (trail.astype(np.uint64) << 8)
                   | (tab["exponent"][(decpt + 324) * expo] << 16)
                   | _U(sep[0] if sep else 0) << 56)
    if len(sep) > 1:
        words[:, 4:] = np.frombuffer(sep[1:].ljust(8 * (words.shape[1] - 4), b"\0"),
                                     dtype="<u8")
    out = words.view(np.uint8)
    if len(special):
        nan_tok, inf_tok, ninf_tok = nonfinite
        mag, neg = mag[special], neg[special]
        for rows, token, col in ((mag == 0, b"0.0", 1),
                                 (mag > _INF, nan_tok, 0),
                                 ((mag == _INF) & (neg == 0), inf_tok, 0),
                                 ((mag == _INF) & (neg == 1), ninf_tok, 0)):
            if rows.any():
                out[special[rows], col:31] = np.frombuffer(token.ljust(31 - col, b"\0"),
                                                          dtype=np.uint8)
    return out


def packed(values, sep=b""):
    """uint8 matrix whose row i is the text of values[i] and then sep from
    byte 0, NUL-padded to the longest row."""
    lines = text(columns(values, sep=sep + b"\n")).splitlines()
    return np.array(lines, dtype="S").view(np.uint8).reshape(len(lines), -1)


def text(matrix) -> str:
    """The characters of a uint8 text matrix in row order, NULs dropped."""
    return matrix.tobytes().translate(None, b"\0").decode("ascii")
