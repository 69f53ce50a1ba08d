"""Exact, vectorized ``%.17g`` formatting of float64 arrays.

``format_g17(values)`` returns the bytes of
``",".join("%.17g" % v for v in values)``, byte for byte, several times
faster than Python's ``%`` on long arrays (the per-minute rows of
``wqmpc simulate``).

Method.  For |v| = a, let e = floor(log10(a)); the 17 significant digits
are N = round(a * 10**(16 - e)), an integer in [1e16, 1e17).  The scaled
value is formed in double-double arithmetic: 10**k is held as a pair
(H, L) of doubles whose sum is 10**k to about 106 bits (built from exact
Python integers), and a * H is taken exactly with Dekker's TwoProduct and
a Veltkamp split (Dekker, Numer. Math. 18, 1971), so no fused
multiply-add is needed.  The error of a * (H + L) is below 1e-14 at this
scale, so the rounding of N is decided exactly except near a tie.  e is
corrected against the scaled value (not against log10, whose last ulp may
be off), and once more when rounding carries N to 1e17.

The text is laid out in 32-byte slots, one per value: four 8-byte
words, with every byte the value does not use set to NUL.  Word 0 holds
the sign, the ``0.`` and leading zeros of fixed notation below 1, d0,
and the ``.`` when a later digit is not zero; words 1-2 hold digits
1-16 in four groups of four, a group's trailing zeros NUL when every
later group is zero; word 3 holds ``e±XX`` or ``e±XXX`` (none in fixed
notation, -4 <= X < 17 with X the decimal exponent after rounding) and
the separator.  Each word is looked up whole in a table that already
holds its NULs, and one ``bytes.translate`` deletes them.  Values are
done in chunks of ``CHUNK`` values, so memory does not grow with the
array's length.

Fallback.  A value goes to Python's own ``"%.17g" % v`` when it is not
finite, lies outside [1e-270, 1e270] (the table's range; zero is
handled), has a scaled fraction within 1e-6 of a rounding tie, or needs
fixed notation with X >= 1 (in ``wqmpc simulate`` that is mostly the
``time_s`` column).  So the output is exact for every float64.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_g17"]

CHUNK = 4096            # values formatted per pass
SLOT = 32               # bytes per value in the layout, four words
EXP_MIN = -270          # |v| range of the fast path, as powers of ten
EXP_MAX = 270
TIE_MARGIN = 1e-6       # scaled fractions this close to 0.5 fall back
_BOUND_MARGIN = 1e-3    # below 0.05: see _out_of_range
_SPLIT = 134217729.0    # 2**27 + 1, Veltkamp's splitting constant
_E16, _E17 = 10**16, 10**17


def _pow10_table(k_min: int, k_max: int):
    """(H, L) with H + L = 10**k to ~106 bits, for k in [k_min, k_max].

    H is 10**k correctly rounded and L the correctly rounded remainder,
    both from exact integer arithmetic (int / int is correctly rounded).
    """
    hi, lo = [], []
    for k in range(k_min, k_max + 1):
        if k >= 0:
            p = 10**k
            h = float(p)
            lo.append(float(p - int(h)))
        else:
            q = 10**-k
            h = 1 / q
            m, d = h.as_integer_ratio()
            lo.append((d - m * q) / (d * q))  # 1/q - m/d, exactly rounded
        hi.append(h)
    hi = np.array(hi)
    c = _SPLIT * hi
    hh = c - (c - hi)
    return hi, hh, hi - hh, np.array(lo)


_K_MIN = 16 - (EXP_MAX + 1)
_K_MAX = 16 - (EXP_MIN - 1)
_H, _HH, _HL, _L = _pow10_table(_K_MIN, _K_MAX)


def _words(items) -> np.ndarray:
    """Byte strings of at most 8 bytes, NUL-padded, as native uint64 words."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in items), dtype=np.uint64)


# word 0, the head: the sign, the "0." and zeros of fixed notation below 1,
# d0 and the "." that follows it when a later digit is not zero; by
# [notation, d0, dot, sign], notation 0 for scientific (and X = 0), else
# -X for fixed with -4 <= X < 0
_HEADS = _words(
    b"-" * sign + (b"0." + b"0" * (fix - 1)) * (fix > 0) + b"%d" % d0
    + b"." * (dot and not fix)
    for fix in range(5) for d0 in range(10) for dot in (0, 1) for sign in (0, 1)
)
# words 1-2: digits 1-16, four per uint32 (a byte view, so the order of
# the bytes holds on any machine), by [stripped, group]: "0000" ...
# "9999", then each with its trailing zeros as NULs
_DIGITS = np.stack(
    np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1
).reshape(-1, 4)
_TRAILING = np.logical_and.accumulate(_DIGITS[:, ::-1] == 48, axis=1)[:, ::-1]
_GROUPS = (
    np.stack([_DIGITS, np.where(_TRAILING, np.uint8(0), _DIGITS)]).view(np.uint32).ravel()
)
# word 3, the tail: "e+XX" or "e+XXX" and the comma, by exponent; fixed
# notation (-4 <= X < 17) has only the comma
_X_MIN, _X_MAX = EXP_MIN - 2, EXP_MAX + 2
_X = np.arange(_X_MIN, _X_MAX + 1)
_TAILS = _words(
    b"," if -4 <= x < 17 else b"e%+03d," % x for x in range(_X_MIN, _X_MAX + 1)
)
_NOTATION = np.where((_X >= -4) & (_X < 0), -40 * _X, 0)  # into _HEADS, 40 per notation


def _scaled(a: np.ndarray, e: np.ndarray):
    """a * 10**(16 - e) as a normalized double-double (s, t)."""
    i = (16 - _K_MIN) - e
    hh, hl = _HH[i], _HL[i]
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    p = a * _H[i]
    # Dekker's error term of a * H, then a * L; in place, same order
    lo = ah * hh
    lo -= p
    ah *= hl
    lo += ah
    hh *= al
    lo += hh
    al *= hl
    lo += al
    lo += a * _L[i]
    s = p + lo
    p -= s
    p += lo
    return s, p


def _out_of_range(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """-1 where s + t < 1e16, +1 where s + t >= 1e17, else 0.

    Both bounds are widened by _BOUND_MARGIN, far above the error of
    (s, t) and far below the distance at which rounding at 17 digits
    tells the two scales apart: a value that near 1e16 or 1e17 rounds to
    it, and so to the same digits in either scale.  So an exact power of
    ten is never moved back and forth on the last bits of (s, t).
    """
    shift = ((s - 1e17) + t >= _BOUND_MARGIN).astype(np.int64)
    shift -= (s - 1e16) + t < -_BOUND_MARGIN
    return shift


def _format_chunk(v: np.ndarray) -> bytes:
    """The text of ``v``, each value followed by a comma."""
    n = v.size
    a = np.abs(v)
    fast = (a >= 10.0**EXP_MIN) & (a <= 10.0**EXP_MAX)
    a = np.where(fast, a, 2.0)  # zeros too: their digits are fixed below
    e = np.floor(np.log10(a)).astype(np.int64)
    s, t = _scaled(a, e)
    # log10 may be off in its last ulp: correct e until the scaled value
    # lies in [1e16, 1e17), which only values next to a power of ten need
    moved = np.flatnonzero((s <= 1e16) | (s >= 1e17))
    while moved.size:
        shift = _out_of_range(s[moved], t[moved])
        moved = moved[shift != 0]
        e[moved] += shift[shift != 0]
        s[moved], t[moved] = _scaled(a[moved], e[moved])
    rt = np.rint(t)
    n17 = s.astype(np.int64) + rt.astype(np.int64)
    carry = np.flatnonzero(n17 == _E17)
    if carry.size:  # 99999999999999999.5 and up round to 1e17
        n17[carry] = _E16
        e[carry] += 1
    zero = v == 0.0
    slow = ~(fast | zero)
    slow |= np.abs(t - rt) > 0.5 - TIE_MARGIN  # near a tie
    slow |= (e - 1).view(np.uint64) < 16  # fixed notation with X >= 1

    hi9 = n17 // 10**8
    lo8 = n17 - hi9 * 10**8
    d0 = hi9 // 10**8
    hi8 = hi9 - d0 * 10**8
    g0 = hi8 // 10**4
    g2 = lo8 // 10**4
    groups = (g0, hi8 - g0 * 10**4, g2, lo8 - g2 * 10**4)
    xi = e - _X_MIN  # e lies in [EXP_MIN - 1, EXP_MAX + 1]

    text = np.empty((n, SLOT // 8), dtype=np.uint64)
    text32 = text.view(np.uint32)
    # from the last group back: stripped while every later group is zero
    rest_zero = np.ones(n, dtype=np.bool_)
    for i in (3, 2, 1, 0):
        text32[:, 2 + i] = _GROUPS[groups[i] + 10000 * rest_zero]
        rest_zero &= groups[i] == 0
    head = _NOTATION[xi] + 4 * np.where(zero, 0, d0)  # zeros were scaled as 2
    head += 2 * ~rest_zero
    head += np.signbit(v)
    text[:, 0] = _HEADS[head]
    text[:, 3] = _TAILS[xi]
    for j in np.flatnonzero(slow):
        text[j] = np.frombuffer((b"%.17g," % v[j]).ljust(SLOT, b"\0"), dtype=np.uint64)
    return text.tobytes().translate(None, b"\0")


def format_g17(values) -> bytes:
    """``",".join("%.17g" % v for v in values)`` as ASCII bytes, exactly.

    ``values`` is converted to a 1-D float64 array.  See the module
    docstring for the method and for the values formatted by Python.
    """
    v = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    text = b"".join(_format_chunk(v[i : i + CHUNK]) for i in range(0, v.size, CHUNK))
    return text[:-1]  # the last value's comma
