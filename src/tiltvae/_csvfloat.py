"""Python's float ``repr``, for whole arrays at once.

``write_rows`` writes a 2-D float64 array as CSV text whose bytes equal
``",".join(map(repr, row.tolist())) + "\\n"`` for every row: each float is
its shortest round-trip decimal, the one closest to the float when several
are that short (ties to even), in CPython's fixed or exponent notation.

Finite values with 1e-4 <= |x| < 1e16, and zeros, are formatted with array
arithmetic; anything else (nan, inf, smaller or larger magnitudes) is passed
to ``repr`` one element at a time. The digits come from exact integer
bounds, the approach of Adams' Ryu (PLDI 2018) done in int64 and float64:

- Scale: x * 10^k = p + e exactly (Dekker's TwoProduct), with k in [2, 21]
  chosen so that p lies in [1e17, 1e18). 10^k is an exact double.
- The floats that round to x form an interval of half an ulp each side (a
  quarter ulp below a power of two), closed when the mantissa is even. Its
  ends, scaled by 10^k, are turned into int64 bounds L <= H exactly
  (TwoSum).
- The digits are the multiple of 10^r in [L, H] with the largest r, and among
  those the one nearest p + e. The interval is wider than 10, so r >= 1: the
  last scaled digit is always a dropped zero.
- Integral |x| < 1e16 needs no search: its digits are its integer digits.

Each value is laid out in a fixed 24-byte slot (its 24-digit decimal with the
point inserted, then the separator) and the slots are compacted with one
boolean mask. Values that need ``repr`` cost about as much as ``repr`` plus
the array work.
"""

import bisect
import functools
import math
from itertools import chain

import numpy as np

# Values per block: enough to spread the block's ~150 array calls thin, few
# enough that its temporaries (about 1 MB) mostly fit in free heap that a
# long-running caller already holds. With 16k-value blocks, writing in process
# raised the desk benchmark's peak RSS by about 9%.
_BLOCK_VALUES = 4096
_SLOT = 24
_COMMA, _NEWLINE, _DOT, _MINUS = b",\n.-"

# 10^j as exact doubles and int64s; 10^j for j <= 22 is a double.
_POW10_F = np.array([float(10**j) for j in range(23)])
_POW10_I = np.array([10**j for j in range(19)], dtype=np.int64)
# Dekker's split of each 10^j into two 26-bit halves, for TwoProduct.
_SPLIT = 134217729.0  # 2^27 + 1
_c = _SPLIT * _POW10_F
_POW10_HI = _c - (_c - _POW10_F)
_POW10_LO = _POW10_F - _POW10_HI
del _c
# Decade thresholds: the count of them at or below |x|, minus 5, is the
# decimal exponent of |x|, exactly: 10^j is a double for j >= 0, and the
# nearest double to 10^-j (j = 1..4) lies above 10^-j, so no double falls
# between the two.
_DECADES = [1e-4, 1e-3, 1e-2, 1e-1] + [float(10**j) for j in range(16)]
# Slot index that keeps no byte, for a value that repr formats (s = 23, e = 0).
_EMPTY = 23 * _SLOT


@functools.cache
def _tables():
    """Lookup tables, built on first use: at import they would cost commands
    that write no float CSV (gamma, sweep) about 1 MB of resident memory.

    - decade_lo, decade_next: a binade holds at most one decade threshold, so
      the count is decade_lo[e] + (|x| >= decade_next[e]) for the biased
      binary exponent e of |x|.
    - digits4: "0000".."9999" as native uint32, so that a gather lays down
      ASCII digits.
    - shifted[k]: the slot bytes that take their neighbour's digit (the
      integer part moves one byte left to make room for the point before the
      last k).
    - keep[s * 24 + e]: bytes s..e of a slot.
    """
    decade_lo = np.array([bisect.bisect_right(_DECADES, math.ldexp(1.0, min(e, 2046) - 1023))
                          for e in range(2048)])
    decade_next = np.array(_DECADES + [math.inf])[decade_lo]
    digits4 = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)), dtype=np.uint32)
    shifted = np.frombuffer(b"".join(b"\xff" * (23 - k) + b"\0" * (1 + k) for k in range(23)),
                            dtype=np.uint8).reshape(23, _SLOT)
    keep = np.frombuffer(b"".join(b"\0" * s + b"\1" * max(0, e + 1 - s) + b"\0" * (_SLOT - max(s, e + 1))
                                  for s in range(_SLOT) for e in range(_SLOT)),
                         dtype=np.bool_).reshape(_SLOT * _SLOT, _SLOT)
    return decade_lo, decade_next, digits4, shifted, keep


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _shortest(x, k):
    """Shortest closest digits of positive non-integral x in [1e-4, 2^52).

    k is the decimal scale that puts x * 10^k in [1e17, 1e18). Returns
    (n, r, ok): x's repr digits are the int64 n scaled by 10^-k, n ends in
    r >= 1 zeros, and ok marks the elements certified here.
    """
    p = x * _POW10_F[k]
    # TwoProduct: x * 10^k = p + e exactly.
    c = _SPLIT * x
    xh = c - (c - x)
    xl = x - xh
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    e = ((xh * bh - p) + xh * bl + xl * bh) + xl * bl
    # Move the integral part of e into the int64 base: value = base + e,
    # |e| <= 1/2, and e - rint(e) is exact (Sterbenz).
    shift = np.rint(e)
    e -= shift
    base = p.astype(np.int64) + shift.astype(np.int64)
    # Half an ulp of x scaled by 10^k, exact: 2^(exponent - 53) * 10^k.
    bits = x.view(np.int64)
    half = (((bits >> 52) - 53) << 52).view(np.float64) * _POW10_F[k]
    below = np.where((bits & ((1 << 52) - 1)) == 0, 0.5 * half, half)
    closed = (bits & 1) == 0
    # Integer bounds of [value - below, value + half], open unless closed.
    s, t = _two_sum(e, -below)
    f = np.ceil(s)
    lo = base + f.astype(np.int64) + ((f == s) & ((t > 0) | ((t == 0) & ~closed)))
    s, t = _two_sum(e, half)
    f = np.floor(s)
    hi = base + f.astype(np.int64) - ((f == s) & ((t < 0) | ((t == 0) & ~closed)))
    # Largest r with a multiple of 10^r in [lo, hi]. The interval is wider
    # than 10, so r >= 1 (the final check certifies it); feasibility only
    # shrinks with r, so elements drop out as they fail.
    r = np.ones(x.size, dtype=np.int64)
    live = np.arange(x.size)
    live_lo, live_hi = lo, hi
    for j in range(2, _POW10_I.size):
        d = _POW10_I[j]
        fits = (live_hi // d) * d >= live_lo
        live, live_lo, live_hi = live[fits], live_lo[fits], live_hi[fits]
        r[live] = j
        if not live.size:
            break
    # The multiple of 10^r nearest value (ties to even), moved into [lo, hi].
    d = _POW10_I[r]
    q = base // d
    gap = (d - 2 * (base - q * d)).astype(np.float64)
    twice_e = 2.0 * e
    q += (twice_e > gap) | ((twice_e == gap) & (q % 2 == 1))
    n = q * d
    n -= d * (n > hi)
    n += d * (n < lo)
    return n, r, (lo <= n) & (n <= hi)


def _format_block(values, rows, seps):
    """Bytes of the rows of a non-empty 2-D float64 block. ``rows`` holds the
    slot offsets 0, 24, 48, ... and ``seps`` the byte after each value, both
    at least as long as the block."""
    decade_lo, decade_next, digits4, shifted, keep_rows = _tables()
    flat = values.ravel()
    m = flat.size
    mag = np.abs(flat)
    fast = ((mag >= 1e-4) & (mag < 1e16)) | (mag == 0.0)
    mag = np.where(fast, mag, 0.0)
    whole = np.floor(mag)
    binade = mag.view(np.int64) >> 52
    decade = np.take(decade_lo, binade) + (mag >= np.take(decade_next, binade))
    # Integral values: digits n = 100 |x| with the point before the last 2.
    n = whole.astype(np.int64) * 100
    k = np.full(m, 2, dtype=np.int64)
    r = np.full(m, 2, dtype=np.int64)
    frac = np.flatnonzero(whole != mag)
    if frac.size:
        k[frac] = 22 - decade[frac]
        n[frac], r[frac], ok = _shortest(mag[frac], k[frac])
        fast[frac[~ok]] = False
    # Slot layout: the 24-digit decimal of n, with the digits before the
    # last k moved one byte left and "." put in the byte this frees.
    slots = np.empty((m, 6), dtype=np.uint32)
    slots[:, 0] = digits4[0]
    q = n
    for j in range(5, 0, -1):
        nq = q // 10000
        slots[:, j] = digits4[q - nq * 10000]
        q = nq
    raw = np.empty(m * _SLOT + 1, dtype=np.uint8)
    raw[:-1] = slots.view(np.uint8).ravel()
    digits = raw[:-1].reshape(m, _SLOT)
    moved = raw[1:].reshape(m, _SLOT)
    out = digits ^ ((digits ^ moved) & np.take(shifted, k, axis=0))
    # The kept bytes: optional sign, the integer digits, ".", the fraction
    # digits without trailing zeros (at least one), then the separator.
    dot = 23 - k
    digits_before = np.maximum(1, decade - 4)
    neg = np.signbit(flat)
    start = dot - digits_before - neg
    stop = np.maximum(dot + 1 + k - r, dot + 2)
    rows, seps = rows[:m], seps[:m]
    out = out.ravel()
    out[rows + dot] = _DOT
    out[(rows + start)[neg & fast]] = _MINUS
    out[rows + stop] = seps
    keep = np.where(fast, start * _SLOT + stop, _EMPTY)
    text = out[np.take(keep_rows, keep, axis=0).ravel()]
    slow = np.flatnonzero(~fast)
    if not slow.size:
        return text.tobytes()
    # Splice in repr for the values the arrays did not format.
    text = text.tobytes()
    cuts = np.cumsum(np.where(fast, stop - start + 1, 0))[slow].tolist()
    bounds = [0, *cuts, len(text)]
    between = [text[a:b] for a, b in zip(bounds, bounds[1:])]
    reprs = map(str.encode, map(repr, flat[slow].tolist()))
    ends = seps[slow].view("S1").tolist()
    return b"".join(chain.from_iterable(zip(between, reprs, ends))) + between[-1]


def format_blocks(values):
    """Yield (first row, text) for consecutive blocks of rows of a 2-D
    float64 array, about 4k values each; the text is the rows' CSV bytes."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {values.shape}")
    n_rows, n_cols = values.shape
    if not values.size:
        yield 0, b"\n" * n_rows
        return
    step = max(1, _BLOCK_VALUES // n_cols)
    rows = np.arange(0, step * n_cols * _SLOT, _SLOT)
    seps = np.full((step, n_cols), _COMMA, dtype=np.uint8)
    seps[:, -1] = _NEWLINE
    seps = seps.ravel()
    for i in range(0, n_rows, step):
        yield i, _format_block(values[i:i + step], rows, seps)


def write_rows(fh, values) -> None:
    """Write a 2-D float64 array to the binary file ``fh`` as CSV rows."""
    for _, text in format_blocks(values):
        fh.write(text)
