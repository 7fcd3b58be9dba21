"""Log-domain Kummer function: one kernel for the tilted prior's quantities.

Everything here is evaluated in log space because the normalization constant
of the tilted Gaussian contains a factor that scales like exp(tau^2 / 2),
which overflows double precision long before the tilt values this package
has to support (tau up to ~100, series arguments up to ~2e4).

One kernel, log_kummer_scaled, serves every caller: log(e^-z M(a, b, z)) for
a > 0, b > 0 and z >= 0, where every series term is positive. Computing the
e^-z scaling directly keeps the relative accuracy of the mean norm at huge z,
where adding -z and +z separately would cost about ULP(z) in absolute terms.

All functions are pure and thread-safe.
"""

import math

import numpy as np

from .errors import ConvergenceError, DomainError

# Series truncation: stop once the current term is this many nats below the
# running log-sum (and past the peak); hard cap on the number of terms.
_TAIL_NATS = 40.0
_MAX_TERMS = 10**6
_FIRST_CHUNK = 64
_CHUNK = 1024

# The array kernels work on slices of points whose (points x terms)
# temporaries hold at most this many doubles (64 KiB each, under 1 MB for
# all of them together), whatever the number of points.
_BLOCK_ELEMS = 1 << 13

# The large-argument expansion (DLMF 13.7.2) keeps one of Kummer's two
# solutions and omits the other, which is about |Gamma(a)/Gamma(b-a)|
# e^-z z^(b-2a) times smaller (0 where b - a is 0, -1, -2, ...). It is tried
# wherever that ratio is below e^_ASYMP_LOG_OMIT, and it gives the value only
# where its terms fell below 1e-17 of the sum before any term grew, within
# _ASYMP_MAX_TERMS terms. Its terms are taken in chunks of
# _BLOCK_ELEMS // (live points) terms, at least 8, so a call of a few points
# sums all _ASYMP_MAX_TERMS in one pass. Every other point is summed by the
# series, which is overflow-safe at any argument size.
_ASYMP_LOG_OMIT = math.log(1e-20)
_ASYMP_MAX_TERMS = 200


def _row_slices(live, width):
    """Split the live points into slices of rows whose (rows x width)
    temporaries hold at most _BLOCK_ELEMS doubles."""
    rows = max(1, _BLOCK_ELEMS // width)
    return [live[i:i + rows] for i in range(0, live.size, rows)]


def _log_series_pos(a: float, b: float, z):
    """log of sum_{n>=0} t_n with t_0 = 1, t_{n+1}/t_n = (a+n) z / ((b+n)(n+1)),
    for every point of a flat array z.

    Requires a > 0, b > 0, z > 0 so every term is positive; summed as a
    chunked log-sum-exp so no intermediate can overflow. All points share one
    term-index array per chunk; chunks double from _FIRST_CHUNK to _CHUNK
    terms, and a point leaves the working set once its tail is negligible.
    Each point is summed on its own, so its value does not depend on the
    other points of the call.
    """
    zf = np.asarray(z, dtype=np.float64).reshape(-1)
    log_z = np.log(zf)
    run = np.zeros(zf.size)  # log-sum including the n = 0 term
    log_t = np.zeros(zf.size)
    live = np.arange(zf.size)
    n0 = 0
    while live.size:
        if n0 >= _MAX_TERMS:
            raise ConvergenceError("series did not converge", a=a, b=b, z=float(zf[live[0]]))
        n = np.arange(n0, n0 + min(_CHUNK, max(_FIRST_CHUNK, n0)), dtype=np.float64)
        shared = np.log(a + n) - np.log(b + n) - np.log1p(n)
        done = np.concatenate([_series_chunk(shared, log_z, run, log_t, rows)
                               for rows in _row_slices(live, n.size)])
        live = live[~done]
        n0 += n.size
    return run


def _series_chunk(shared, log_z, run, log_t, rows):
    """Add one chunk of terms to the points ``rows`` in place; True where the
    tail is past the peak and 40 nats below the sum."""
    steps = shared + log_z[rows, None]
    log_terms = log_t[rows, None] + np.cumsum(steps, axis=1)
    peak = np.maximum(run[rows], log_terms.max(axis=1))
    total = peak + np.log(np.exp(run[rows] - peak)
                          + np.exp(log_terms - peak[:, None]).sum(axis=1))
    run[rows] = total
    log_t[rows] = log_terms[:, -1]
    return (steps[:, -1] < 0.0) & (log_terms[:, -1] < total - _TAIL_NATS)


def _log_kummer_asymptotic(a: float, b: float, z):
    """Large-z expansion M(a,b,z) ~ Gamma(b)/Gamma(a) e^z z^(a-b) sum_k c_k,
    c_k = (b-a)^(k) (1-a)^(k) / (k! z^k), for a flat array z.

    Returns (ok, log(e^-z M), sum_{k>=1} c_k) arrays, the last two valid
    where ok. Terms are summed while they shrink; ``ok`` holds where a term
    fell below 1e-17 of the sum before any term grew and the sum is positive.
    Elsewhere the accuracy is not certified, and the caller falls back to the
    direct series there.

    Each point's terms are one left-to-right product and its tail one
    left-to-right sum, whatever the chunk widths, which follow the number of
    live points; so a point's value does not depend on the other points.
    """
    z = np.asarray(z, dtype=np.float64)
    c = np.ones(z.size)  # last term kept
    tail = np.zeros(z.size)  # sum of the terms kept after c_0 = 1
    ok = np.zeros(z.size, dtype=bool)
    live = np.arange(z.size)
    k0 = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while live.size and k0 < _ASYMP_MAX_TERMS:
            width = min(max(8, _BLOCK_ELEMS // live.size), _ASYMP_MAX_TERMS - k0)
            k = np.arange(k0, k0 + width, dtype=np.float64)
            ratio = (b - a + k) * (1 - a + k) / (k + 1)
            stopped = np.concatenate([_asymptotic_chunk(ratio, z, c, tail, ok, rows)
                                      for rows in _row_slices(live, width)])
            live = live[~stopped]
            k0 += width
        s = 1.0 + tail
        ok &= s > 0.0
        log_m = math.lgamma(b) - math.lgamma(a) + (a - b) * np.log(z) + np.log(s)
    return ok, log_m, tail


def _asymptotic_chunk(ratio, z, c, tail, ok, rows):
    """Take up to ratio.size more terms for the points ``rows``, updating c,
    tail and ok in place; True where the sum stopped."""
    # Each row's carried term heads its product, and its carried tail its sum.
    zr = z[rows, None]
    terms = np.cumprod(np.concatenate([c[rows, None], ratio / zr], axis=1), axis=1)
    sums = np.cumsum(np.concatenate([tail[rows, None], terms[:, 1:]], axis=1), axis=1)
    grow = np.abs(ratio) >= zr
    stop = grow | (np.abs(terms[:, 1:]) <= 1e-17 * np.abs(1.0 + sums[:, 1:]))
    j = stop.argmax(axis=1)
    i = np.arange(rows.size)
    hit = stop[i, j]
    # A stopped point keeps the sum through its tiny term (one that grew is
    # not certified, so its sum is never read); a running point carries its
    # last term and sum to the next chunk.
    tail[rows] = sums[i, np.where(hit, j + 1, ratio.size)]
    c[rows] = terms[:, -1]
    ok[rows] = hit & ~grow[i, j]
    return hit


def _log_omitted(a: float, b: float, z):
    """log of the ratio of the solution the large-z expansion omits to the one
    it keeps, about |Gamma(a)/Gamma(b-a)| e^-z z^(b-2a), at points z > 0;
    -inf where b - a is 0, -1, -2, ..., so that 1/Gamma(b-a) = 0."""
    if b - a <= 0.0 and b - a == math.floor(b - a):
        return np.full(z.shape, -math.inf)
    return math.lgamma(a) - math.lgamma(b - a) - z + (b - 2.0 * a) * np.log(z)


def log_kummer_scaled(a: float, b: float, z):
    """(log(e^-z M(a, b, z)), tail), arrays of z's shape, for a > 0, b > 0 and
    finite z >= 0; M(a,b,z) = sum_n a^(n) z^n / (b^(n) n!) is Kummer's function.

    Every term is positive here, so the log carries no cancellation error.
    The large-z expansion gives the value where the solution it omits is
    negligible and it certifies itself (see the constants), the series
    elsewhere. Where the expansion e^-z M = Gamma(b)/Gamma(a) z^(a-b) (1 + tail)
    gave the value, ``tail`` is its sum past the leading 1; elsewhere it is
    NaN. Any other argument is a DomainError.
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"log_kummer_scaled needs a > 0 and b > 0, got a={a}, b={b}")
    za = np.asarray(z, dtype=np.float64)
    bad = ~(np.isfinite(za) & (za >= 0.0))
    if bad.any():
        raise DomainError(
            f"log_kummer_scaled is only supported for finite z >= 0, got z={float(za[bad][0])}")
    zf = za.reshape(-1)
    out = np.zeros(zf.size)  # M(a, b, 0) = 1
    tail = np.full(zf.size, math.nan)
    pending = zf > 0.0
    cand = np.flatnonzero(pending)
    cand = cand[_log_omitted(a, b, zf[cand]) < _ASYMP_LOG_OMIT]
    if cand.size:
        ok, log_m, cand_tail = _log_kummer_asymptotic(a, b, zf[cand])
        done = cand[ok]
        out[done] = log_m[ok]
        tail[done] = cand_tail[ok]
        pending[done] = False
    rest = np.flatnonzero(pending)
    if rest.size:
        out[rest] = _log_series_pos(a, b, zf[rest]) - zf[rest]
    return out.reshape(za.shape), tail.reshape(za.shape)
