"""Log-domain special functions: Kummer's M, half-order Laguerre, chi moments.

Everything here is evaluated in log space because the normalization constant
of the tilted Gaussian contains a factor that scales like exp(tau^2 / 2),
which overflows double precision long before the tilt values this package
has to support (tau up to ~100, series arguments up to ~2e4).

One kernel serves every caller: log(e^-z M(a, b, z)) for a > 0, b > 0 and
z >= 0, where every series term is positive. The e^-z scaling is what the
Laguerre functions need after Kummer's reflection; computing it directly
keeps their relative accuracy at huge z, where adding -z and +z separately
would cost about ULP(z) in absolute terms.

All functions are pure and thread-safe.
"""

import math
import sys

import numpy as np

from .errors import ConvergenceError, DomainError

# Largest log-magnitude that still converts to a finite double.
_OVERFLOW_LOG = math.log(sys.float_info.max)

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

# Crossover to the large-argument asymptotic expansion. The expansion is
# only used when its own truncation check certifies the accuracy; otherwise
# the direct series is kept (it is overflow-safe at any argument size).
_ASYMP_Z_MIN = 700.0
_ASYMP_MAX_TERMS = 200
_ASYMP_CHUNK = 40
_ASYMP_TAIL = 1e-13


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

    Returns (ok, log(e^-z M)) arrays. Terms are summed while they shrink: the sum
    stops at a term below 1e-17 of it (certified), or before the first term
    that does not shrink (certified when the last one kept is below
    _ASYMP_TAIL of the sum). ``ok`` is False where that cannot certify the
    accuracy; the caller then falls back to the direct series there.
    """
    z = np.asarray(z, dtype=np.float64)
    c = np.ones(z.size)  # last term kept
    s = np.ones(z.size)  # sum of the terms kept
    ok = np.zeros(z.size, dtype=bool)
    live = np.arange(z.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, _ASYMP_MAX_TERMS, _ASYMP_CHUNK):
            if not live.size:
                break
            k = np.arange(k0, min(k0 + _ASYMP_CHUNK, _ASYMP_MAX_TERMS), dtype=np.float64)
            ratio = (b - a + k) * (1 - a + k) / (k + 1)
            stopped = np.concatenate([_asymptotic_chunk(ratio, z, c, s, ok, rows)
                                      for rows in _row_slices(live, k.size)])
            live = live[~stopped]
    ok[live] = np.abs(c[live]) <= _ASYMP_TAIL * np.abs(s[live])
    ok &= s > 0.0
    log_m = np.full(z.shape, math.nan)
    log_m[ok] = math.lgamma(b) - math.lgamma(a) + (a - b) * np.log(z[ok]) + np.log(s[ok])
    return ok, log_m


def _asymptotic_chunk(ratio, z, c, s, ok, rows):
    """Take up to ratio.size more terms for the points ``rows``, updating c, s
    and ok in place; True where the sum stopped."""
    c_next = c[rows, None] * np.cumprod(ratio / z[rows, None], axis=1)
    s_next = s[rows, None] + np.cumsum(c_next, axis=1)
    c_prev = np.concatenate([c[rows, None], c_next[:, :-1]], axis=1)
    s_prev = np.concatenate([s[rows, None], s_next[:, :-1]], axis=1)
    grow = np.abs(c_next) >= np.abs(c_prev)
    stop = grow | (np.abs(c_next) <= 1e-17 * np.abs(s_next))
    j = stop.argmax(axis=1)
    i = np.arange(rows.size)
    hit, grew = stop[i, j], grow[i, j]
    # A stopped point keeps the sum before its growing term, or through its
    # tiny one; a running point carries its last term and sum to the next chunk.
    c[rows] = np.where(hit, c_prev[i, j], c_next[:, -1])
    s[rows] = np.where(hit & grew, s_prev[i, j], np.where(hit, s_next[i, j], s_next[:, -1]))
    ok[rows] = hit & (~grew | (np.abs(c_prev[i, j]) <= _ASYMP_TAIL * np.abs(s_prev[i, j])))
    return hit


def _log_kummer_pos(a: float, b: float, z):
    """log(e^-z M(a, b, z)) for a > 0, b > 0 and every point of an array
    z >= 0: the asymptotic expansion where it certifies itself, else the
    series."""
    z = np.asarray(z, dtype=np.float64)
    zf = z.reshape(-1)
    out = np.zeros(zf.size)  # M(a, b, 0) = 1
    pending = zf > 0.0
    big = np.flatnonzero(zf > _ASYMP_Z_MIN)
    if big.size:
        ok, log_m = _log_kummer_asymptotic(a, b, zf[big])
        out[big[ok]] = log_m[ok]
        pending[big[ok]] = False
    rest = np.flatnonzero(pending)
    if rest.size:
        out[rest] = _log_series_pos(a, b, zf[rest]) - zf[rest]
    return out.reshape(z.shape)


def log_kummer_m(a: float, b: float, z):
    """log M(a, b, z), Kummer's confluent hypergeometric function, for a > 0,
    b > 0 and finite z >= 0; a float for a scalar z, an array for an array z.

    M(a,b,z) = sum_n a^(n) z^n / (b^(n) n!) with a^(n) the rising factorial.
    On this domain every term is positive, so the result carries no
    cancellation error. Any other argument is a DomainError.
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"log_kummer_m needs a > 0 and b > 0, got a={a}, b={b}")
    za = np.asarray(z, dtype=np.float64)
    bad = ~(np.isfinite(za) & (za >= 0.0))
    if bad.any():
        raise DomainError(
            f"log_kummer_m is only supported for finite z >= 0, got z={float(za[bad][0])}")
    return _like(z, za + _log_kummer_pos(a, b, za))


def log_gamma_ratio(p: float, q: float) -> float:
    """log(Gamma(p) / Gamma(q)) for positive p, q."""
    if p <= 0.0 or q <= 0.0:
        raise DomainError(f"gamma ratio needs positive arguments, got p={p}, q={q}")
    return math.lgamma(p) - math.lgamma(q)


def _like(x, values):
    """``values`` as a Python float when ``x`` is a scalar, else the array."""
    return float(values) if np.ndim(x) == 0 else values


def _checked_x(alpha, x, name):
    """x as an array, after checking alpha > -1 and every x finite and <= 0."""
    if alpha <= -1.0:
        raise DomainError(f"alpha={alpha} must exceed -1")
    xa = np.asarray(x, dtype=np.float64)
    bad = ~(np.isfinite(xa) & (xa <= 0.0))
    if bad.any():
        raise DomainError(f"{name} is only supported for finite x <= 0, got x={float(xa[bad][0])}")
    return xa


def _exp_checked(log_val):
    if np.any(log_val >= _OVERFLOW_LOG):
        raise OverflowError(
            f"log-magnitude {float(np.max(log_val)):.6g} exceeds the native float range"
        )
    return np.exp(log_val)


def laguerre_half(alpha: float, x):
    """Generalized Laguerre function of order 1/2, L_{1/2}^(alpha)(x), x <= 0,
    for a scalar x (returns a float) or an array of them (returns an array).

    Defined through the gamma-extended binomial coefficient:
        L_{1/2}^(alpha)(x) = [Gamma(alpha+3/2) / (Gamma(3/2) Gamma(alpha+1))]
                             * M(-1/2, alpha+1, x).
    sqrt(pi/2) times this value is the mean of a noncentral chi variable with
    d = 2(alpha+1) degrees of freedom and noncentrality sqrt(-2x).
    """
    xa = _checked_x(alpha, x, "laguerre_half")
    log_binom = log_gamma_ratio(alpha + 1.5, 1.5) - math.lgamma(alpha + 1.0)
    # Reflected series: M(-1/2, alpha+1, x) = e^x M(alpha+3/2, alpha+1, -x),
    # all terms positive for x < 0, and e^x is the kernel's own scaling.
    log_m = _log_kummer_pos(alpha + 1.5, alpha + 1.0, -xa)
    return _like(x, _exp_checked(log_binom + log_m))


def laguerre_half_prime(alpha: float, x):
    """d/dx L_{1/2}^(alpha)(x) for x <= 0, scalar or array like laguerre_half.

    From dM(a,b,x)/dx = (a/b) M(a+1, b+1, x) (DLMF 13.3.15):
        d/dx L_{1/2}^(alpha)(x) = -binom / (2(alpha+1)) * M(1/2, alpha+2, x),
    and M(1/2, alpha+2, x) = e^x M(alpha+3/2, alpha+2, -x) is one call to the
    positive-term kernel. The value is negative: the function decreases in x.
    """
    xa = _checked_x(alpha, x, "laguerre_half_prime")
    log_coef = (log_gamma_ratio(alpha + 1.5, 1.5) - math.lgamma(alpha + 1.0)
                - math.log(2.0 * (alpha + 1.0)))
    log_m = _log_kummer_pos(alpha + 1.5, alpha + 2.0, -xa)
    return _like(x, -_exp_checked(log_coef + log_m))
