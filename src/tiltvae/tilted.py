"""The exponentially tilted Gaussian prior.

The distribution on R^d with density proportional to
``exp(tau * ||z||) * exp(-||z||^2 / 2)``: a standard Gaussian pushed radially
outward, with its mode on the sphere of radius tau. Provides the exact
normalization constant and KL divergence from a unit-covariance Gaussian
posterior (array-valued over posterior-mean norms), the quadratic surrogate
used during training, the root solver for the divergence-minimizing posterior
norm, and a grid sweep that reports the margin between the exact divergence
and the surrogate.

Each of log Z_tau, the mean norm E and its slope E'/m is a call to the Kummer
kernel ``specfn.log_kummer_scaled``; this module alone maps them onto it.
"""

import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._fields import check_count
from .errors import ConvergenceError, DomainError
from .specfn import log_kummer_scaled

_SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)

# Root tolerances and iteration cap, stationarity acceptance, and the probe
# step for the gamma solver.
_ROOT_XATOL = 1e-12
_ROOT_XRTOL = 4.0 * sys.float_info.epsilon
_ROOT_MAXITER = 100
_GRAD_OK = 1e-5
_PROBE = 1e-3

# Largest norm m whose m^2 / 2 is a finite double.
_MAX_NORM = math.sqrt(2.0) * math.sqrt(sys.float_info.max)

# A sweep cell is a violation when its minimum margin is below -_SWEEP_TOLERANCE.
_SWEEP_TOLERANCE = 1e-9

# Failures a sweep records in a cell instead of aborting.
_CELL_ERRORS = (ConvergenceError, DomainError)


def log_normalizer(tau, d_z: int):
    """log Z_tau, the log of E[exp(tau ||z||)] under a standard Gaussian on R^d_z;
    a float for a scalar tau, an array for an array of tilts.

    Z_tau = M(d/2, 1/2, tau^2/2)
            + tau sqrt(2) [Gamma((d+1)/2) / Gamma(d/2)] M((d+1)/2, 3/2, tau^2/2).

    Both terms are positive and combined as logs, so no intermediate can
    overflow a double even though Z_tau itself scales like exp(tau^2 / 2).
    """
    d_z = check_count(d_z, "d_z")
    log_z = _log_normalizers(np.atleast_1d(_norms(tau, "tau")), d_z)[0]
    return float(log_z[0]) if np.ndim(tau) == 0 else log_z


def _log_normalizers(t, d_z):
    """(log Z_tau, log Z_tau - tau^2/2) at the tilts of an array t; the second
    combines the kernel's log(e^-z M), z = tau^2/2, before z is added back,
    so it keeps its own relative accuracy where log Z_tau is about z."""
    half_t2 = 0.5 * t * t
    even = log_kummer_scaled(d_z / 2.0, 0.5, half_t2)[0]
    odd = log_kummer_scaled((d_z + 1) / 2.0, 1.5, half_t2)[0]
    with np.errstate(divide="ignore"):  # -inf at tau = 0, where the odd term adds nothing
        coef = np.log(t * math.sqrt(2.0)) + (math.lgamma((d_z + 1) / 2.0) - math.lgamma(d_z / 2.0))
    return np.logaddexp(half_t2 + even, coef + (half_t2 + odd)), np.logaddexp(even, coef + odd)


def _doubles(values, name):
    """values as a float64 array; a DomainError naming them if one overflows a double."""
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        raise DomainError(f"{name} is too large for a double") from None


def _norms(mu_norm, name="mu_norm"):
    m = _doubles(mu_norm, name)
    bad = ~((m >= 0.0) & (m <= _MAX_NORM))
    if bad.any():
        raise _norm_error(name, float(m[bad][0]))
    return m


def _norm_error(name, value):
    return DomainError(f"{name} must be non-negative with a finite {name}^2 / 2 "
                       f"(at most {_MAX_NORM:.6g}), got {value!r}")


def _log_chi_coef(d_z):
    """log c, c = Gamma((d+1)/2) / (Gamma(3/2) Gamma(d/2)), the mean norm's
    Kummer coefficient: E(m) = sqrt(pi/2) c e^-z M((d+1)/2, d/2, z), z = m^2/2."""
    return math.lgamma((d_z + 1) / 2.0) - math.lgamma(1.5) - math.lgamma(d_z / 2.0)


def _mean_norms(d_z, m):
    """(E, E - m) at an array of norms m = ||mu||, E = E[||z||], z ~ N(mu, I).

    Where the kernel sums its large-z expansion (from m^2/2 of about 20 to
    80, depending on d_z), its constants cancel (a - b = 1/2) and
    E = m (1 + tail), so E - m = m tail needs no subtraction; where the
    series gives the value, it is a plain difference.
    """
    k, tail = log_kummer_scaled((d_z + 1) / 2.0, d_z / 2.0, 0.5 * m * m)
    mean = _SQRT_PI_OVER_2 * np.exp(_log_chi_coef(d_z) + k)
    return mean, np.where(np.isnan(tail), mean - m, m * tail)


def mean_norm(d_z: int, mu_norm):
    """E[||z||] for z ~ N(mu, I) on R^d_z with ||mu|| = mu_norm; a float for a
    scalar norm, an array for an array of norms."""
    d_z = check_count(d_z, "d_z")
    mean = _mean_norms(d_z, _norms(mu_norm))[0]
    return float(mean) if np.ndim(mu_norm) == 0 else mean


def _norm_slope(d_z, mu_norm):
    """E'(m) / m for the mean norm E of mean_norm: sqrt(pi/2) (c/d)
    e^-z M((d+1)/2, d/2 + 1, z) with c of _log_chi_coef (DLMF 13.3.15 after
    Kummer's reflection).

    Positive and decreasing in m; at m = 0 it is the curvature E''(0).
    """
    m = _norms(mu_norm)
    k = log_kummer_scaled((d_z + 1) / 2.0, d_z / 2.0 + 1.0, 0.5 * m * m)[0]
    return _SQRT_PI_OVER_2 * np.exp(_log_chi_coef(d_z) - math.log(d_z) + k)


def _kld_from_mean(tau, log_zs, m, excess):
    """The exact KLD log Z_tau - tau E(m) + m^2/2 at norms m, as
    (tau - m)^2/2 + log_zs - tau excess with log_zs = log Z_tau - tau^2/2 and
    excess = E(m) - m. Near gamma each of the first form's terms is about
    tau^2/2 while the sum is small; no term of this one is much larger."""
    d = tau - m
    return 0.5 * d * d + log_zs - tau * excess


def _bracketed_roots(f, x1, f1, x2, f2):
    """Chandrupatla's method (Adv. Eng. Softw. 28:145, 1997) for f(x, k) = 0 in
    every cell k at once, from ends x1, x2 where f1, f2 have opposite signs.
    A cell stops once its bracket is narrower than _ROOT_XATOL + _ROOT_XRTOL |x|
    or f is 0 at an end, and yields the end with the smaller |f| and f there
    (NaN if _ROOT_MAXITER iterations did not stop it)."""
    root, f_root = np.empty_like(x1), np.full_like(x1, math.nan)
    k, x3, f3 = np.arange(x1.size), x2, f2  # x3: the end the last step dropped
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(_ROOT_MAXITER + 1):
            near = np.abs(f1) < np.abs(f2)
            xm, fm = np.where(near, x1, x2), np.where(near, f1, f2)
            tl = (_ROOT_XATOL + _ROOT_XRTOL * np.abs(xm)) / (2.0 * np.abs(x2 - x1))
            done = (tl > 0.5) | (fm == 0.0)
            root[k] = xm
            if done.any():
                f_root[k[done]] = fm[done]
                if done.all():
                    return root, f_root
                k, x1, f1, x2, f2, x3, f3, tl = (v[~done] for v in (k, x1, f1, x2, f2, x3, f3, tl))
            if it == _ROOT_MAXITER:
                return root, f_root
            # Inverse quadratic interpolation where the three points allow it,
            # else bisection (always on the first step, where x3 = x2).
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            t = np.where((1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi)),
                         f1 / (f1 - f2) * f3 / (f3 - f2)
                         - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            x = x1 + np.clip(t, tl, 1.0 - tl) * (x2 - x1)
            fx = f(x, k)
            same = np.sign(fx) == np.sign(f1)
            x3, f3, x2, f2 = np.where(same, [x1, f1, x2, f2], [x2, f2, x1, f1])
            x1, f1 = x, fx


def _fit_priors(taus, d_z, grid=()):
    """(fits, grid_excess): for each tau of one d_z, its TiltedPrior, or the
    DomainError of a tilt outside [0, _MAX_NORM] or the ConvergenceError of
    its fit; and E(m) - m at the norms of ``grid``. A d_z that is not a
    positive integer raises.

    The KLD's slope is m - tau E'(m) = m h(m) with h(m) = 1 - tau E'(m)/m,
    which increases in m (see _norm_slope). So gamma = 0 where h(0) >= 0;
    elsewhere gamma is the root of h, which lies in (0, tau] because E' <= 1
    makes h(tau) >= 0. h(0) needs no kernel call: E''(0) is _norm_slope's
    numpy expression with the kernel's exact 0 at m = 0 (math.exp would
    differ in the last bit for some d_z). The analytic slope and
    probes 1e-3 on either side then certify a stationary minimum; a cell that
    fails gets its own error. The probes and the grid share one mean-norm
    call. The probe KLDs stay finite up to the largest tilt, since
    |tau - m| <= _MAX_NORM.
    """
    d_z = check_count(d_z, "d_z")
    taus = np.atleast_1d(_doubles(taus, "tau"))
    in_range = (taus >= 0.0) & (taus <= _MAX_NORM)
    t = taus[in_range]
    log_z, log_zs = _log_normalizers(t, d_z)
    h0 = 1.0 - t * (_SQRT_PI_OVER_2 * np.exp(_log_chi_coef(d_z) - math.log(d_z)))
    gamma, h = np.zeros_like(t), h0.copy()
    up = np.flatnonzero(~(h0 >= 0.0))
    if up.size:
        gamma[up], h[up] = t[up], 1.0 - t[up] * _norm_slope(d_z, t[up])
    br = up[h[up] > 0.0]
    if br.size:
        gamma[br], h[br] = _bracketed_roots(lambda x, k: 1.0 - t[br[k]] * _norm_slope(d_z, x),
                                            np.zeros(br.size), h0[br], t[br], h[br])
    m = np.stack([gamma, np.minimum(gamma + _PROBE, _MAX_NORM),
                  np.where(gamma >= _PROBE, gamma - _PROBE, gamma)])
    excess = _mean_norms(d_z, np.concatenate([m.ravel(), grid]))[1]
    kld = _kld_from_mean(t, log_zs, m, excess[:m.size].reshape(m.shape))
    ok = (np.abs(gamma * h) < _GRAD_OK) & np.all(kld[1:] >= kld[0], axis=0)
    fits = iter(TiltedPrior(tau=tc, d_z=d_z, log_z_tau=lz, gamma=g, committed_rate=rate,
                            log_z_scaled=lzs) if good
                else ConvergenceError("gamma solver did not converge", tau=tc, d_z=d_z,
                                      final_iterate=g, gradient=g * hg)
                for tc, lz, lzs, g, hg, rate, good
                in zip(*(v.tolist() for v in (t, log_z, log_zs, gamma, h, kld[0], ok))))
    return ([next(fits) if ok else _norm_error("tau", tc)
             for tc, ok in zip(taus.tolist(), in_range.tolist())], excess[m.size:])


@dataclass(frozen=True)
class TiltedPrior:
    """An exponentially tilted Gaussian, frozen after construction.

    ``committed_rate`` is the minimum KL divergence any unit-covariance
    Gaussian posterior can achieve against this prior; ``gamma`` is the
    posterior-mean norm attaining it. ``log_z_scaled`` is log Z_tau - tau^2/2,
    the exact KLD's cancellation-free term (see _kld_from_mean).
    """

    tau: float
    d_z: int
    log_z_tau: float
    gamma: float
    committed_rate: float
    log_z_scaled: float

    @classmethod
    def fit(cls, tau: float, d_z: int) -> "TiltedPrior":
        (fit,), _ = _fit_priors(tau, d_z)
        if isinstance(fit, Exception):
            raise fit
        return fit


def exact_kld(prior: TiltedPrior, mu_norm):
    """KL(N(mu, I) || tilted prior), a function of ||mu|| only:
    log Z_tau - tau E[||z||] + ||mu||^2 / 2.

    Takes a scalar norm (returns a float) or an array of norms (returns an
    array); a norm that is negative or not finite is a DomainError.
    """
    m = _norms(mu_norm)
    kld = _kld_from_mean(prior.tau, prior.log_z_scaled, m, _mean_norms(prior.d_z, m)[1])
    return float(kld) if np.ndim(mu_norm) == 0 else kld


def quadratic_kld(prior: TiltedPrior, mu_norm):
    """Quadratic surrogate (||mu|| - gamma)^2 / 2 + committed_rate.

    Tangent to the exact KLD at gamma, where both equal the committed rate.
    Because the exact divergence has curvature below one everywhere while the
    surrogate has curvature exactly one, the surrogate never falls below the
    exact value: using it as the training penalty keeps the training
    objective a valid lower bound on the log-likelihood.

    Takes and refuses norms as exact_kld does.
    """
    d = _norms(mu_norm) - prior.gamma
    kld = 0.5 * d * d + prior.committed_rate
    return float(kld) if np.ndim(mu_norm) == 0 else kld


@dataclass(frozen=True)
class SweepCell:
    d_z: int
    w: int
    tau: float
    min_margin: float
    argmin_mu: float
    status: str


@dataclass
class SweepReport:
    """Per-cell minima of exact_kld - quadratic_kld over a mu grid."""

    cells: list

    @property
    def violations(self):
        return [c for c in self.cells if c.status == "violation"]

    @property
    def errors(self):
        return [c for c in self.cells if c.status.startswith("error")]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["d_z", "w", "tau", "min_margin", "argmin_mu", "status"])
            for c in self.cells:
                writer.writerow([c.d_z, c.w, repr(c.tau), repr(c.min_margin), repr(c.argmin_mu), c.status])


def verify_bound_sweep(d_grid, w_grid, mu_points: int, mu_max: float) -> SweepReport:
    """Evaluate exact_kld - quadratic_kld over a (d_z, tau) grid, tau = 1.2^w.

    Reports the minimum signed margin per cell and flags cells whose minimum
    drops below -1e-9. Since the surrogate is tangent from above, the margin
    is zero at gamma and negative elsewhere; the sweep quantifies how far the
    surrogate over-penalizes across the grid. Special-function or solver
    failures are recorded per cell rather than aborting the sweep.

    The tilts of one d_z are fitted in one call, which also gives the mean
    norms over the mu grid (they do not depend on tau); an error that stops it
    (a bad d_z) is recorded in every cell of that d_z, and a tilt the fit
    refuses in its own cell. The margins of a d_z's fitted cells are one
    (cells x points) array.
    """
    if not d_grid or not w_grid:
        raise DomainError("d_grid and w_grid must be non-empty")
    mu_points = check_count(mu_points, "mu_points", lowest=2)
    if not 0.0 < mu_max <= _MAX_NORM:
        raise DomainError(f"mu_max must be in (0, {_MAX_NORM:.6g}], got {mu_max}")
    mu = np.linspace(0.0, mu_max, mu_points)
    taus = [_tilt(w) for w in w_grid]
    cells = []
    for d in d_grid:
        try:
            fits, excess = _fit_priors(taus, d, mu)
        except _CELL_ERRORS as exc:
            fits = [exc] * len(taus)
        priors = [f for f in fits if isinstance(f, TiltedPrior)]
        if priors:
            t, log_zs, gamma, rate = (np.array([getattr(f, key) for f in priors])[:, None]
                                      for key in ("tau", "log_z_scaled", "gamma",
                                                  "committed_rate"))
            dev = mu - gamma  # quadratic_kld's arithmetic, one row per cell
            margins = _kld_from_mean(t, log_zs, mu, excess) - (0.5 * dev * dev + rate)
            k = np.argmin(margins, axis=1)
            mins = iter(zip(margins[np.arange(k.size), k].tolist(), mu[k].tolist()))
        for w, tau, prior in zip(w_grid, taus, fits):
            if isinstance(prior, Exception):
                cells.append(SweepCell(d, w, tau, math.nan, math.nan, f"error: {prior}"))
                continue
            low, at = next(mins)
            status = "ok" if low >= -_SWEEP_TOLERANCE else "violation"
            cells.append(SweepCell(d, w, tau, low, at, status))
    return SweepReport(cells=cells)


def _tilt(w):
    """tau = 1.2^w, or inf (a tilt the fit refuses) where that overflows."""
    try:
        return 1.2 ** w
    except OverflowError:
        return math.inf
