"""The exponentially tilted Gaussian prior.

The distribution on R^d with density proportional to
``exp(tau * ||z||) * exp(-||z||^2 / 2)``: a standard Gaussian pushed radially
outward, with its mode on the sphere of radius tau. Provides the exact
normalization constant and KL divergence from a unit-covariance Gaussian
posterior (array-valued over posterior-mean norms), the quadratic surrogate
used during training, the root solver for the divergence-minimizing posterior
norm, and a grid sweep that reports the margin between the exact divergence
and the surrogate.
"""

import csv
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ConvergenceError, DomainError
from .specfn import laguerre_half, laguerre_half_prime, log_gamma_ratio, log_kummer_m

_SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)
_LOG_2PI = math.log(2.0 * math.pi)

# Root tolerances, stationarity acceptance and minimum probe for the gamma
# solver.
_ROOT_XTOL = 1e-12
_ROOT_MAXITER = 100
_GRAD_OK = 1e-5
_MIN_PROBE = 1e-3

# Largest norm m whose m^2 / 2 is a finite double.
_MAX_NORM = math.sqrt(2.0) * math.sqrt(sys.float_info.max)

# Failures a sweep records in a cell instead of aborting.
_CELL_ERRORS = (ConvergenceError, DomainError, OverflowError)


def log_normalizer(tau: float, d_z: int) -> float:
    """log Z_tau, the log of E[exp(tau ||z||)] under a standard Gaussian on R^d_z.

    Z_tau = M(d/2, 1/2, tau^2/2)
            + tau sqrt(2) [Gamma((d+1)/2) / Gamma(d/2)] M((d+1)/2, 3/2, tau^2/2).

    Both terms are positive and combined as logs, so no intermediate can
    overflow a double even though Z_tau itself scales like exp(tau^2 / 2).
    """
    _check_tau_d(tau, d_z)
    half_t2 = 0.5 * tau * tau
    even = log_kummer_m(d_z / 2.0, 0.5, half_t2)
    if tau == 0.0:
        return even
    odd = (math.log(tau * math.sqrt(2.0)) + log_gamma_ratio((d_z + 1) / 2.0, d_z / 2.0)
           + log_kummer_m((d_z + 1) / 2.0, 1.5, half_t2))
    return float(np.logaddexp(even, odd))


def _norms(mu_norm):
    m = np.asarray(mu_norm, dtype=np.float64)
    bad = ~((m >= 0.0) & (m <= _MAX_NORM))
    if bad.any():
        raise DomainError(f"mu_norm must be non-negative with a finite mu_norm^2 / 2 "
                          f"(at most {_MAX_NORM:.6g}), got {float(m[bad][0])!r}")
    return m


def mean_norm(d_z: int, mu_norm):
    """E[||z||] for z ~ N(mu, I) on R^d_z with ||mu|| = mu_norm; a float for a
    scalar norm, an array for an array of norms."""
    m = _norms(mu_norm)
    return _SQRT_PI_OVER_2 * laguerre_half(d_z / 2.0 - 1.0, -0.5 * m * m)


def _norm_slope(d_z, mu_norm):
    """E'(m) / m for the mean norm E of mean_norm: -sqrt(pi/2) L_{1/2}'(-m^2/2).

    Proportional to M(1/2, d_z/2 + 1, -m^2/2), so positive and decreasing in
    m; at m = 0 it is the curvature E''(0).
    """
    m = _norms(mu_norm)
    return -_SQRT_PI_OVER_2 * laguerre_half_prime(d_z / 2.0 - 1.0, -0.5 * m * m)


def _kld_from_mean(tau, log_z, m, mean):
    """The exact KLD at norms m from their mean norms ``mean`` = mean_norm(d_z, m)."""
    return log_z - tau * mean + 0.5 * m * m


def _kld_value(tau, d_z, log_z, mu_norm):
    m = _norms(mu_norm)
    kld = _kld_from_mean(tau, log_z, m, mean_norm(d_z, m))
    return float(kld) if np.ndim(mu_norm) == 0 else kld


def _solve_gamma(tau, d_z, log_z):
    """The exact KLD's minimizer over the posterior-mean norm, and its value.

    The KLD's slope is m - tau E'(m) = m h(m) with h(m) = 1 - tau E'(m)/m,
    which increases in m (see _norm_slope). So gamma = 0 when h(0) >= 0;
    otherwise gamma is the root of h, which lies in (0, tau] because E' <= 1
    makes h(tau) >= 0. Brent's method stops once the bracket is narrower than
    its tolerance. The analytic slope and a probe on either side of gamma
    then certify a stationary minimum.
    """
    def h(m):
        return 1.0 - tau * _norm_slope(d_z, m)

    gamma, h_gamma = 0.0, h(0.0)
    if not h_gamma >= 0.0:
        gamma, h_gamma = tau, h(tau)
        if h_gamma >= 0.0:
            gamma, res = brentq(h, 0.0, tau, xtol=_ROOT_XTOL, maxiter=_ROOT_MAXITER,
                                full_output=True, disp=False)
            h_gamma = h(gamma) if res.converged else math.nan
    slope = gamma * h_gamma
    probes = [gamma, gamma + _MIN_PROBE] + ([gamma - _MIN_PROBE] if gamma >= _MIN_PROBE else [])
    kld = _kld_value(tau, d_z, log_z, np.array(probes))
    if not (abs(slope) < _GRAD_OK and np.all(kld[1:] >= kld[0])):
        raise ConvergenceError(
            "gamma solver did not converge",
            tau=tau,
            d_z=d_z,
            final_iterate=gamma,
            gradient=slope,
        )
    return gamma, float(kld[0])


def solve_gamma(tau: float, d_z: int) -> float:
    """The posterior-mean norm minimizing the exact KLD against the tilted prior."""
    _check_tau_d(tau, d_z)
    return _solve_gamma(tau, d_z, log_normalizer(tau, d_z))[0]


@dataclass(frozen=True)
class TiltedPrior:
    """An exponentially tilted Gaussian, frozen after construction.

    ``committed_rate`` is the minimum KL divergence any unit-covariance
    Gaussian posterior can achieve against this prior; ``gamma`` is the
    posterior-mean norm attaining it.
    """

    tau: float
    d_z: int
    log_z_tau: float
    gamma: float
    committed_rate: float

    @classmethod
    def fit(cls, tau: float, d_z: int) -> "TiltedPrior":
        _check_tau_d(tau, d_z)
        log_z = log_normalizer(tau, d_z)
        if tau == 0.0:
            return cls(tau=0.0, d_z=d_z, log_z_tau=log_z, gamma=0.0, committed_rate=0.0)
        gamma, rate = _solve_gamma(tau, d_z, log_z)
        return cls(tau=tau, d_z=d_z, log_z_tau=log_z, gamma=gamma, committed_rate=rate)


def log_density(prior: TiltedPrior, z) -> float:
    """log density of the tilted prior at a point z in R^d_z."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (prior.d_z,):
        raise DomainError(f"z has shape {z.shape}, expected ({prior.d_z},)")
    r = float(np.linalg.norm(z))
    return prior.tau * r - 0.5 * r * r - 0.5 * prior.d_z * _LOG_2PI - prior.log_z_tau


def exact_kld(prior: TiltedPrior, mu_norm):
    """KL(N(mu, I) || tilted prior), a function of ||mu|| only:
    log Z_tau - tau E[||z||] + ||mu||^2 / 2.

    Takes a scalar norm (returns a float) or an array of norms (returns an
    array); a norm that is negative or not finite is a DomainError.
    """
    return _kld_value(prior.tau, prior.d_z, prior.log_z_tau, mu_norm)


def quadratic_kld(prior: TiltedPrior, mu_norm):
    """Quadratic surrogate (||mu|| - gamma)^2 / 2 + committed_rate.

    Tangent to the exact KLD at gamma, where both equal the committed rate.
    Because the exact divergence has curvature below one everywhere while the
    surrogate has curvature exactly one, the surrogate never falls below the
    exact value: using it as the training penalty keeps the training
    objective a valid lower bound on the log-likelihood.
    """
    d = mu_norm - prior.gamma
    return 0.5 * d * d + prior.committed_rate


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
    tolerance: float = 1e-9

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


def verify_bound_sweep(d_grid, w_grid, mu_points: int, mu_max: float,
                       tolerance: float = 1e-9) -> SweepReport:
    """Evaluate exact_kld - quadratic_kld over a (d_z, tau) grid, tau = 1.2^w.

    Reports the minimum signed margin per cell and flags cells whose minimum
    drops below -tolerance. Since the surrogate is tangent from above, the
    margin is zero at gamma and negative elsewhere; the sweep quantifies how
    far the surrogate over-penalizes across the grid. Special-function or
    solver failures are recorded per cell rather than aborting the sweep.

    The mean norms over the mu grid do not depend on tau, so they are
    evaluated once per d_z, after that d_z's first successful fit; a failure
    there is recorded in every cell of that d_z whose fit succeeds.
    """
    if not d_grid or not w_grid:
        raise DomainError("d_grid and w_grid must be non-empty")
    if mu_points < 2:
        raise DomainError(f"mu_points must be >= 2, got {mu_points}")
    if not (math.isfinite(mu_max) and mu_max > 0.0):
        raise DomainError(f"mu_max must be finite and positive, got {mu_max}")
    mu = np.linspace(0.0, mu_max, mu_points)
    cells = []
    for d in d_grid:
        mean = None  # mean_norm(d, mu), or the "error: ..." status it raised
        for w in w_grid:
            tau = 1.2 ** w
            try:
                prior = TiltedPrior.fit(tau, d)
            except _CELL_ERRORS as exc:
                cells.append(SweepCell(d, w, tau, math.nan, math.nan, f"error: {exc}"))
                continue
            if mean is None:
                try:
                    mean = mean_norm(d, mu)
                except _CELL_ERRORS as exc:
                    mean = f"error: {exc}"
            if isinstance(mean, str):
                cells.append(SweepCell(d, w, tau, math.nan, math.nan, mean))
                continue
            kld = _kld_from_mean(prior.tau, prior.log_z_tau, mu, mean)
            margins = kld - quadratic_kld(prior, mu)
            k = int(np.argmin(margins))
            status = "ok" if margins[k] >= -tolerance else "violation"
            cells.append(SweepCell(d, w, tau, float(margins[k]), float(mu[k]), status))
    return SweepReport(cells=cells, tolerance=tolerance)


def _check_tau_d(tau, d_z):
    if not (math.isfinite(tau) and tau >= 0):
        raise DomainError(f"tau must be finite and non-negative, got {tau}")
    if int(d_z) != d_z or d_z < 1:
        raise DomainError(f"d_z must be a positive integer, got {d_z}")
