"""Seeded random generation for the tilted-prior pipeline.

Uniform directions on the unit sphere, the two-step radial sampler used to
draw from the aggregated posterior (direction uniform, radius normal), and an
exact rejection sampler for the tilted prior itself, kept as a verification
oracle. All sampling goes through counter-based Philox streams so that
(seed, stream id) fully determine every sequence on every platform.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .tilted import TiltedPrior

_MIN_ACCEPT_RATE = 1e-3
_WARMUP_PROPOSALS = 20_000


class RngStream:
    """A reproducible random stream keyed by (seed, stream id)."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed % 2**64, self.stream % 2**64], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def split(self, stream: int) -> "RngStream":
        """Independent substream under the same seed."""
        return RngStream(self.seed, stream)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream={self.stream})"


@dataclass(frozen=True)
class RadialLaw:
    """Radial model of the aggregated posterior: ||z|| ~ N(z_bar, sigma_r^2),
    truncated to positive radii."""

    z_bar: float
    sigma_r: float = 1.0

    def __post_init__(self):
        if self.z_bar <= 0 or self.sigma_r <= 0:
            raise DomainError(f"radial law needs positive parameters, got {self}")

    @classmethod
    def estimate(cls, norms, estimate_sigma: bool = False) -> "RadialLaw":
        """Fit from encoded norms; sigma stays at 1 unless asked for."""
        norms = np.asarray(norms, dtype=np.float64)
        sigma = float(norms.std(ddof=1)) if estimate_sigma else 1.0
        return cls(z_bar=float(norms.mean()), sigma_r=sigma)


def sample_unit_sphere(rng: RngStream, d_z: int) -> np.ndarray:
    """Uniform direction on the unit sphere in R^d_z."""
    if d_z < 1:
        raise DomainError(f"d_z must be >= 1, got {d_z}")
    while True:
        v = rng.generator.standard_normal(d_z)
        n = float(np.linalg.norm(v))
        if n > 0.0:
            return v / n


def sample_model_latents(rng: RngStream, law: RadialLaw, d_z: int, n: int) -> np.ndarray:
    """n aggregated-posterior draws, shape (n, d_z): each a radius from
    N(z_bar, sigma_r^2), redrawn until positive, times a uniform direction."""
    gen = rng.generator
    radii = np.empty(n)
    filled = 0
    while filled < n:
        cand = law.z_bar + law.sigma_r * gen.standard_normal(n - filled)
        cand = cand[cand > 0.0]
        radii[filled:filled + cand.size] = cand
        filled += cand.size
    dirs = gen.standard_normal((n, d_z))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return radii[:, None] * dirs


def tilted_radial_mode(prior: TiltedPrior) -> float:
    """argmax of the radial density x^(d-1) exp(tau x - x^2/2)."""
    c = prior.d_z - 1
    return 0.5 * (prior.tau + math.sqrt(prior.tau**2 + 4.0 * c))


def sample_tilted_prior_batch(rng: RngStream, prior: TiltedPrior, n: int) -> np.ndarray:
    """n exact draws from the tilted prior, shape (n, d_z).

    Direction uniform on the sphere; radius by rejection against N(mode, 1)
    where mode is the radial-density argmax. The log acceptance ratio
    (d-1) log(x/mode) + (tau - mode)(x - mode) is exact and peaks at the mode,
    so accepted radii follow the target law with no approximation.
    """
    gen = rng.generator
    mode = tilted_radial_mode(prior)
    c = prior.d_z - 1
    radii = np.empty(n)
    filled = 0
    proposed = accepted = 0
    while filled < n:
        k = max(2048, 2 * (n - filled))
        x = gen.normal(mode, 1.0, size=k)
        u = gen.random(k)
        pos = x > 0.0
        log_acc = np.full(k, -np.inf)
        if c > 0:
            log_acc[pos] = c * np.log(x[pos] / mode) + (prior.tau - mode) * (x[pos] - mode)
        else:
            log_acc[pos] = 0.0
        keep = np.log(u) <= log_acc
        take = x[keep][: n - filled]
        radii[filled:filled + take.size] = take
        filled += take.size
        proposed += k
        accepted += int(keep.sum())
        if proposed >= _WARMUP_PROPOSALS and accepted < _MIN_ACCEPT_RATE * proposed:
            raise ConvergenceError(
                "rejection sampler acceptance rate below 1e-3",
                tau=prior.tau,
                d_z=prior.d_z,
                rate=accepted / proposed,
            )
    dirs = gen.standard_normal((n, prior.d_z))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return radii[:, None] * dirs


def save_latents_csv(path, latents) -> None:
    """One latent vector per row, for external plotting."""
    latents = np.atleast_2d(np.asarray(latents, dtype=np.float64))
    with open(path, "w") as fh:
        for row in latents:
            fh.write(",".join(map(repr, row.tolist())))
            fh.write("\n")
