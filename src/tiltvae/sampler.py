"""Seeded random generation for the tilted-prior pipeline.

The two-step radial sampler used to draw from the aggregated posterior
(direction uniform, radius normal) and an exact rejection sampler for the
tilted prior itself, kept as a verification oracle. Each sampler draws
from the Generator it is given; rng_stream keys a counter-based Philox
generator by (seed, stream id), which fixes every draw on every platform.
"""

import math

import numpy as np

from ._csvfloat import write_rows
from ._fields import check_count
from .errors import ConvergenceError, DomainError
from .tilted import TiltedPrior

_MIN_ACCEPT_RATE = 1e-3
_WARMUP_PROPOSALS = 20_000


def rng_stream(seed: int, stream: int = 0) -> "np.random.Generator":
    """The Philox generator keyed by (seed, stream id). Annotations quote
    np.random, which would otherwise be imported when a module loads."""
    key = np.array([int(seed) % 2**64, int(stream) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _on_sphere(rng, radii, d_z):
    """Each radius times a uniform direction in R^d_z, shape (n, d_z)."""
    dirs = rng.standard_normal((radii.size, d_z))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return radii[:, None] * dirs


def sample_model_latents(rng: "np.random.Generator", z_bar: float, d_z: int, n: int) -> np.ndarray:
    """n aggregated-posterior draws, shape (n, d_z): each a radius from
    N(z_bar, 1), redrawn until positive, times a uniform direction."""
    d_z, n = check_count(d_z, "d_z"), check_count(n, "n")
    if not (math.isfinite(z_bar) and z_bar > 0.0):
        raise DomainError(f"posterior sampler needs a finite z_bar > 0, got z_bar={z_bar!r}")
    radii = np.empty(n)
    filled = 0
    while filled < n:
        cand = z_bar + rng.standard_normal(n - filled)
        cand = cand[cand > 0.0]
        radii[filled:filled + cand.size] = cand
        filled += cand.size
    return _on_sphere(rng, radii, d_z)


def tilted_radial_mode(prior: TiltedPrior) -> float:
    """argmax of the radial density x^(d-1) exp(tau x - x^2/2), the positive
    root of x^2 - tau x - (d-1), without squaring tau."""
    return prior.tau / 2 + math.hypot(prior.tau / 2, math.sqrt(prior.d_z - 1))


def sample_tilted_prior_batch(rng: "np.random.Generator", prior: TiltedPrior, n: int) -> np.ndarray:
    """n exact draws from the tilted prior, shape (n, d_z).

    Direction uniform on the sphere; radius by rejection against N(mode, 1)
    where mode is the radial-density argmax. The log acceptance ratio
    (d-1) log(x/mode) + (tau - mode)(x - mode) is exact and peaks at the mode,
    so accepted radii follow the target law with no approximation.
    """
    n = check_count(n, "n")
    mode = tilted_radial_mode(prior)
    c = prior.d_z - 1
    radii = np.empty(n)
    filled = 0
    proposed = accepted = 0
    while filled < n:
        k = max(2048, 2 * (n - filled))
        x = rng.normal(mode, 1.0, size=k)
        u = rng.random(k)
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
    return _on_sphere(rng, radii, prior.d_z)


def save_latents_csv(path, latents) -> None:
    """One latent vector per row, for external plotting; each value is
    written as its repr."""
    latents = np.atleast_2d(np.asarray(latents, dtype=np.float64))
    with open(path, "wb") as fh:
        write_rows(fh, latents)
