"""Exponentially tilted Gaussian prior for VAEs.

The package is organized around the prior itself (`tilted`), the log-domain
special functions it needs (`specfn`), samplers (`sampler`), a small numpy
VAE with manual reverse-mode gradients (`vae`), out-of-distribution scoring
(`ood`), dataset loaders/generators (`data`), and a reproducible CLI (`cli`).
"""

__version__ = "0.1.0"

from .specfn import log_kummer_scaled
from .tilted import (
    SweepReport,
    TiltedPrior,
    exact_kld,
    log_normalizer,
    quadratic_kld,
    verify_bound_sweep,
)

__all__ = [
    "log_kummer_scaled",
    "TiltedPrior",
    "SweepReport",
    "log_normalizer",
    "exact_kld",
    "quadratic_kld",
    "verify_bound_sweep",
    "__version__",
]
