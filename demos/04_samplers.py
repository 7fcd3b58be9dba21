"""Three samplers and how their radial laws relate.

Trained models are sampled in two steps: a uniform direction on the unit
sphere scaled by a radius drawn from N(z_bar, 1), because encoded data
concentrates on a thin shell. The tilted prior itself has a different radial
law (a tilted chi distribution); an exact rejection sampler for it serves as
the reference. The radial histograms written here make the mismatch between
the two laws visible, which is exactly why model sampling uses the
aggregated-posterior radius rather than the prior's.
"""

import os

import numpy as np

from tiltvae import TiltedPrior
from tiltvae.sampler import (
    rng_stream,
    sample_model_latents,
    sample_tilted_prior_batch,
    save_latents_csv,
    tilted_radial_mode,
)

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

# --- directions: uniform on the sphere -------------------------------------
# Both samplers normalize a batch of standard normal rows, which is uniform
# on the sphere because the Gaussian is rotation invariant.
u = rng_stream(2026, 1).standard_normal((5, 3))
u /= np.linalg.norm(u, axis=1, keepdims=True)
print("five unit directions in R^3 (norms all 1):")
print(np.round(u, 3), "\n")

# --- aggregated-posterior draws vs exact prior draws ------------------------
prior = TiltedPrior.fit(10.0, 10)
z_bar = 10.15  # radial center estimated from encoded data
post = sample_model_latents(rng_stream(2026, 2), z_bar, 10, 50_000)
prio = sample_tilted_prior_batch(rng_stream(2026, 3), prior, 50_000)

r_post = np.linalg.norm(post, axis=1)
r_prio = np.linalg.norm(prio, axis=1)
print(f"posterior-style radii: mean {r_post.mean():.3f}, std {r_post.std():.3f}")
print(f"prior (rejection) radii: mean {r_prio.mean():.3f}, std {r_prio.std():.3f}")
print(f"prior radial mode (analytic argmax): {tilted_radial_mode(prior):.3f}")

bins = np.linspace(5.0, 16.0, 56)
hist_post, _ = np.histogram(r_post, bins=bins, density=True)
hist_prio, _ = np.histogram(r_prio, bins=bins, density=True)
with open(os.path.join(OUT, "radial_histograms.csv"), "w") as fh:
    fh.write("radius,posterior_sampler,prior_rejection\n")
    for c, a, b in zip(0.5 * (bins[:-1] + bins[1:]), hist_post, hist_prio):
        fh.write(f"{c!r},{a!r},{b!r}\n")
print("wrote out/radial_histograms.csv (the two radial laws visibly differ)")

# empirical KS distance between the two radial laws
both = np.sort(np.concatenate([r_post, r_prio]))
cdf_a = np.searchsorted(np.sort(r_post), both) / r_post.size
cdf_b = np.searchsorted(np.sort(r_prio), both) / r_prio.size
print(f"KS distance between the radial laws: {np.abs(cdf_a - cdf_b).max():.3f}")

# --- reproducibility: streams are keyed by (seed, stream id) ----------------
once = sample_model_latents(rng_stream(2026, 9), z_bar, 10, 5)
again = sample_model_latents(rng_stream(2026, 9), z_bar, 10, 5)
assert np.array_equal(once, again)
print("\nsame (seed, stream) reproduces the same draws, bit for bit")

save_latents_csv(os.path.join(OUT, "latents.csv"), post[:200])
print("wrote out/latents.csv (one latent vector per row)")
