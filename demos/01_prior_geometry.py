"""Geometry of the exponentially tilted Gaussian.

The prior has density proportional to exp(tau ||z||) exp(-||z||^2 / 2): a
standard Gaussian reweighted toward larger radii. This script walks through
its basic shape: the radial mode sits at tau, the log normalizer is computed
in log space (it scales like exp(tau^2/2), far past float overflow for large
tilts), and in one dimension the normalizer has a closed form to check
against.
"""

import math
import os

import numpy as np

from tiltvae import TiltedPrior, log_normalizer

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

# --- radial profile: the density peaks on the sphere of radius tau --------
# log density at radius r: tau r - r^2/2 - d/2 log(2 pi) - log Z_tau
prior = TiltedPrior.fit(3.0, 2)
radii = np.linspace(0.01, 8.0, 400)
profile = (prior.tau * radii - 0.5 * radii**2
           - 0.5 * prior.d_z * math.log(2 * math.pi) - prior.log_z_tau)
mode = radii[int(np.argmax(profile))]
print(f"tau = {prior.tau}, d_z = {prior.d_z}")
print(f"radial argmax of the density: {mode:.3f} (the tilt is {prior.tau})")

with open(os.path.join(OUT, "radial_profile.csv"), "w") as fh:
    fh.write("radius,log_pdf\n")
    for r, v in zip(radii, profile):
        fh.write(f"{r!r},{v!r}\n")
print("wrote out/radial_profile.csv (plot radius vs log_pdf to see the ridge)")

# --- the normalizer is an expectation over the untilted Gaussian ----------
# Z_tau = E[exp(tau ||z||)], z ~ N(0, I). At small tilts a plain Monte Carlo
# average still has usable variance, so we can see the identity directly.
tau, d = 1.5, 4
g = np.random.default_rng(0).standard_normal((10**6, d))
mc = np.exp(tau * np.linalg.norm(g, axis=1) - log_normalizer(tau, d)).mean()
print(f"\nE[exp({tau}||z||)] / Z_tau over 1e6 Gaussian draws: {mc:.4f} (should be ~1)")

# --- one-dimensional closed form: Z = 2 exp(tau^2/2) Phi(tau) --------------
for tau in (0.5, 1.0, 2.0, 5.0):
    closed = tau * tau / 2 + math.log(2 * 0.5 * (1 + math.erf(tau / math.sqrt(2))))
    print(f"tau={tau:>4}: log Z = {log_normalizer(tau, 1):.12f}   closed form {closed:.12f}")

# --- log-space arithmetic keeps enormous tilts finite ----------------------
big = log_normalizer(95.4, 200)
print(f"\nlog Z at tau=95.4, d=200: {big:.2f}  (Z itself ~ e^{big:.0f}, far past float range)")
