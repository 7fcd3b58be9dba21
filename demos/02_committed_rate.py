"""The committed rate and its quadratic surrogate.

For a unit-covariance Gaussian posterior, the KL divergence to the tilted
prior depends on the posterior mean only through its norm. A root solve on
its analytic slope finds gamma, the norm with minimum divergence; the minimum
itself is the committed rate, a floor on the divergence every encoded sample
must pay. Training uses the parabola tangent at gamma instead of the exact
curve; this script tabulates both and shows the parabola touches at gamma
and dominates everywhere else.
"""

import os

import numpy as np

from tiltvae import TiltedPrior, exact_kld, quadratic_kld

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

# --- gamma across a few (tau, d_z) settings --------------------------------
print(f"{'tau':>5} {'d_z':>4} {'gamma':>8} {'rate':>9} {'log Z':>9}")
for tau, d in [(10, 10), (20, 10), (30, 10), (15, 100), (25, 100), (40, 100)]:
    p = TiltedPrior.fit(float(tau), d)
    print(f"{tau:>5} {d:>4} {p.gamma:>8.3f} {p.committed_rate:>9.3f} {p.log_z_tau:>9.1f}")

# --- exact curve vs the tangent parabola -----------------------------------
prior = TiltedPrior.fit(15.0, 10)
mu = np.linspace(0.0, 30.0, 601)
exact = exact_kld(prior, mu)
quad = quadratic_kld(prior, mu)

with open(os.path.join(OUT, "kld_curves.csv"), "w") as fh:
    fh.write("mu_norm,exact,quadratic\n")
    for m, e, q in zip(mu.tolist(), exact.tolist(), quad.tolist()):
        fh.write(f"{m!r},{e!r},{q!r}\n")

gap = quad - exact
k = int(np.argmin(gap))
print(f"\ntau=15, d_z=10: gamma = {prior.gamma:.4f}, committed rate = {prior.committed_rate:.4f}")
print(f"smallest parabola-minus-exact gap: {gap[k]:.2e} at mu = {mu[k]:.3f} (tangency)")
print(f"largest gap on the grid: {gap.max():.2f} at mu = {mu[int(np.argmax(gap))]:.1f}")
print("negative gaps on the grid:", int((gap < -1e-9).sum()))
print("wrote out/kld_curves.csv (plot both columns against mu_norm)")

# The parabola has curvature exactly one while the exact curve's curvature
# stays below one, so replacing the exact term with the parabola during
# training only ever over-charges the divergence: the training objective
# remains a valid lower bound on the log-likelihood, and swapping the exact
# value back in after training can only tighten it.
swap_gain = (quad - exact).mean()
print(f"\nmean tightening from post-hoc exact evaluation on this grid: {swap_gain:.3f} nats")
