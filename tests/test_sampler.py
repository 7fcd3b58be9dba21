"""Sampler tests: distributional checks via seeded statistics, KS tests
against analytic radial laws, and stream determinism."""

import math

import numpy as np
import pytest
from scipy.stats import chisquare, kstest, norm

from tiltvae.errors import DomainError
from tiltvae.sampler import (
    RngStream,
    _on_sphere,
    sample_model_latents,
    sample_tilted_prior_batch,
    save_latents_csv,
    tilted_radial_mode,
)
from tiltvae.tilted import TiltedPrior, log_normalizer


def _truncated_normal_cdf(x, loc, scale=1.0):
    lo = norm.cdf(0.0, loc=loc, scale=scale)
    return np.clip((norm.cdf(x, loc=loc, scale=scale) - lo) / (1.0 - lo), 0.0, 1.0)


class TestRngStream:
    def test_identical_seeds_identical_sequences(self):
        a = RngStream(123).generator.standard_normal(64)
        b = RngStream(123).generator.standard_normal(64)
        assert np.array_equal(a, b)

    def test_split_streams_differ(self):
        a = RngStream(123, 1).generator.standard_normal(64)
        b = RngStream(123, 2).generator.standard_normal(64)
        assert not np.array_equal(a, b)

    def test_known_philox_stability(self):
        # A frozen draw guards against silent generator changes.
        v = RngStream(0).generator.standard_normal(2)
        assert np.array_equal(v, RngStream(0).generator.standard_normal(2))


def _directions(seed, d_z, n):
    """n batch-drawn directions: the sampler's sphere step at unit radii."""
    return _on_sphere(RngStream(seed).generator, np.ones(n), d_z)


class TestUnitSphere:
    def test_one_dimensional_gives_signs(self):
        vals = set(_directions(0, 1, 12)[:, 0].tolist())
        assert vals <= {1.0, -1.0}
        assert len(vals) == 2

    def test_unit_norm(self):
        v = _directions(5, 10, 200)
        assert np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) < 1e-12)

    def test_mean_vector_vanishes(self):
        assert np.linalg.norm(_directions(6, 3, 10**5).mean(axis=0)) < 0.02


def _radii(seed, z_bar, n, d_z=3):
    """Norms of n aggregated-posterior draws: the radii the sampler drew."""
    return np.linalg.norm(sample_model_latents(RngStream(seed), z_bar, d_z, n), axis=1)


class TestPosteriorRadius:
    def test_mean_matches_radial_center(self):
        draws = _radii(7, 10.15, 10**5)
        assert draws.mean() == pytest.approx(10.15, abs=0.01)

    def test_truncation_returns_positive(self):
        draws = _radii(8, 0.5, 2000)
        assert min(draws) > 0.0

    def test_large_center_rarely_truncates(self):
        # With z_bar = 30 the negative tail is ~30 sigma out: the truncated
        # law is indistinguishable from the untruncated one.
        draws = _radii(9, 30.0, 10**4)
        assert kstest(draws, lambda x: norm.cdf(x, loc=30.0)).statistic < 0.02

    def test_law_validation(self):
        # A NaN z_bar once made the positive-radius redraw loop run forever.
        for z_bar, d_z, n in [(-1.0, 3, 5), (0.0, 3, 5), (math.nan, 3, 5), (math.inf, 3, 5),
                              (1.0, 0, 5), (1.0, 3, 0), (1.0, 3, -3)]:
            with pytest.raises(DomainError):
                sample_model_latents(RngStream(0), z_bar, d_z, n)


class TestModelLatent:
    def test_radial_law_ks(self):
        z = sample_model_latents(RngStream(10), 10.15, 10, 10**5)
        r = np.linalg.norm(z, axis=1)
        stat = kstest(r, lambda x: _truncated_normal_cdf(x, 10.15)).statistic
        assert stat < 0.01

    def test_angular_uniformity_2d(self):
        z = sample_model_latents(RngStream(11), 5.0, 2, 10**5)
        angles = np.mod(np.arctan2(z[:, 1], z[:, 0]), 2.0 * math.pi)
        counts, _ = np.histogram(angles, bins=36, range=(0.0, 2.0 * math.pi))
        assert chisquare(counts).pvalue > 0.001

    def test_deterministic_on_stream_reset(self):
        a = sample_model_latents(RngStream(12), 5.0, 4, 8)
        b = sample_model_latents(RngStream(12), 5.0, 4, 8)
        assert np.array_equal(a, b)


class TestTiltedRejection:
    def test_zero_tilt_matches_standard_gaussian_moments(self):
        prior = TiltedPrior.fit(0.0, 5)
        z = sample_tilted_prior_batch(RngStream(14), prior, 10**5)
        assert np.all(np.abs(z.mean(axis=0)) < 0.01)
        assert np.all(np.abs(z.var(axis=0) - 1.0) < 0.02)

    def test_empirical_mode_matches_radial_argmax(self, prior_10_10):
        z = sample_tilted_prior_batch(RngStream(15), prior_10_10, 10**5)
        r = np.linalg.norm(z, axis=1)
        counts, edges = np.histogram(r, bins=120)
        centers = 0.5 * (edges[:-1] + edges[1:])
        empirical_mode = centers[int(np.argmax(counts))]
        assert empirical_mode == pytest.approx(tilted_radial_mode(prior_10_10), abs=0.2)

    def test_radial_cdf_matches_quadrature(self):
        # Independent oracle: integrate the radial density numerically.
        prior = TiltedPrior.fit(5.0, 10)
        z = sample_tilted_prior_batch(RngStream(16), prior, 10**5)
        r = np.linalg.norm(z, axis=1)
        grid = np.linspace(1e-6, 16.0, 3000)
        pdf = np.exp(
            (prior.d_z - 1) * np.log(grid) + prior.tau * grid - 0.5 * grid * grid
        )
        cdf = np.cumsum(pdf)
        cdf /= cdf[-1]
        stat = kstest(r, lambda x: np.interp(x, grid, cdf)).statistic
        assert stat < 0.01

    def test_normalizer_identity_via_gaussian_draws(self):
        # E[e^{tau ||g||}] over standard Gaussians equals Z_tau; checked at a
        # tilt where the plain-average estimator still has workable variance.
        tau, d = 2.0, 5
        g = RngStream(17).generator.standard_normal((10**6, d))
        r = np.linalg.norm(g, axis=1)
        log_z = log_normalizer(tau, d)
        est = np.exp(tau * r - log_z).mean()
        assert est == pytest.approx(1.0, abs=0.02)

    def test_posterior_and_prior_radial_laws_differ(self, prior_10_10):
        # The two-step sampler is intentionally *not* the prior: its radial
        # law is normal around z_bar while the prior's is the tilted chi law.
        z_prior = sample_tilted_prior_batch(RngStream(18), prior_10_10, 2 * 10**4)
        z_post = sample_model_latents(RngStream(19), 10.15, 10, 2 * 10**4)
        r_prior = np.sort(np.linalg.norm(z_prior, axis=1))
        r_post = np.sort(np.linalg.norm(z_post, axis=1))
        grid = np.linspace(5.0, 16.0, 500)
        cdf_prior = np.searchsorted(r_prior, grid) / r_prior.size
        cdf_post = np.searchsorted(r_post, grid) / r_post.size
        assert np.max(np.abs(cdf_prior - cdf_post)) > 0.05

    def test_contract_corner_stays_efficient(self):
        # largest tilt and dimension the sampler promises to handle
        prior = TiltedPrior.fit(100.0, 200)
        z = sample_tilted_prior_batch(RngStream(21), prior, 10**4)
        r = np.linalg.norm(z, axis=1)
        assert r.mean() == pytest.approx(tilted_radial_mode(prior), abs=0.1)


def test_save_latents_csv(tmp_path):
    path = tmp_path / "latents.csv"
    save_latents_csv(path, np.array([[1.0, 2.5], [-0.25, 0.0]]))
    lines = path.read_text().splitlines()
    assert lines == ["1.0,2.5", "-0.25,0.0"]


def test_save_latents_csv_matches_float_repr(tmp_path):
    gen = RngStream(30).generator
    rows = [
        np.array([0.0, -0.0, 1e-5, 1e16, 5e-324]),
        gen.standard_normal(5) * 10.0 ** gen.integers(-300, 300, size=5),
        gen.random(5),
    ]
    path = tmp_path / "latents.csv"
    save_latents_csv(path, np.array(rows))
    expected = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
    assert path.read_text() == expected


class TestPriorSamplerInputs:
    @pytest.mark.parametrize("n", [0, -3])
    def test_count_below_one_is_domain_error(self, prior_10_10, n):
        with pytest.raises(DomainError, match=f"n >= 1, got n={n}"):
            sample_tilted_prior_batch(RngStream(1), prior_10_10, n)

    def test_radial_mode_of_the_largest_tilt_is_finite(self):
        # tau^2 overflows above 1.34e154; the largest accepted tau is 1.9e154.
        prior = TiltedPrior(tau=1.8e154, d_z=10, log_z_tau=0.0, gamma=0.0, committed_rate=0.0,
                            log_z_scaled=0.0)
        assert tilted_radial_mode(prior) == 1.8e154
