"""Tilted-prior tests: normalizer closed forms, divergence oracles, the
gamma solver, and the margin sweep machinery."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import tiltvae.tilted
from tiltvae.errors import ConvergenceError, DomainError
from tiltvae.tilted import (
    TiltedPrior,
    _fit_priors,
    _mean_norms,
    _norm_slope,
    exact_kld,
    log_normalizer,
    mean_norm,
    quadratic_kld,
    verify_bound_sweep,
)

mpmath.mp.dps = 40


def _normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _mp_mean_norm(d, m):
    """E(m) = sqrt(pi/2) Gamma((d+1)/2) / (Gamma(3/2) Gamma(d/2)) M(-1/2, d/2, -m^2/2)
    in mpmath at the working precision."""
    b, m = mpmath.mpf(d) / 2, mpmath.mpf(m)
    coef = mpmath.sqrt(mpmath.pi / 2) * mpmath.gamma(b + 0.5) / (
        mpmath.gamma(1.5) * mpmath.gamma(b))
    return coef * mpmath.hyp1f1(-0.5, b, -m * m / 2)


def _mp_kld(tau, d, m):
    """log Z_tau - tau E(m) + m^2/2 in mpmath at the working precision."""
    b, t, m = mpmath.mpf(d) / 2, mpmath.mpf(tau), mpmath.mpf(m)
    z = (mpmath.hyp1f1(b, 0.5, t * t / 2)
         + t * mpmath.sqrt(2) * mpmath.gamma(b + 0.5) / mpmath.gamma(b)
         * mpmath.hyp1f1(b + 0.5, 1.5, t * t / 2))
    return mpmath.log(z) - t * _mp_mean_norm(d, m) + m * m / 2


class TestLogNormalizer:
    def test_zero_tilt_is_zero_for_any_dimension(self):
        for d in [1, 2, 10, 200]:
            assert log_normalizer(0.0, d) == 0.0

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 5.0])
    def test_one_dimensional_closed_form(self, tau):
        expected = tau * tau / 2.0 + math.log(2.0 * _normal_cdf(tau))
        assert log_normalizer(tau, 1) == pytest.approx(expected, rel=1e-8)

    def test_quoted_value_tau1_d1(self):
        assert log_normalizer(1.0, 1) == pytest.approx(1.0204, abs=1e-4)

    @pytest.mark.parametrize("tau,d", [(1.0, 2), (3.0, 5), (5.0, 10), (95.4, 200)])
    def test_against_high_precision(self, tau, d):
        t1 = mpmath.hyp1f1(d / 2, mpmath.mpf("0.5"), tau * tau / 2)
        t2 = (
            tau * mpmath.sqrt(2)
            * mpmath.gamma((d + 1) / 2) / mpmath.gamma(d / 2)
            * mpmath.hyp1f1((d + 1) / 2, mpmath.mpf("1.5"), tau * tau / 2)
        )
        assert log_normalizer(tau, d) == pytest.approx(float(mpmath.log(t1 + t2)), rel=1e-12)

    def test_strictly_increasing_in_tau(self):
        vals = [log_normalizer(t, 10) for t in np.linspace(0.0, 6.0, 13)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            log_normalizer(-1.0, 10)
        with pytest.raises(DomainError):
            log_normalizer(1.0, 0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_non_finite_tilt_is_domain_error(self, tau):
        with pytest.raises(DomainError):
            log_normalizer(tau, 10)
        with pytest.raises(DomainError):
            TiltedPrior.fit(tau, 10)

    def test_array_equals_scalar_calls(self):
        taus = np.array([0.0] + [1.2 ** w for w in range(-20, 26)])
        for d in [1, 2, 5, 10, 25, 50, 100, 200]:
            column = log_normalizer(taus, d)
            assert column.tolist() == [log_normalizer(float(t), d) for t in taus]
        assert isinstance(log_normalizer(2.0, 3), float)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf, 1e160])
    @pytest.mark.parametrize("at", [0, 2])
    def test_bad_tilt_anywhere_in_array_is_domain_error(self, bad, at):
        taus = np.array([0.0, 1.0, 5.0])
        taus[at] = bad
        with pytest.raises(DomainError):
            log_normalizer(taus, 10)


@pytest.mark.parametrize("call,name", [
    (lambda: TiltedPrior.fit(10**400, 2), "tau"),
    (lambda: TiltedPrior.fit(2.0, 10**400), "d_z"),
    (lambda: exact_kld(TiltedPrior.fit(2.0, 2), 10**400), "mu_norm"),
    (lambda: log_normalizer(10**400, 2), "tau"),
], ids=["fit-tau", "fit-d_z", "exact_kld", "log_normalizer"])
def test_number_too_large_for_a_double_is_a_domain_error(call, name):
    # Each once raised OverflowError: int too large to convert to float.
    with pytest.raises(DomainError, match=f"^{name} is too large for a double$"):
        call()


def _log_density(prior, z):
    """The tilted prior's log density at the rows of z, from its formula
    tau r - r^2/2 - d/2 log 2 pi - log Z_tau with r = ||z||."""
    r = np.linalg.norm(np.asarray(z, dtype=np.float64), axis=-1)
    return prior.tau * r - 0.5 * r * r - 0.5 * prior.d_z * math.log(2.0 * math.pi) - prior.log_z_tau


class TestLogDensity:
    def test_standard_gaussian_mode(self):
        prior = TiltedPrior.fit(0.0, 2)
        assert _log_density(prior, [0.0, 0.0]) == pytest.approx(
            -math.log(2.0 * math.pi), rel=1e-12
        )

    def test_radial_symmetry(self):
        prior = TiltedPrior.fit(3.0, 2)
        a = _log_density(prior, [3.0, 0.0])
        b = _log_density(prior, [3.0 / math.sqrt(2.0)] * 2)
        assert a == pytest.approx(b, rel=1e-12)

    def test_composition_with_normalizer(self):
        prior = TiltedPrior.fit(3.0, 2)
        expected = 4.5 - math.log(2.0 * math.pi) - log_normalizer(3.0, 2)
        assert _log_density(prior, [3.0, 0.0]) == pytest.approx(expected, rel=1e-12)

    def test_radial_argmax_at_tau(self):
        prior = TiltedPrior.fit(3.0, 2)
        radii = np.linspace(0.1, 6.0, 1000)
        vals = _log_density(prior, np.stack([radii, np.zeros_like(radii)], axis=1))
        assert radii[int(np.argmax(vals))] == pytest.approx(3.0, abs=0.01)

    def test_integrates_to_one(self):
        # In d_z = 2 the density times the circle length 2 pi r is the radial law.
        prior = TiltedPrior.fit(3.0, 2)
        r = np.linspace(0.0, 20.0, 200_001)
        pdf = 2.0 * math.pi * r * np.exp(_log_density(prior, r[:, None]))
        assert np.trapezoid(pdf, r) == pytest.approx(1.0, rel=1e-9)


class TestExactKld:
    def test_zero_tilt_zero_mean(self):
        prior = TiltedPrior.fit(0.0, 3)
        assert exact_kld(prior, 0.0) == 0.0

    def test_zero_tilt_reduces_to_gaussian_shift(self):
        prior = TiltedPrior.fit(0.0, 3)
        assert exact_kld(prior, 2.0) == pytest.approx(2.0, rel=1e-12)
        for m in np.linspace(0.0, 30.0, 16):
            assert exact_kld(prior, float(m)) == pytest.approx(0.5 * m * m, rel=1e-12)

    def test_one_kernel_call(self, prior_10_10, monkeypatch):
        # The fit keeps log Z_tau - tau^2/2, so only the mean norm's kernel
        # K((d+1)/2, d/2, m^2/2) runs.
        calls = []
        original = tiltvae.tilted.log_kummer_scaled

        def counted(a, b, z):
            calls.append((a, b))
            return original(a, b, z)

        monkeypatch.setattr(tiltvae.tilted, "log_kummer_scaled", counted)
        exact_kld(prior_10_10, 12.0)
        assert calls == [(5.5, 5.0)]

    def test_monte_carlo_consistency_single_cell(self):
        prior = TiltedPrior.fit(2.0, 5)
        mu = np.zeros(5)
        mu[0] = 3.0
        rng = np.random.default_rng(55)
        z = rng.standard_normal((400_000, 5)) + mu
        r = np.linalg.norm(z, axis=1)
        vals = -0.5 * np.sum((z - mu) ** 2, axis=1) - prior.tau * r + 0.5 * r * r + prior.log_z_tau
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert exact_kld(prior, 3.0) == pytest.approx(float(vals.mean()), abs=3 * se)

    def test_committed_rate_is_global_minimum(self, prior_10_10):
        # Dense grid plus local refinement, independent of the root solver.
        prior = prior_10_10
        grid = np.linspace(0.0, 200.0, 20_001)
        vals = exact_kld(prior, grid)
        k = int(np.argmin(vals))
        res = minimize_scalar(
            lambda m: exact_kld(prior, m),
            bounds=(grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]),
            method="bounded",
            options={"xatol": 1e-10},
        )
        assert prior.committed_rate == pytest.approx(res.fun, abs=1e-6)
        assert res.x == pytest.approx(prior.gamma, abs=1e-4)
        assert prior.gamma == pytest.approx(9.53, abs=0.005)
        assert np.all(vals >= prior.committed_rate - 1e-12)

    def test_domain(self, prior_10_10):
        with pytest.raises(DomainError):
            exact_kld(prior_10_10, -0.1)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf, 1e200])
    def test_non_finite_norm_rejected_before_any_series(self, prior_10_10, monkeypatch, bad):
        def no_series(*args):
            raise AssertionError("a series ran on an invalid norm")

        monkeypatch.setattr(tiltvae.tilted, "log_kummer_scaled", no_series)
        with pytest.raises(DomainError):
            exact_kld(prior_10_10, bad)
        with pytest.raises(DomainError):
            exact_kld(prior_10_10, np.array([1.0, bad]))
        with pytest.raises(DomainError):
            mean_norm(10, np.array([bad, 2.0]))

    def test_largest_norm_is_where_half_square_overflows(self):
        top = tiltvae.tilted._MAX_NORM
        above = math.nextafter(top, math.inf)
        assert math.isfinite(0.5 * top * top)
        assert 0.5 * above * above == math.inf
        tiltvae.tilted._norms(top)
        with pytest.raises(DomainError, match=re.escape(repr(above))):
            mean_norm(2, np.array([1.0, above]))

    def test_array_matches_elementwise_scalar_calls(self, prior_10_10):
        mu = np.concatenate([np.linspace(0.0, 200.0, 501), [37.41, 37.42, 37.43]])
        values = exact_kld(prior_10_10, mu)
        assert isinstance(exact_kld(prior_10_10, 3.0), float)
        assert values.shape == mu.shape
        assert all(exact_kld(prior_10_10, float(m)) == v for m, v in zip(mu, values))
        assert mean_norm(10, mu.reshape(4, -1)).shape == (4, 126)


class TestQuadraticKld:
    def test_value_at_gamma_is_committed_rate(self, prior_10_10):
        assert quadratic_kld(prior_10_10, prior_10_10.gamma) == prior_10_10.committed_rate

    def test_unit_curvature(self, prior_10_10):
        delta = prior_10_10.committed_rate
        assert quadratic_kld(prior_10_10, prior_10_10.gamma + 1.0) == pytest.approx(
            delta + 0.5, rel=1e-12
        )

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, 1e200])
    def test_refuses_the_norms_exact_kld_refuses(self, prior_10_10, bad):
        for mu in (bad, np.array([1.0, bad])):
            with pytest.raises(DomainError):
                exact_kld(prior_10_10, mu)
            with pytest.raises(DomainError):
                quadratic_kld(prior_10_10, mu)

    def test_scalar_norm_gives_a_float(self, prior_10_10):
        assert type(quadratic_kld(prior_10_10, 3.0)) is float
        assert quadratic_kld(prior_10_10, np.array([3.0])).shape == (1,)

    def test_tangent_from_above(self, prior_15_10):
        # The surrogate touches the exact divergence at gamma and never falls
        # below it anywhere on the grid.
        prior = prior_15_10
        grid = np.linspace(0.0, 200.0, 4001)
        margins = exact_kld(prior, grid) - quadratic_kld(prior, grid)
        assert margins.max() <= 1e-9
        near = np.abs(grid - prior.gamma) < 0.05
        assert margins[near].max() > -1e-3


class TestSolveGamma:
    @pytest.mark.parametrize("tau,d,expected", [(10.0, 10, 9.53), (15.0, 100, 11.20)])
    def test_reference_values(self, tau, d, expected):
        assert TiltedPrior.fit(tau, d).gamma == pytest.approx(expected, abs=0.05)

    def test_zero_tilt(self):
        assert TiltedPrior.fit(0.0, 10).gamma == 0.0

    def test_analytic_slope_matches_central_difference(self, prior_10_10):
        # The solver's KLD slope m - tau E'(m) against a fourth-order central
        # difference of exact_kld, on both sides of the series/asymptotic
        # crossover.
        prior = prior_10_10
        h = 1e-2
        f = lambda m: exact_kld(prior, m)
        for m in [0.5, 5.0, prior.gamma, 15.0, 37.0, 38.0, 150.0]:
            analytic = m - prior.tau * m * _norm_slope(prior.d_z, m)
            fd = (f(m - 2 * h) - 8 * f(m - h) + 8 * f(m + h) - f(m + 2 * h)) / (12 * h)
            assert analytic == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("d", [1, 2, 10, 50, 100, 200])
    def test_mean_norm_derivative_against_high_precision(self, d):
        # E'(m) = m * E'(m)/m against mpmath's derivative of E at 40 digits,
        # at norms the series gives and norms the expansion gives.
        b = mpmath.mpf(d) / 2
        coef = mpmath.sqrt(mpmath.pi / 2) * mpmath.gamma(b + 0.5) / (
            mpmath.gamma(1.5) * mpmath.gamma(b))
        e = lambda t: coef * mpmath.hyp1f1(-0.5, b, -t * t / 2)
        for m in [0.3, 5.0, 37.40, 37.43, 60.0, 200.0]:
            ref = float(mpmath.diff(e, m))
            assert m * _norm_slope(d, m) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 10, 50, 200])
    def test_mean_norm_and_slope_against_high_precision_up_to_max_norm(self, d):
        # E(m) = c M(-1/2, d/2, -m^2/2) and E'(m)/m = c/d M(1/2, d/2 + 1, -m^2/2)
        # at mpmath's 40 digits, over every norm _norms accepts, from the
        # series' small norms to the expansion's large ones.
        b = mpmath.mpf(d) / 2
        coef = mpmath.sqrt(mpmath.pi / 2) * mpmath.gamma(b + 0.5) / (
            mpmath.gamma(1.5) * mpmath.gamma(b))
        for m in [0.0, 1.0, 37.0, 38.0, 1e2, 1e4, 1e7, 1e9, 1e50, 1e150,
                  tiltvae.tilted._MAX_NORM]:
            x = -mpmath.mpf(m) ** 2 / 2
            assert mean_norm(d, m) == pytest.approx(
                float(coef * mpmath.hyp1f1(-0.5, b, x)), rel=1e-12)
            assert _norm_slope(d, m) == pytest.approx(
                float(coef / (2 * b) * mpmath.hyp1f1(0.5, b + 1, x)), rel=1e-12)

    @pytest.mark.parametrize("d", [2, 10, 50, 200])
    def test_mean_norm_excess_against_high_precision(self, d):
        # E(m) - m from m = 38 up, where it is about (d - 1) / (2m) and
        # comes from the expansion's tail without cancellation; mpmath needs
        # 2 log10(m) digits beyond 40 to resolve it.
        m = np.array([38.0, 60.0, 1e2, 1e4, 1e9, 1e50, 1e150, tiltvae.tilted._MAX_NORM])
        for mi, excess in zip(m, _mean_norms(d, m)[1]):
            with mpmath.workdps(40 + 2 * int(math.log10(mi))):
                ref = _mp_mean_norm(d, mi) - mpmath.mpf(mi)
                assert excess == pytest.approx(float(ref), rel=1e-12)

    @pytest.mark.parametrize("w", [25, 40, 60, 80, 100, 120])
    @pytest.mark.parametrize("d", [1, 2, 10, 200])
    def test_rate_and_kld_near_gamma_against_high_precision(self, d, w):
        # Near gamma, log Z_tau, tau E and m^2/2 are each about tau^2/2 (up
        # to 5e18 here) while the KLD is their small sum; 60 digits leave
        # mpmath 40 of them.
        tau = 1.2 ** w
        prior = TiltedPrior.fit(tau, d)
        with mpmath.workdps(60):
            assert prior.committed_rate == pytest.approx(
                float(_mp_kld(tau, d, prior.gamma)), rel=1e-12)
            for step in [-1.0, -0.1, 0.1, 1.0]:
                m = prior.gamma + step
                assert exact_kld(prior, m) == pytest.approx(float(_mp_kld(tau, d, m)), rel=1e-12)

    def test_stationarity_at_solution(self, prior_10_10):
        g = prior_10_10.gamma
        eps = 1e-3
        f = lambda m: exact_kld(prior_10_10, m)
        assert f(g + eps) >= f(g)
        assert f(g - eps) >= f(g)
        assert abs((f(g + eps) - f(g - eps)) / (2 * eps)) < 1e-5

    @pytest.mark.parametrize("tau,d", [
        (10.0, 10), (20.0, 10), (30.0, 10), (15.0, 100), (25.0, 100), (40.0, 100),
    ])
    def test_root_is_stationary_to_tolerance(self, tau, d):
        # criterion 1's rows: the analytic slope vanishes at gamma
        gamma = TiltedPrior.fit(tau, d).gamma
        e_prime = gamma * _norm_slope(d, gamma)
        assert abs(gamma - tau * e_prime) <= 1e-10 * max(1.0, gamma)

    @pytest.mark.parametrize("tau,d", [
        (10.0, 10), (20.0, 10), (30.0, 10), (15.0, 100), (25.0, 100), (40.0, 100),
    ])
    def test_criterion_1_rates_against_high_precision(self, tau, d):
        # criterion 1's rows: the committed rate to 1e-13 of mpmath at 60 digits
        prior = TiltedPrior.fit(tau, d)
        with mpmath.workdps(60):
            assert prior.committed_rate == pytest.approx(
                float(_mp_kld(tau, d, prior.gamma)), rel=1e-13)

    def test_zero_gamma_regime(self):
        prior = TiltedPrior.fit(12.8, 200)
        assert prior.gamma == 0.0
        assert prior.committed_rate == exact_kld(prior, 0.0)

    def test_iterations_per_cell_on_the_sweep_grid(self, monkeypatch):
        # One column fit per d_z evaluates the slope at tau once (h(0) is in
        # closed form), then once per iteration for all its running cells; so
        # the calls past that one bound every cell's iteration count.
        calls = []
        original = tiltvae.tilted._norm_slope

        def counted(d_z, m):
            calls[-1] += 1
            return original(d_z, m)

        monkeypatch.setattr(tiltvae.tilted, "_norm_slope", counted)
        for d in [2, 5, 10, 25, 50, 100, 200]:
            calls.append(0)
            fits, _ = _fit_priors([1.2 ** w for w in range(-20, 26)], d)
            assert all(isinstance(fit, TiltedPrior) for fit in fits)
        assert len(calls) == 7
        assert max(calls) - 1 <= 100

    def test_one_element_fits_equal_column_fits(self):
        taus = [1.2 ** w for w in range(-20, 26)]
        for d in [2, 5, 10, 25, 50, 100, 200]:
            for tau, fit in zip(taus, _fit_priors(taus, d)[0]):
                assert TiltedPrior.fit(tau, d) == fit

    def test_mixed_column_records_each_cell(self):
        # For d_z = 200, w = 14 has gamma = 0, w = 20 a bracketed root, and
        # w = 150 fails its stationarity test; each cell keeps its own outcome
        # and context.
        taus = [1.2 ** 14, 1.2 ** 20, 1.2 ** 150]
        (zero, root, failed), _ = _fit_priors(taus, 200)
        assert zero == TiltedPrior.fit(taus[0], 200) and zero.gamma == 0.0
        assert root == TiltedPrior.fit(taus[1], 200) and root.gamma > 0.0
        assert isinstance(failed, ConvergenceError)
        assert failed.context["tau"] == taus[2]
        assert failed.context["d_z"] == 200
        assert 0.0 < failed.context["final_iterate"] <= taus[2]
        assert abs(failed.context["gradient"]) >= 1e-5

    @pytest.mark.parametrize("w", [70, 80, 100])
    def test_large_tilts_fit(self, w):
        # The KLD carries no cancellation error, so a fixed +-1e-3 probe
        # resolves its minimum here.
        tau = 1.2 ** w
        for d in [2, 10, 200]:
            gamma = TiltedPrior.fit(tau, d).gamma
            e_prime = gamma * _norm_slope(d, gamma)
            assert abs(gamma - tau * e_prime) <= 1e-10 * max(1.0, gamma)

    def test_non_convergence_error_carries_iterate(self, monkeypatch):
        # A slope kernel with E'(m)/m = 1 leaves 1 - tau E'/m < 0 on all of
        # [0, tau]: no root, so the solver must fail with context.
        monkeypatch.setattr(tiltvae.tilted, "_norm_slope", lambda d_z, m: 1.0)
        with pytest.raises(ConvergenceError) as err:
            TiltedPrior.fit(10.0, 10)
        assert "final_iterate" in err.value.context
        assert "gradient" in err.value.context

    def test_overflowing_probe_fails_without_a_warning(self):
        # Near the largest accepted tilt the probe KLDs stay finite; the fit
        # fails its stationarity test, with no numpy warning on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError) as err:
                TiltedPrior.fit(1.8e154, 2)
        assert err.value.context["final_iterate"] == 1.8e154
        assert math.isfinite(err.value.context["gradient"])


class TestUnimodality:
    @pytest.mark.parametrize("tau,d", [(10.0, 10), (0.5, 2), (15.41, 200)])
    def test_single_slope_sign_change(self, tau, d):
        prior = TiltedPrior.fit(tau, d)
        grid = np.linspace(0.0, 200.0, 400)
        vals = exact_kld(prior, grid)
        slopes = np.sign(np.diff(vals))
        changes = np.count_nonzero(np.diff(slopes[slopes != 0]))
        assert changes <= 1


class TestSweep:
    def test_report_shape_and_margins(self):
        report = verify_bound_sweep([2, 10], [0, 5], 200, 50.0)
        assert len(report.cells) == 4
        for cell in report.cells:
            assert cell.tau == pytest.approx(1.2 ** cell.w)
            assert cell.status in ("ok", "violation")
            # tangency: margins are never meaningfully positive
            assert cell.min_margin <= 1e-9

    def test_near_gaussian_cell_margin_scales_with_tilt(self):
        # gamma = 0 here, so the margin is tau (E||z|| at 0 minus at m), which
        # vanishes proportionally with the tilt.
        report = verify_bound_sweep([2], [-20], 100, 10.0)
        cell = report.cells[0]
        assert cell.tau == pytest.approx(0.026, abs=1e-3)
        assert -cell.tau * 10.0 <= cell.min_margin <= 1e-9

    def test_cell_errors_are_isolated(self):
        # At tau = 1.2^150 (7.5e11) a bracket of 4 eps relative width is about
        # 6.7e-4 wide, so the slope at the root (3e-4 to 3e-3) stays above
        # the 1e-5 stationarity bound and the solver cannot certify the
        # minimum; the cell must record the failure while its neighbors
        # still evaluate.
        report = verify_bound_sweep([2], [0, 150], 50, 10.0)
        statuses = sorted(c.status.split(":")[0] for c in report.cells)
        assert statuses[0] == "error"
        assert len(report.errors) == 1

    def test_a_bad_dimension_fails_every_cell_of_its_column(self):
        report = verify_bound_sweep([0, 2], [0, 5], 50, 10.0)
        bad, good = report.cells[:2], report.cells[2:]
        assert all(c.d_z == 0 and c.status == "error: expected an integer d_z >= 1, got d_z=0"
                   for c in bad)
        assert all(c.d_z == 2 and c.status in ("ok", "violation") for c in good)
        assert report.errors == bad

    def test_a_dimension_too_large_for_a_double_is_a_cell_error(self):
        # The cell once recorded the OverflowError "int too large to convert to float".
        (cell,) = verify_bound_sweep([10**400], [0], 2, 1.0).cells
        assert cell.status == "error: d_z is too large for a double"

    def test_margins_equal_per_cell_recomputation(self):
        # mu reaches 80 (z = m^2/2 = 3200), past the series/asymptotic crossover;
        # (200, 14) has gamma = 0, and w = 150 fails its fit because its root
        # cannot be resolved finely enough to pass the stationarity test.
        mu = np.linspace(0.0, 80.0, 200)
        report = verify_bound_sweep([2, 10, 200], [-20, 5, 14, 20, 150], mu.size, 80.0)
        assert TiltedPrior.fit(1.2 ** 14, 200).gamma == 0.0
        for cell in report.cells:
            if cell.w == 150:
                assert cell.status.startswith("error: gamma solver did not converge")
                with pytest.raises(ConvergenceError):
                    TiltedPrior.fit(cell.tau, cell.d_z)
                continue
            prior = TiltedPrior.fit(cell.tau, cell.d_z)
            margins = exact_kld(prior, mu) - quadratic_kld(prior, mu)
            k = int(np.argmin(margins))
            assert cell.min_margin == margins[k]
            assert cell.argmin_mu == mu[k]

    def test_one_mean_norm_evaluation_per_dimension(self, monkeypatch):
        # The mean norm's kernel is K((d+1)/2, d/2, m^2/2); one call per d_z
        # takes the mu grid and the three probe norms of each fitted tilt.
        calls = []
        original = tiltvae.tilted.log_kummer_scaled

        def counted(a, b, z):
            calls.append((a, b, np.size(z)))
            return original(a, b, z)

        monkeypatch.setattr(tiltvae.tilted, "log_kummer_scaled", counted)
        dims = [2, 10, 200]
        ws = [-20, 5, 14, 150]
        verify_bound_sweep(dims, ws, 50, 80.0)
        means = [((d + 1) / 2.0, d / 2.0) for d in dims]
        mean_calls = [(a, b, size) for a, b, size in calls if (a, b) in means]
        assert mean_calls == [(a, b, 50 + 3 * len(ws)) for a, b in means]

    def test_fit_makes_no_call_at_zero_or_with_no_points(self, monkeypatch):
        # h(0) is in closed form, and h(tau) is skipped where every cell has
        # gamma = 0; so a gamma = 0 slice makes the two normalizer calls and
        # the mean-norm call alone.
        calls = []
        original = tiltvae.tilted.log_kummer_scaled

        def recorded(a, b, z):
            calls.append(np.array(z, dtype=np.float64))
            return original(a, b, z)

        monkeypatch.setattr(tiltvae.tilted, "log_kummer_scaled", recorded)
        for d in [2, 5, 10, 25, 50, 100, 200]:
            _fit_priors([1.2 ** w for w in range(-20, 26)], d)
        assert calls and all(z.size and z.any() for z in calls)
        calls.clear()
        fits, _ = _fit_priors([1.2 ** w for w in range(-20, -14)], 10, np.linspace(0.0, 5.0, 7))
        assert all(fit.gamma == 0.0 for fit in fits)
        assert len(calls) == 3

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            verify_bound_sweep([], [0], 10, 1.0)
        with pytest.raises(DomainError):
            verify_bound_sweep([2], [0], 1, 1.0)

    @pytest.mark.parametrize("mu_max", [math.inf, math.nan, 0.0, -1.0, 1e200])
    def test_mu_max_must_be_finite_and_positive(self, mu_max):
        with pytest.raises(DomainError):
            verify_bound_sweep([2], [0], 10, mu_max)

    def test_csv_schema(self, tmp_path):
        report = verify_bound_sweep([2], [0], 50, 10.0)
        path = tmp_path / "sweep.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "d_z,w,tau,min_margin,argmin_mu,status"
        assert len(lines) == 2


class TestPriorInvariants:
    def test_zero_tilt_prior_fields(self, prior_0_10):
        assert prior_0_10.gamma == 0.0
        assert prior_0_10.committed_rate == 0.0
        assert prior_0_10.log_z_tau == 0.0

    def test_log_normalizer_positive_for_positive_tilt(self):
        for tau, d in [(0.1, 1), (1.0, 5), (10.0, 10)]:
            assert log_normalizer(tau, d) > 0.0

    def test_committed_rate_matches_exact_kld_at_gamma(self, prior_10_10):
        assert exact_kld(prior_10_10, prior_10_10.gamma) == pytest.approx(
            prior_10_10.committed_rate, rel=1e-12
        )

    def test_mean_norm_interpolates_chi_mean(self):
        # the central chi mean sqrt(2) Gamma((d+1)/2) / Gamma(d/2)
        for d in [1, 2, 10]:
            chi = math.sqrt(2.0) * math.exp(math.lgamma((d + 1) / 2) - math.lgamma(d / 2))
            assert mean_norm(d, 0.0) == pytest.approx(chi, rel=1e-12)
