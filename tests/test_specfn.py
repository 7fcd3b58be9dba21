"""Special-function tests against independent oracles.

Oracles: mpmath at 40 digits for Kummer M (60 for its expansion's tail), scipy
for the moderate-argument cross checks, and seeded Monte Carlo for the chi
moments. The implementation under test never touches those libraries.

The kernel entry gives log(e^-z M(a, b, z)); the half-order Laguerre function
is reached through the mean norm, E(m) = sqrt(pi/2) L_{1/2}^(d/2-1)(-m^2/2),
and its derivative through the slope E'(m)/m = -sqrt(pi/2) L'_{1/2}(-m^2/2).
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sps

import tiltvae.specfn
from tiltvae.errors import ConvergenceError, DomainError
from tiltvae.specfn import _log_kummer_asymptotic, _log_series_pos, log_kummer_scaled
from tiltvae.tilted import _norm_slope, mean_norm

mpmath.mp.dps = 40

_SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)


def log_kummer_m(a, b, z):
    """log M(a, b, z): the kernel entry's log(e^-z M) plus z."""
    return log_kummer_scaled(a, b, z)[0] + np.asarray(z, dtype=np.float64)


def _norm(alpha, x):
    """Dimension d = 2(alpha + 1) and norm m = sqrt(-2x) for L_{1/2}^(alpha)(x)."""
    return round(2.0 * alpha + 2.0), np.sqrt(-2.0 * np.asarray(x, dtype=np.float64))


def laguerre_half(alpha, x):
    return mean_norm(*_norm(alpha, x)) / _SQRT_PI_OVER_2


def laguerre_half_prime(alpha, x):
    return -_norm_slope(*_norm(alpha, x)) / _SQRT_PI_OVER_2


def _series_oracle(a, b, z, terms=200):
    """Brute-force float summation, valid only at modest arguments."""
    total, t = 1.0, 1.0
    for n in range(terms):
        t *= (a + n) * z / ((b + n) * (n + 1))
        total += t
    return total


class TestLogKummerM:
    def test_exponential_identity(self):
        # M(a, a, z) = e^z
        assert log_kummer_m(1.0, 1.0, 3.0) == pytest.approx(3.0, abs=1e-12)

    def test_value_at_zero_is_exactly_one(self):
        for a, b in [(2.5, 0.5), (1.0, 2.0), (50.0, 1.5), (0.5, 0.5)]:
            val = log_kummer_m(a, b, 0.0)
            assert isinstance(val, float)
            assert val == 0.0

    def test_closed_form_m_1_2_1(self):
        # M(1, 2, z) = (e^z - 1) / z
        val = math.exp(log_kummer_m(1.0, 2.0, 1.0))
        assert val == pytest.approx(math.e - 1.0, rel=1e-10)
        assert val == pytest.approx(_series_oracle(1.0, 2.0, 1.0), rel=1e-12)

    @pytest.mark.parametrize("a,b,z", [
        (0.5, 0.5, 2.0), (5.0, 0.5, 12.5), (5.5, 1.5, 12.5),
        (2.0, 3.0, 30.0), (50.0, 0.5, 200.0), (1.5, 2.5, 0.3),
    ])
    def test_against_scipy(self, a, b, z):
        assert math.exp(log_kummer_m(a, b, z)) == pytest.approx(
            float(sps.hyp1f1(a, b, z)), rel=1e-10
        )

    def test_log_domain_handles_huge_arguments(self):
        # value ~ e^5032, far beyond the native float range
        val = log_kummer_m(100.0, 0.5, 4551.0)
        ref = mpmath.log(mpmath.hyp1f1(100, mpmath.mpf("0.5"), 4551))
        assert val == pytest.approx(float(ref), rel=1e-12)

    def test_series_asymptotic_overlap(self):
        # Crossover validation on z in [600, 800]; the expansion returns
        # log(e^-z M), the series log M.
        z = np.linspace(600.0, 800.0, 9)
        series = _log_series_pos(2.5, 1.5, z)
        ok, asym, _ = _log_kummer_asymptotic(2.5, 1.5, z)
        assert ok.all()
        assert z + asym == pytest.approx(series, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            log_kummer_scaled(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            log_kummer_scaled(1.0, -2.0, 1.0)
        with pytest.raises(DomainError):
            log_kummer_scaled(-1.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            log_kummer_scaled(1.5, -0.5, 2.0)
        for bad in [-1.0, -1e-300, math.nan, math.inf, -math.inf]:
            with pytest.raises(DomainError):
                log_kummer_scaled(2.5, 0.5, bad)
            with pytest.raises(DomainError):
                log_kummer_scaled(2.5, 0.5, np.array([1.0, bad]))

    def test_convergence_error_carries_arguments(self):
        with pytest.raises(ConvergenceError) as err:
            _log_series_pos(1.0, 1.0, 2.0e6)
        assert err.value.context["z"] == 2.0e6

    def test_pure_and_deterministic(self):
        assert log_kummer_m(3.5, 1.5, 77.7) == log_kummer_m(3.5, 1.5, 77.7)
        # element-wise scalar calls reproduce an array call bit for bit
        z = np.array([0.0, 0.3, 77.7, 699.9, 700.1, 4551.0])
        values = log_kummer_m(3.5, 1.5, z)
        assert [log_kummer_m(3.5, 1.5, float(zi)) for zi in z] == values.tolist()

    @pytest.mark.parametrize("a,b", [(1.5, 1.0), (5.5, 5.0), (100.5, 101.0), (3.0, 0.5)])
    def test_tail_is_the_expansion_past_its_leading_term(self, a, b):
        # e^-z M = Gamma(b)/Gamma(a) z^(a-b) (1 + tail) where the expansion
        # gave the value, against mpmath at 60 digits; NaN exactly where the
        # series gave it. The expansion certifies itself here from z = 100.
        z = np.array([0.0, 1.0, 100.0, 300.0, 699.9, 700.1, 2000.0, 1e5, 1e12])
        values, tail = log_kummer_scaled(a, b, z)
        series = np.isnan(tail)
        assert series.tolist() == [True, True] + [False] * 7
        assert values[0] == 0.0
        assert values[1:][series[1:]].tolist() == (
            _log_series_pos(a, b, z[1:][series[1:]]) - z[1:][series[1:]]).tolist()
        with mpmath.workdps(60):
            for zi, t in zip(z[~series], tail[~series]):
                zm = mpmath.mpf(zi)
                ref = (mpmath.hyp1f1(a, b, zm) * mpmath.exp(-zm) * mpmath.gamma(a)
                       / mpmath.gamma(b) * zm ** (b - a) - 1)
                assert t == pytest.approx(float(ref), rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 50, 100, 200])
    def test_library_families_against_high_precision(self, d):
        # The four (a, b) the library calls, over z from 0.5 to 800, on both
        # sides of where the expansion starts to certify itself (which depends
        # on the family), against mpmath at 40 digits.
        z = np.unique(np.concatenate([np.geomspace(0.5, 800.0, 120), [699.9, 700.0, 700.1]]))
        for a, b in [(d / 2, 0.5), ((d + 1) / 2, 1.5), ((d + 1) / 2, d / 2),
                     ((d + 1) / 2, d / 2 + 1)]:
            values = log_kummer_scaled(a, b, z)[0]
            for zi, v in zip(z, values):
                ref = mpmath.hyp1f1(a, b, zi) * mpmath.exp(-mpmath.mpf(zi))
                assert math.exp(v) == pytest.approx(float(ref), rel=1e-12), (a, b, zi)
            assert [log_kummer_scaled(a, b, float(zi))[0] for zi in z] == values.tolist()

    @pytest.mark.parametrize("d", [1, 2, 10, 200])
    def test_library_families_are_chunk_invariant(self, d, monkeypatch):
        # Over 1,024 points take the expansion, so the array call sums it 8
        # terms at a time and a scalar call all 200 at once; the values agree
        # bit for bit, and the expansion's against mpmath at 40 digits.
        widths = []
        original = tiltvae.specfn._asymptotic_chunk

        def recorded(ratio, *args):
            widths.append(ratio.size)
            return original(ratio, *args)

        monkeypatch.setattr(tiltvae.specfn, "_asymptotic_chunk", recorded)
        z = np.geomspace(0.5, 2e4, 2048)
        for a, b in [(d / 2, 0.5), ((d + 1) / 2, 1.5), ((d + 1) / 2, d / 2),
                     ((d + 1) / 2, d / 2 + 1)]:
            widths.clear()
            values, tail = log_kummer_scaled(a, b, z)
            assert widths[0] == 8
            widths.clear()
            assert [log_kummer_scaled(a, b, float(zi))[0] for zi in z] == values.tolist()
            assert set(widths) == {200}
            for zi, v in zip(z[~np.isnan(tail)], values[~np.isnan(tail)]):
                ref = mpmath.hyp1f1(a, b, zi) * mpmath.exp(-mpmath.mpf(zi))
                assert math.exp(v) == pytest.approx(float(ref), rel=1e-12), (a, b, zi)


class TestLogKummerScaled:
    """Where the kernel's large-z expansion certifies itself, and where the
    series takes over."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 50, 100, 200])
    def test_library_families_expansion_at_large_z(self, d):
        # Out to z = 2e4, where the sweep's mu grid reaches; every point the
        # expansion gives (a finite tail) against mpmath at 40 digits.
        z = np.array([1e3, 2e3, 5e3, 1e4, 2e4])
        for a, b in [(d / 2, 0.5), ((d + 1) / 2, 1.5), ((d + 1) / 2, d / 2),
                     ((d + 1) / 2, d / 2 + 1)]:
            values, tail = log_kummer_scaled(a, b, z)
            for zi, v in zip(z[~np.isnan(tail)], values[~np.isnan(tail)]):
                ref = mpmath.hyp1f1(a, b, zi) * mpmath.exp(-mpmath.mpf(zi))
                assert float(mpmath.exp(v) / ref) == pytest.approx(1.0, rel=1e-12), (a, b, zi)

    def test_uncertified_expansion_falls_back_to_the_series(self):
        # At d_z = 2000 the mean norm's expansion near z = a still has terms
        # above 1e-17 of the sum after all 200, so it is not certified and
        # the series gives the value there (NaN tail), to 40-digit mpmath.
        a, b = 1000.5, 1000.0
        z = np.linspace(1000.4, 1037.0, 7)
        values, tail = log_kummer_scaled(a, b, z)
        assert np.isnan(tail).all()
        for zi, v in zip(z, values):
            ref = mpmath.hyp1f1(a, b, zi) * mpmath.exp(-mpmath.mpf(zi))
            assert float(mpmath.exp(v) / ref) == pytest.approx(1.0, rel=1e-12), zi


class TestMeanNormAtZero:
    """The central chi mean is the mean norm at a zero posterior mean."""

    def test_closed_forms(self):
        assert mean_norm(1, 0.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
        assert mean_norm(2, 0.0) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)
        for d in [3, 10, 50, 200]:
            chi = math.sqrt(2.0) * math.exp(math.lgamma((d + 1) / 2) - math.lgamma(d / 2))
            assert mean_norm(d, 0.0) == pytest.approx(chi, rel=1e-12)

    def test_value_at_zero_alpha4(self):
        # Gamma(5.5) / (Gamma(1.5) Gamma(5)) = 315/128
        assert laguerre_half(4.0, 0.0) == pytest.approx(2.4609375, rel=1e-12)

    def test_value_at_zero_alpha0(self):
        assert laguerre_half(0.0, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_zero_matches_gamma_ratio_identity(self):
        for alpha in [0.0, 0.5, 4.0, 49.0]:
            log_ratio = math.lgamma(alpha + 1.5) - math.lgamma(alpha + 1.0)
            expected = math.exp(log_ratio) / math.gamma(1.5)
            assert laguerre_half(alpha, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_monte_carlo_d10(self):
        rng = np.random.default_rng(101)
        total = 0.0
        n = 10**7
        for _ in range(10):
            z = rng.standard_normal((n // 10, 10))
            total += float(np.linalg.norm(z, axis=1).sum())
        assert mean_norm(10, 0.0) == pytest.approx(total / n, rel=1e-3)

    def test_monotone_and_jensen(self):
        means = [mean_norm(d, 0.0) for d in range(1, 60)]
        assert all(b > a for a, b in zip(means, means[1:]))
        for d, m in enumerate(means, start=1):
            assert m * m < d
            if d >= 2:
                assert math.sqrt(d - 1) < m < math.sqrt(d)

    def test_domain(self):
        with pytest.raises(DomainError):
            mean_norm(0, 0.0)

    @pytest.mark.parametrize("d", [2.5, 0.5, 0, -3, math.nan, math.inf])
    def test_dimension_must_be_a_positive_integer(self, d):
        with pytest.raises(DomainError, match="d_z"):
            mean_norm(d, 1.0)


class TestLaguerreHalf:
    """L_{1/2}^(alpha) at alpha = d/2 - 1, through mean_norm and _norm_slope."""

    def test_noncentral_chi_mean_monte_carlo(self):
        # sqrt(pi/2) L_{1/2}^(4)(-50) is the mean norm of N(mu, I_10),
        # ||mu||^2 = 100.
        rng = np.random.default_rng(7)
        mu = np.zeros(10)
        mu[0] = 10.0
        n = 10**7
        total = 0.0
        for _ in range(10):
            z = rng.standard_normal((n // 10, 10)) + mu
            total += float(np.linalg.norm(z, axis=1).sum())
        value = math.sqrt(math.pi / 2.0) * laguerre_half(4.0, -50.0)
        assert value == pytest.approx(total / n, rel=1e-3)

    def test_monotone_in_argument_magnitude(self):
        xs = -np.linspace(0.0, 500.0, 40)
        vals = [laguerre_half(4.0, float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("d", [2, 10, 50, 200])
    def test_extreme_argument_against_high_precision(self, d):
        # the largest argument the divergence machinery ever passes
        alpha = d / 2 - 1
        ref = float(
            mpmath.gamma(alpha + 1.5) / (mpmath.gamma(1.5) * mpmath.gamma(alpha + 1))
            * mpmath.hyp1f1(-0.5, alpha + 1, -20000)
        )
        assert laguerre_half(alpha, -20000.0) == pytest.approx(ref, rel=1e-10)

    def test_at_least_one_for_nonnegative_alpha(self):
        for alpha in [0.0, 1.0, 4.0, 99.0]:
            for x in [0.0, -1.0, -100.0]:
                assert laguerre_half(alpha, x) >= 1.0

    def test_domain(self):
        # x > 0 has no real norm; a negative norm is its counterpart.
        with pytest.raises(DomainError):
            mean_norm(10, -1.0)
        with pytest.raises(DomainError):
            laguerre_half(-1.0, -1.0)
        for bad in [math.nan, -math.inf]:
            with pytest.raises(DomainError):
                laguerre_half(4.0, bad)
            with pytest.raises(DomainError):
                laguerre_half_prime(4.0, np.array([-1.0, bad]))

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 4.0, 49.0, 99.0])
    def test_array_against_high_precision(self, alpha):
        # one array call across the series/asymptotic crossover, out to
        # -x = 20000
        x = np.array([0.0, -1e-3, -0.5, -10.0, -100.0, -699.9, -700.1, -2000.0, -20000.0])
        values = laguerre_half(alpha, x)
        binom = mpmath.gamma(alpha + 1.5) / (mpmath.gamma(1.5) * mpmath.gamma(alpha + 1))
        for xi, v in zip(x, values):
            ref = float(binom * mpmath.hyp1f1(-0.5, alpha + 1, xi))
            assert v == pytest.approx(ref, rel=1e-10)
        # element-wise scalar calls reproduce the array bit for bit
        assert [laguerre_half(alpha, float(xi)) for xi in x] == values.tolist()
        assert isinstance(laguerre_half(alpha, -3.0), float)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 4.0, 49.0, 99.0])
    def test_derivative_against_high_precision(self, alpha):
        x = np.array([0.0, -0.5, -10.0, -699.9, -700.1, -20000.0])
        values = laguerre_half_prime(alpha, x)
        binom = mpmath.gamma(alpha + 1.5) / (mpmath.gamma(1.5) * mpmath.gamma(alpha + 1))
        for xi, v in zip(x, values):
            ref = float(mpmath.diff(lambda t: binom * mpmath.hyp1f1(-0.5, alpha + 1, t), xi))
            assert v == pytest.approx(ref, rel=1e-10)
        assert [laguerre_half_prime(alpha, float(xi)) for xi in x] == values.tolist()
