"""VAE tests: encoder/decoder contracts, finite-difference gradient checks,
training behavior, and checkpoint round trips."""

import math
import re
import struct
import warnings

import mpmath
import numpy as np
import pytest

import tiltvae.vae as V
from tiltvae.data import Dataset, gen_blobs, gen_noise, blob_preset
from tiltvae.errors import DomainError, NumericalError
from tiltvae.sampler import rng_stream
from tiltvae.tilted import TiltedPrior, exact_kld, quadratic_kld


def _const_model(prior, d_x, d_z, mu_bias, dec_bias=None, hidden=(4,)):
    """All-zero weights: the encoder and decoder outputs are their biases."""
    model = V.build_model(rng_stream(0), d_x, d_z, prior, hidden=hidden)
    for mlp in (model.encoder, model.decoder):
        for w in mlp.weights:
            w[:] = 0.0
        for b in mlp.biases:
            b[:] = 0.0
    model.encoder.biases[-1][:] = mu_bias
    if dec_bias is not None:
        model.decoder.biases[-1][:] = dec_bias
    return model


@pytest.fixture(scope="module")
def tilted_prior():
    return TiltedPrior.fit(10.0, 10)


class TestEncodeDecode:
    def test_zero_weight_encoder_returns_bias(self, tilted_prior):
        bias = np.arange(10, dtype=np.float64)
        model = _const_model(tilted_prior, 6, 10, bias)
        mu, log_sigma = V.encode(model, np.ones((1, 6)))
        assert np.array_equal(mu, bias[None, :])
        assert log_sigma is None

    def test_gaussian_encoder_splits_heads(self):
        bias = np.concatenate([np.full(3, 2.0), np.full(3, -0.5)])
        model = _const_model(V.StandardGaussian(), 6, 3, bias)
        mu, log_sigma = V.encode(model, np.zeros((1, 6)))
        assert np.array_equal(mu, np.full((1, 3), 2.0))
        assert np.array_equal(log_sigma, np.full((1, 3), -0.5))

    def test_encode_is_pure(self, tilted_prior):
        model = V.build_model(rng_stream(1), 6, 10, tilted_prior)
        x = rng_stream(2).random((1, 6))
        a, _ = V.encode(model, x)
        b, _ = V.encode(model, x)
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self, tilted_prior):
        model = V.build_model(rng_stream(1), 6, 10, tilted_prior)
        with pytest.raises(DomainError):
            V.encode(model, np.zeros((1, 7)))

    @pytest.mark.parametrize("fn,shape,expected", [
        ("encode", (6,), "(n, 6)"), ("encode", (2, 3, 6), "(n, 6)"),
        ("decode", (10,), "(n, 10)"), ("decode", (1, 6), "(n, 10)"),
    ])
    def test_only_batches_are_accepted(self, tilted_prior, fn, shape, expected):
        model = V.build_model(rng_stream(1), 6, 10, tilted_prior)
        with pytest.raises(DomainError, match=re.escape(f"expected {expected}")):
            getattr(V, fn)(model, np.zeros(shape))

    def test_decode_clamps_to_pixels(self, tilted_prior):
        model = V.build_model(rng_stream(3), 6, 10, tilted_prior, hidden=(8,))
        z = 20.0 * rng_stream(4).standard_normal((50, 10))
        raw = V._mlp_forward(model.decoder, z, "decoder")
        assert raw.min() < 0.0 and raw.max() > 1.0
        xhat = V.decode(model, z)
        assert xhat.min() == 0.0 and xhat.max() == 1.0
        assert np.array_equal(xhat, np.clip(raw, 0.0, 1.0))

    def test_non_finite_activations_name_the_layer(self, tilted_prior):
        model = V.build_model(rng_stream(1), 6, 10, tilted_prior)
        model.encoder.weights[1][0, 0] = np.inf
        with pytest.raises(NumericalError) as err:
            V.encode(model, np.ones((1, 6)))
        assert err.value.context["layer"] == 1


class TestSoftplus:
    """The fused softplus and its sigmoid slope, from one exp(-|a|)."""

    GRID = np.concatenate([
        [0.0, 1e-300, -1e-300, 800.0, -800.0],
        np.linspace(-60.0, 60.0, 4801),
        np.geomspace(1e-20, 800.0, 400),
        -np.geomspace(1e-20, 800.0, 400),
    ])

    @staticmethod
    def _ulps(got, ref):
        return np.abs(got - ref) / np.spacing(np.abs(ref))

    def _fused(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                value, e = V._softplus(self.GRID)
                slope = V._sigmoid(self.GRID, e)
        assert np.all(np.isfinite(value)) and np.all(np.isfinite(slope))
        return value, slope

    def test_softplus_matches_logaddexp(self):
        value, _ = self._fused()
        assert self._ulps(value, np.logaddexp(0.0, self.GRID)).max() <= 4.0

    def test_sigmoid_matches_tanh_form(self):
        # 0.5 (1 + tanh(a/2)) cancels for a < -2 (22 ULP at a = -4.8): it is
        # compared where it is accurate, and at -800 where both are 0.
        _, slope = self._fused()
        a = self.GRID
        keep = (a >= -2.0) | (a == -800.0)
        ref = 0.5 * (1.0 + np.tanh(a[keep] / 2.0))
        assert self._ulps(slope[keep], ref).max() <= 4.0

    def test_sigmoid_and_softplus_match_mpmath(self):
        value, slope = self._fused()
        with mpmath.workdps(40):
            exp_a = [mpmath.exp(mpmath.mpf(float(a))) for a in self.GRID]
            sig = np.array([float(ea / (1 + ea)) for ea in exp_a])
            soft = np.array([float(mpmath.log1p(ea)) for ea in exp_a])
        assert self._ulps(slope, sig).max() <= 4.0
        assert self._ulps(value, soft).max() <= 4.0


class TestChunkedInference:
    """encode/decode run 1024 rows at a time; 2500 rows cross two chunk
    boundaries."""

    N = 2500

    @pytest.mark.parametrize("prior_kind", ["tilted", "gaussian"])
    def test_encode_decode_match_per_block_calls(self, prior_kind, tilted_prior):
        prior = tilted_prior if prior_kind == "tilted" else V.StandardGaussian()
        model = V.build_model(rng_stream(31), 12, 10, prior, hidden=(16, 8))
        gen = rng_stream(32)
        x = gen.random((self.N, 12))
        z = 3.0 * gen.standard_normal((self.N, 10))
        blocks = range(0, self.N, 1024)
        mu, log_sigma = V.encode(model, x)
        mu_ref = np.concatenate([V.encode(model, x[i:i + 1024])[0] for i in blocks])
        assert mu.shape == (self.N, 10)
        assert np.allclose(mu, mu_ref, rtol=1e-12, atol=0.0)
        if log_sigma is not None:
            ls_ref = np.concatenate([V.encode(model, x[i:i + 1024])[1] for i in blocks])
            assert np.allclose(log_sigma, ls_ref, rtol=1e-12, atol=0.0)
        xhat = V.decode(model, z)
        xhat_ref = np.concatenate([V.decode(model, z[i:i + 1024]) for i in blocks])
        assert np.allclose(xhat, xhat_ref, rtol=1e-12, atol=0.0)
        # The training-time forward pass takes the whole batch at once;
        # decode clamps it to pixels.
        assert np.allclose(xhat, np.clip(V._mlp_forward(model.decoder, z, "decoder"), 0, 1),
                           rtol=1e-12, atol=0.0)

    def test_non_finite_in_late_chunk_names_the_layer(self, tilted_prior):
        model = V.build_model(rng_stream(33), 12, 10, tilted_prior, hidden=(16, 8))
        x = rng_stream(34).random((self.N, 12))
        x[2300, 3] = np.inf
        with pytest.raises(NumericalError) as err:
            V.encode(model, x)
        assert err.value.context["layer"] == 0
        assert "encoder" in str(err.value)


class TestReparameterize:
    def test_vanishing_sigma_returns_mean(self):
        mu = np.array([1.0, -2.0, 3.0])
        z = V.reparameterize(rng_stream(3), mu, log_sigma=np.full(3, -60.0))
        assert z == pytest.approx(mu, abs=1e-20)

    def test_unit_sigma_norm_matches_chi_mean(self):
        rng = rng_stream(4)
        mu = np.zeros((10**5, 8))
        z = V.reparameterize(rng, mu)
        mean_norm = float(np.linalg.norm(z, axis=1).mean())
        chi_mean = math.sqrt(2.0) * math.exp(math.lgamma(4.5) - math.lgamma(4.0))
        assert mean_norm == pytest.approx(chi_mean, rel=0.01)

    def test_seeded_determinism(self):
        mu = np.ones(5)
        a = V.reparameterize(rng_stream(5), mu)
        b = V.reparameterize(rng_stream(5), mu)
        assert np.array_equal(a, b)


def _elbo_terms(model, seed, x):
    """Batch-mean (recon, kld) of one sample with one reparameterized draw."""
    eps = rng_stream(seed).standard_normal((1, model.d_z))
    recon, kld, _ = V._elbo_forward_backward(model, np.asarray(x)[None, :], eps)
    return recon, kld


class TestElboTerms:
    def test_collapsed_gaussian_has_zero_kld(self):
        model = _const_model(V.StandardGaussian(), 6, 3, np.zeros(6))
        recon, kld = _elbo_terms(model, 6, np.zeros(6))
        assert kld == 0.0

    def test_tilted_at_gamma_pays_committed_rate(self, tilted_prior):
        bias = np.zeros(10)
        bias[0] = tilted_prior.gamma
        model = _const_model(tilted_prior, 6, 10, bias)
        _, kld = _elbo_terms(model, 7, np.zeros(6))
        assert kld == tilted_prior.committed_rate
        assert kld > 0.0

    def test_perfect_autoencoder_total_is_committed_rate(self, tilted_prior):
        x = rng_stream(8).random(6)
        bias = np.zeros(10)
        bias[0] = tilted_prior.gamma
        model = _const_model(tilted_prior, 6, 10, bias, dec_bias=x)
        recon, kld = _elbo_terms(model, 9, x)
        assert recon == 0.0
        assert recon + kld == tilted_prior.committed_rate


class TestGradients:
    def test_quadratic_term_gradient_vs_finite_differences(self):
        gen = rng_stream(10)
        for _ in range(20):
            d = int(gen.integers(2, 12))
            mu = gen.standard_normal(d) * gen.uniform(0.5, 10.0)
            gamma = gen.uniform(0.0, 12.0)
            norm = np.linalg.norm(mu)
            analytic = (norm - gamma) * mu / norm
            fd = np.empty(d)
            for i in range(d):
                h = 1e-5 * max(1.0, abs(mu[i]))
                up, dn = mu.copy(), mu.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (
                    0.5 * (np.linalg.norm(up) - gamma) ** 2
                    - 0.5 * (np.linalg.norm(dn) - gamma) ** 2
                ) / (2 * h)
            assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("prior_kind", ["tilted", "gaussian"])
    def test_full_elbo_gradients_vs_finite_differences(self, prior_kind):
        prior = TiltedPrior.fit(3.0, 3) if prior_kind == "tilted" else V.StandardGaussian()
        rng = rng_stream(11)
        model = V.build_model(rng, 8, 3, prior, hidden=(6,), weight_std=0.3)
        x = rng.random((4, 8))
        eps = rng.standard_normal((4, 3))
        recon, kld, grads = V._elbo_forward_backward(model, x, eps)
        p, g = model.params, grads
        for idx in range(p.size):
            h = 1e-5 * max(1.0, abs(p[idx]))
            orig = p[idx]
            p[idx] = orig + h
            r1, k1, _ = V._elbo_forward_backward(model, x, eps)
            p[idx] = orig - h
            r2, k2, _ = V._elbo_forward_backward(model, x, eps)
            p[idx] = orig
            fd = ((r1 + k1) - (r2 + k2)) / (2 * h)
            scale = max(1e-6, abs(fd), abs(float(g[idx])))
            assert abs(fd - float(g[idx])) / scale < 1e-4


class TestGradStep:
    def test_vanishing_learning_rate_leaves_parameters(self, tilted_prior):
        model = V.build_model(rng_stream(12), 6, 10, tilted_prior, hidden=(4,))
        before = model.params.copy()
        config = V.TrainConfig(epochs=1, learning_rate=1e-300)
        V.grad_step(model, V.AdamState(model), rng_stream(13), np.ones((2, 6)), config)
        assert np.allclose(model.params, before, rtol=0.0, atol=1e-290)

    @pytest.mark.parametrize("grad_clip", [100.0, 1e-3])
    def test_matches_textbook_adam(self, grad_clip):
        # Adam as usually written, with the bias corrections applied to the
        # moments; grad_clip=1e-3 makes every step clip.
        prior = TiltedPrior.fit(3.0, 3)
        model = V.build_model(rng_stream(35), 8, 3, prior, hidden=(6, 5), weight_std=0.3)
        ref = V.VaeModel(model.encoder, model.decoder, model.prior, model.d_x, model.d_z)
        start = model.params.copy()
        config = V.TrainConfig(epochs=1, learning_rate=1e-2, grad_clip=grad_clip)
        batches = rng_stream(36).random((4, 5, 8))
        opt, step_rng, ref_rng = V.AdamState(model), rng_stream(37), rng_stream(37)
        m = np.zeros_like(ref.params)
        v = np.zeros_like(ref.params)
        for t, x in enumerate(batches, start=1):
            V.grad_step(model, opt, step_rng, x, config)
            eps = ref_rng.standard_normal((x.shape[0], 3))
            _, _, g = V._elbo_forward_backward(ref, x, eps)
            g = g * min(1.0, grad_clip / math.sqrt(float(np.sum(g * g))))
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1.0 - 0.9**t)
            v_hat = v / (1.0 - 0.999**t)
            ref.params -= 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert opt.t == len(batches)
        assert np.all(model.params != start)
        assert np.allclose(model.params, ref.params, rtol=1e-12, atol=1e-15)

    def test_empty_batch_rejected(self, tilted_prior):
        model = V.build_model(rng_stream(12), 6, 10, tilted_prior, hidden=(4,))
        config = V.TrainConfig(epochs=1)
        with pytest.raises(DomainError):
            V.grad_step(model, V.AdamState(model), rng_stream(13), np.ones((0, 6)), config)


@pytest.mark.parametrize("bad", [
    {"epochs": 0}, {"batch_size": 0}, {"learning_rate": 0.0}, {"learning_rate": math.nan},
    {"learning_rate": math.inf}, {"grad_clip": math.nan}, {"grad_clip": math.inf},
])
def test_train_config_refuses_non_finite_and_non_positive(bad):
    with pytest.raises(DomainError, match="invalid training config"):
        V.TrainConfig(**{"epochs": 1, **bad})


@pytest.mark.parametrize("bad,name", [
    ({"epochs": 1.5}, "epochs"), ({"batch_size": 2.5}, "batch_size"),
    ({"epochs": math.inf}, "epochs"), ({"batch_size": math.nan}, "batch_size"),
])
def test_train_config_refuses_counts_that_are_not_integers(bad, name):
    with pytest.raises(DomainError, match=f"invalid training config .*: expected an integer {name}"):
        V.TrainConfig(**{"epochs": 1, **bad})


@pytest.mark.parametrize("d_x,d_z,hidden,name", [
    (0, 10, (4,), "d_x"), (6, 2.5, (4,), "d_z"), (6, 10, (0,), "hidden[0]"),
    (6, 10, (4, 1.5), "hidden[1]"), (6, 10, (math.nan,), "hidden[0]"),
])
def test_build_model_refuses_counts_the_cli_refuses(tilted_prior, d_x, d_z, hidden, name):
    with pytest.raises(DomainError, match=re.escape(f"expected an integer {name} >= 1")):
        V.build_model(rng_stream(0), d_x, d_z, tilted_prior, hidden=hidden)


def test_whole_float_counts_are_handed_on_as_ints(tilted_prior):
    model = V.build_model(rng_stream(0), 6.0, 10.0, tilted_prior, hidden=(4.0,))
    config = V.TrainConfig(epochs=2.0, batch_size=8.0)
    assert (model.d_x, model.d_z, model.encoder.weights[0].shape) == (6, 10, (6, 4))
    assert type(model.d_x) is type(model.d_z) is type(config.epochs) is type(config.batch_size) is int


class TestTrain:
    @pytest.mark.parametrize("samples,message", [
        (np.zeros((0, 6)), "dataset is empty"), (np.zeros((5, 7)), "d_x=7 but model expects 6"),
    ], ids=["empty", "d_x"])
    def test_refuses_data_it_cannot_train_on(self, tilted_prior, samples, message):
        model = V.build_model(rng_stream(14), 6, 10, tilted_prior, hidden=(4,))
        with pytest.raises(DomainError, match=message):
            V.train(model, Dataset(samples, "x"), V.TrainConfig(epochs=1), rng_stream(14, 1))

    def test_objective_decreases_on_blobs(self, tilted_prior):
        ds = gen_blobs(rng_stream(14, 101), 200, 8, 8, blob_preset("two", 8, 8))
        model = V.build_model(rng_stream(14), 64, 10, tilted_prior, hidden=(32, 16))
        assert model.z_bar is None
        history = V.train(model, ds, V.TrainConfig(epochs=10, learning_rate=1e-3),
                          rng_stream(14, 1))
        assert sum(history[-1]) < sum(history[0])
        norms = np.linalg.norm(V.encode(model, ds.samples)[0], axis=1)
        assert model.z_bar == float(norms.mean()) > 0.0

    def test_non_finite_loss_names_its_epoch_and_batch(self, tilted_prior):
        # The squared error of a 1e200 decoder output overflows on the first step.
        ds = gen_noise(rng_stream(19, 101), 8, 2, 3)
        model = V.build_model(rng_stream(19), 6, 10, tilted_prior, hidden=(4,))
        model.decoder.biases[-1][:] = 1e200
        with pytest.raises(NumericalError, match=r"^non-finite loss \(") as exc:
            V.train(model, ds, V.TrainConfig(epochs=2, batch_size=4), rng_stream(19, 1))
        context = exc.value.context
        assert (context["epoch"], context["batch_start"], context["recon"]) == (0, 0, math.inf)
        assert math.isfinite(context["kld"])

    def test_gaussian_kld_collapses_on_uninformative_data(self):
        ds = gen_noise(rng_stream(15, 101), 200, 8, 8)
        model = V.build_model(rng_stream(15), 64, 4, V.StandardGaussian(), hidden=(32, 16))
        history = V.train(model, ds, V.TrainConfig(epochs=10, learning_rate=1e-3),
                          rng_stream(15, 1))
        assert history[-1][1] < history[0][1]

    def test_seeded_determinism_is_bitwise(self, tilted_prior):
        ds = gen_blobs(rng_stream(16, 101), 100, 8, 8, blob_preset("two", 8, 8))
        runs = []
        for _ in range(2):
            model = V.build_model(rng_stream(16), 64, 10, tilted_prior, hidden=(16, 8))
            V.train(model, ds, V.TrainConfig(epochs=3, learning_rate=1e-3), rng_stream(16, 1))
            runs.append(model.params.copy())
        assert np.array_equal(*runs)

    def test_zero_tilt_matches_sigma_frozen_gaussian(self, monkeypatch):
        # With tau = 0 the quadratic penalty is ||mu||^2/2 + 0, exactly the
        # Gaussian divergence at sigma = 1; freezing the sigma head makes the
        # two training problems identical on the shared parameters.
        prior0 = TiltedPrior.fit(0.0, 3)
        d_x, d_z = 12, 3
        tilted = V.build_model(rng_stream(17), d_x, d_z, prior0, hidden=(8,))
        gauss = V.build_model(rng_stream(18), d_x, d_z, V.StandardGaussian(), hidden=(8,))
        for src, dst in zip(tilted.encoder.weights[:-1], gauss.encoder.weights[:-1]):
            dst[:] = src
        for src, dst in zip(tilted.encoder.biases[:-1], gauss.encoder.biases[:-1]):
            dst[:] = src
        gauss.encoder.weights[-1][:] = 0.0
        gauss.encoder.weights[-1][:, :d_z] = tilted.encoder.weights[-1]
        gauss.encoder.biases[-1][:] = 0.0
        gauss.encoder.biases[-1][:d_z] = tilted.encoder.biases[-1]
        for src, dst in zip(tilted.decoder.weights, gauss.decoder.weights):
            dst[:] = src
        for src, dst in zip(tilted.decoder.biases, gauss.decoder.biases):
            dst[:] = src

        raw = V._elbo_forward_backward

        def frozen_sigma(model, x, eps):
            out = raw(model, x, eps)
            if not model.is_tilted:
                enc_grads, _ = V._carve(out[2], (model.encoder, model.decoder))
                enc_grads.weights[-1][:, d_z:] = 0.0
                enc_grads.biases[-1][d_z:] = 0.0
            return out

        monkeypatch.setattr(V, "_elbo_forward_backward", frozen_sigma)

        ds = gen_blobs(rng_stream(19, 101), 64, 4, 3, [((1.0, 1.0), 1.0, 1.0)])
        config = V.TrainConfig(epochs=3, batch_size=16, learning_rate=1e-3)
        hist_t = V.train(tilted, ds, config, rng_stream(19, 1))
        hist_g = V.train(gauss, ds, config, rng_stream(19, 1))
        for (rt, kt), (rg, kg) in zip(hist_t, hist_g):
            assert rt == pytest.approx(rg, rel=1e-12)
            assert kt == pytest.approx(kg, rel=1e-12)
        assert np.allclose(
            tilted.encoder.weights[-1], gauss.encoder.weights[-1][:, :d_z],
            rtol=1e-12, atol=1e-15,
        )


def _exact_klds(model, x):
    """The exact KLD at each row's deterministic encoder mean."""
    mu, _ = V.encode(model, x)
    return exact_kld(model.prior, np.linalg.norm(mu, axis=1))


class TestExactElbo:
    """Swapping the training-time quadratic penalty for the exact divergence
    can only tighten the likelihood bound."""

    def test_tangency_and_one_sided_gap(self, tilted_prior):
        ds = gen_blobs(rng_stream(20, 101), 50, 8, 8, blob_preset("two", 8, 8))
        model = V.build_model(rng_stream(20), 64, 10, tilted_prior, hidden=(16, 8))
        V.train(model, ds, V.TrainConfig(epochs=3, learning_rate=1e-3), rng_stream(20, 1))
        klds = _exact_klds(model, ds.samples)
        norms = np.linalg.norm(V.encode(model, ds.samples)[0], axis=1)
        quads = quadratic_kld(tilted_prior, norms)
        assert np.all(klds <= quads + 1e-9)
        assert np.all(klds >= tilted_prior.committed_rate - 1e-12)

    def test_exact_equals_quadratic_at_gamma(self, tilted_prior):
        bias = np.zeros(10)
        bias[0] = tilted_prior.gamma
        model = _const_model(tilted_prior, 4, 10, bias)
        klds = _exact_klds(model, np.zeros((3, 4)))
        assert klds == pytest.approx(tilted_prior.committed_rate, rel=1e-12)

    def test_zero_tilt_exact_equals_quadratic_everywhere(self):
        prior0 = TiltedPrior.fit(0.0, 4)
        model = V.build_model(rng_stream(21), 9, 4, prior0, hidden=(6,))
        ds = gen_noise(rng_stream(21, 101), 20, 3, 3)
        klds = _exact_klds(model, ds.samples)
        norms = np.linalg.norm(V.encode(model, ds.samples)[0], axis=1)
        assert klds == pytest.approx(0.5 * norms**2, rel=1e-10)


@pytest.mark.parametrize("d", [1, 2, 10])
def test_standard_gaussian_holds_the_zero_tilt_fit(d):
    fit, gauss = TiltedPrior.fit(0.0, d), V.StandardGaussian()
    names = ("tau", "gamma", "committed_rate", "log_z_tau")
    assert [getattr(gauss, n) for n in names] == [getattr(fit, n) for n in names]


class TestCheckpoint:
    def test_roundtrip_parameters_and_header(self, tmp_path, tilted_prior):
        model = V.build_model(rng_stream(23), 6, 10, tilted_prior, hidden=(5, 4))
        model.z_bar = 10.2
        path = tmp_path / "model.ckpt"
        V.save_checkpoint(model, path)
        back = V.load_checkpoint(path)
        assert back.z_bar == 10.2
        assert back.d_x == 6 and back.d_z == 10
        assert back.is_tilted
        assert back.prior.tau == tilted_prior.tau
        assert back.prior.gamma == tilted_prior.gamma
        assert back.prior.committed_rate == tilted_prior.committed_rate
        assert back.prior.log_z_tau == tilted_prior.log_z_tau
        assert np.array_equal(model.params, back.params)

    def test_checkpoint_is_one_file(self, tmp_path, tilted_prior):
        # Once a <path>.manifest sidecar repeated the header beside it.
        model = V.build_model(rng_stream(24), 6, 10, tilted_prior, hidden=(4,))
        V.save_checkpoint(model, tmp_path / "model.ckpt")
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_gaussian_roundtrip(self, tmp_path):
        model = V.build_model(rng_stream(25), 6, 3, V.StandardGaussian(), hidden=(4,))
        path = tmp_path / "g.ckpt"
        V.save_checkpoint(model, path)
        back = V.load_checkpoint(path)
        assert back.z_bar is None
        assert not back.is_tilted

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DomainError):
            V.load_checkpoint(path)


class TestStrictCheckpointHeader:
    """Byte-level corruptions of a valid checkpoint: each is a DomainError
    that names the file. Header layout: magic (0-3), version (4-7), d_x
    (8-11), d_z (12-15), prior tag (16), then tau at 17."""

    @pytest.fixture()
    def raw(self, tmp_path, tilted_prior):
        model = V.build_model(rng_stream(26), 8, 10, tilted_prior, hidden=(5,))
        model.z_bar = 10.2
        path = tmp_path / "model.ckpt"
        V.save_checkpoint(model, path)
        return bytearray(path.read_bytes())

    @staticmethod
    def _load(tmp_path, data):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(bytes(data))
        with pytest.raises(DomainError) as err:
            V.load_checkpoint(path)
        assert str(path) in str(err.value)
        return str(err.value)

    def test_d_x_disagreeing_with_encoder(self, tmp_path, raw):
        raw[8:12] = struct.pack("<I", 99)
        assert "encoder" in self._load(tmp_path, raw)

    def test_d_z_disagreeing_with_decoder(self, tmp_path, raw):
        raw[12:16] = struct.pack("<I", 3)
        self._load(tmp_path, raw)

    def test_trailing_bytes(self, tmp_path, raw):
        assert "trailing" in self._load(tmp_path, raw + b"\x00")

    def test_unknown_version(self, tmp_path, raw):
        raw[4:8] = struct.pack("<I", 2)
        assert "unsupported checkpoint version 2" in self._load(tmp_path, raw)

    def test_unknown_prior_tag(self, tmp_path, raw):
        raw[16] = 7
        assert "prior tag" in self._load(tmp_path, raw)

    def test_nan_tau_on_tilted_prior(self, tmp_path, raw):
        raw[17:25] = struct.pack("<d", math.nan)
        assert "tau" in self._load(tmp_path, raw)

    def test_nan_weight(self, tmp_path, raw):
        raw[69:77] = struct.pack("<d", math.nan)  # the encoder's first weight
        assert "not finite" in self._load(tmp_path, raw)

    def test_truncated_tensor(self, tmp_path, raw):
        assert "truncated" in self._load(tmp_path, raw[:-5])

    def test_truncated_header(self, tmp_path, raw):
        assert "truncated" in self._load(tmp_path, raw[:20])
