"""Acceptance suite: ten numbered criteria, one printed pass/fail line each.

Heavy shared artifacts (the full margin sweep and the trained desk-scale
models) are computed once per session. Criterion 2 asserts the sweep margin
in the lower-bound direction (exact minus quadratic >= -1e-9); the surrogate
is in fact tangent from above, so that check reports FAIL while its companion
(the complementary upper-bound property, same grid and tolerance) passes.
See the README's acceptance notes for the mathematical argument.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import kstest, norm

import tiltvae.vae as V
from tiltvae.cli import main as cli_main
from tiltvae.data import blob_preset, gen_blobs, gen_noise
from tiltvae.ood import roc, score_arrays
from tiltvae.sampler import rng_stream, sample_model_latents, sample_tilted_prior_batch
from tiltvae.tilted import TiltedPrior, exact_kld, log_normalizer, quadratic_kld

TABLE_GAMMA = [
    (10.0, 10, 9.53),
    (20.0, 10, 19.77),
    (30.0, 10, 29.85),
    (15.0, 100, 11.20),
    (25.0, 100, 22.93),
    (40.0, 100, 38.72),
]

SWEEP_D = [2, 5, 10, 25, 50, 100, 200]
SWEEP_W = list(range(-20, 26))


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ----------------------------------------------------------------------
# shared heavy artifacts
# ----------------------------------------------------------------------

@pytest.fixture(scope="session")
def sweep_margins():
    """Min and max of exact - quadratic per (d, w) cell, 1000 mu points."""
    mu = np.linspace(0.0, 200.0, 1000)
    cells = []
    for d in SWEEP_D:
        for w in SWEEP_W:
            prior = TiltedPrior.fit(1.2 ** w, d)
            margins = exact_kld(prior, mu) - quadratic_kld(prior, mu)
            cells.append((d, w, float(margins.min()), float(margins.max())))
    return cells


@pytest.fixture(scope="session")
def desk_run():
    """The desk-scale experiment: tilted and Gaussian VAEs on two-mode blobs."""
    h = w = 16
    seed = 7
    prior = TiltedPrior.fit(10.0, 10)
    train_ds = gen_blobs(rng_stream(seed, 101), 2000, h, w, blob_preset("two", h, w))
    eval_in = gen_blobs(rng_stream(seed + 1000, 101), 1000, h, w, blob_preset("two", h, w))
    eval_noise = gen_noise(rng_stream(seed + 2000, 101), 1000, h, w)
    eval_shift = gen_blobs(
        rng_stream(seed + 3000, 101), 1000, h, w, blob_preset("two_shifted", h, w)
    )
    config = V.TrainConfig(epochs=50, batch_size=64, learning_rate=3e-4, grad_clip=100.0)
    t0 = time.perf_counter()
    tilted = V.build_model(rng_stream(seed, 0), h * w, 10, prior)
    tilted_history = V.train(tilted, train_ds, config, rng_stream(seed, 1))
    gauss = V.build_model(rng_stream(seed, 0), h * w, 10, V.StandardGaussian())
    V.train(gauss, train_ds, config, rng_stream(seed, 1))
    runtime = time.perf_counter() - t0
    return {
        "prior": prior,
        "train_ds": train_ds,
        "eval_in": eval_in,
        "eval_noise": eval_noise,
        "eval_shift": eval_shift,
        "tilted": tilted,
        "tilted_history": tilted_history,
        "gauss": gauss,
        "runtime": runtime,
        "seed": seed,
    }


def _scores(model, dataset):
    recon, kld = score_arrays(model, dataset.samples)
    return recon + kld


def _auroc(model, eval_in, eval_out):
    return roc(_scores(model, eval_in), _scores(model, eval_out)).auroc


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def test_criterion_01_gamma_reproduces_reference_table():
    t0 = time.perf_counter()
    worst = 0.0
    for tau, d, expected in TABLE_GAMMA:
        gamma = TiltedPrior.fit(tau, d).gamma
        worst = max(worst, abs(gamma - expected))
    dt = time.perf_counter() - t0
    ok = worst <= 0.05
    assert _report(1, ok, f"six gamma rows within +-0.05 (worst {worst:.4f}, {dt:.1f}s)")


def test_criterion_02_margin_sweep_lower_bound_direction(sweep_margins):
    min_margin = min(c[2] for c in sweep_margins)
    d, w, m, _ = min(sweep_margins, key=lambda c: c[2])
    ok = min_margin >= -1e-9
    detail = (
        f"exact - quadratic >= -1e-9 over {len(sweep_margins)} cells x 1000 points; "
        f"measured min {min_margin:.3e} at (d={d}, w={w})"
    )
    assert _report(2, ok, detail)


def test_criterion_02_companion_surrogate_is_upper_bound(sweep_margins):
    # The mathematically attainable direction on the identical grid: the
    # quadratic surrogate is tangent at gamma and never below the exact KLD.
    max_margin = max(c[3] for c in sweep_margins)
    ok = max_margin <= 1e-9
    assert _report(
        "2-companion", ok,
        f"quadratic >= exact over the same grid (max exact-quadratic {max_margin:.3e})",
    )


def _log_z_oracle(tau, d, n, seed):
    """Importance-sampled E[exp(tau ||z||)] with a radial proposal centered
    on the integrand peak; exact up to Monte Carlo error for any tilt."""
    rng = np.random.default_rng(seed)
    c = d - 1
    mode = 0.5 * (tau + math.sqrt(tau * tau + 4.0 * c)) if c > 0 else max(tau, 1.0)
    sigma = 3.0 / math.sqrt(1.0 + c / (mode * mode)) if c > 0 else 3.0
    log_chi_norm = (1.0 - d / 2.0) * math.log(2.0) - math.lgamma(d / 2.0)
    chunks = []
    per = 10**6
    for _ in range(n // per):
        x = rng.normal(mode, sigma, size=per)
        x = x[x > 0.0]
        log_target = log_chi_norm + (d - 1) * np.log(x) + tau * x - 0.5 * x * x
        log_proposal = -0.5 * ((x - mode) / sigma) ** 2 - math.log(
            sigma * math.sqrt(2.0 * math.pi)
        )
        chunks.append(log_target - log_proposal)
    logw = np.concatenate(chunks)
    peak = logw.max()
    return peak + math.log(np.exp(logw - peak).sum() / n)


def test_criterion_03_normalizer_oracle_agreement():
    def closed_form_1d(tau):
        return tau * tau / 2.0 + math.log(2.0 * 0.5 * (1.0 + math.erf(tau / math.sqrt(2.0))))

    worst_closed = max(
        abs(math.expm1(log_normalizer(tau, 1) - closed_form_1d(tau)))
        for tau in (0.5, 1.0, 2.0, 5.0)
    )
    # the Monte Carlo oracle itself is validated on the 1-d closed form first
    oracle_err = abs(math.expm1(_log_z_oracle(1.0, 1, 10**7, 11) - closed_form_1d(1.0)))
    assert oracle_err < 0.01
    worst_mc = 0.0
    for tau, d in [(1.0, 2), (3.0, 5), (5.0, 10)]:
        rel = abs(math.expm1(_log_z_oracle(tau, d, 10**7, 13) - log_normalizer(tau, d)))
        worst_mc = max(worst_mc, rel)
    ok = worst_closed <= 1e-8 and worst_mc <= 0.02
    assert _report(
        3, ok,
        f"1-d closed form rel err {worst_closed:.2e} (<=1e-8); "
        f"Z oracle rel err {worst_mc:.2e} (<=2%, 1e7 draws)",
    )


def test_criterion_04_kld_matches_monte_carlo():
    rng = np.random.default_rng(2024)
    worst_sigmas = 0.0
    for tau in (0.5, 2.0, 5.0):
        for d in (2, 10, 20):
            prior = TiltedPrior.fit(tau, d)
            for m in (0.0, 3.0, 10.0):
                mu = np.zeros(d)
                mu[0] = m
                z = rng.standard_normal((10**6, d)) + mu
                r = np.linalg.norm(z, axis=1)
                vals = (
                    -0.5 * np.sum((z - mu) ** 2, axis=1)
                    - tau * r + 0.5 * r * r + prior.log_z_tau
                )
                se = vals.std(ddof=1) / math.sqrt(vals.size)
                sigmas = abs(exact_kld(prior, m) - float(vals.mean())) / se
                worst_sigmas = max(worst_sigmas, sigmas)
    ok = worst_sigmas <= 3.0
    assert _report(
        4, ok,
        f"27-cell grid within 3 standard errors (worst {worst_sigmas:.2f} SE, 1e6 draws)",
    )


def test_criterion_05_gradient_checks():
    gen = rng_stream(23)
    worst_term = 0.0
    for _ in range(20):
        d = int(gen.integers(2, 12))
        mu = gen.standard_normal(d) * gen.uniform(0.5, 10.0)
        gamma = gen.uniform(0.0, 12.0)
        norm_mu = np.linalg.norm(mu)
        analytic = (norm_mu - gamma) * mu / norm_mu
        for i in range(d):
            h = 1e-5 * max(1.0, abs(mu[i]))
            up, dn = mu.copy(), mu.copy()
            up[i] += h
            dn[i] -= h
            fd = (
                0.5 * (np.linalg.norm(up) - gamma) ** 2
                - 0.5 * (np.linalg.norm(dn) - gamma) ** 2
            ) / (2.0 * h)
            scale = max(1e-6, abs(fd), abs(analytic[i]))
            worst_term = max(worst_term, abs(fd - analytic[i]) / scale)

    worst_model = 0.0
    for trial in range(20):
        prior = (
            TiltedPrior.fit(float(gen.uniform(0.5, 6.0)), 3)
            if trial % 2 == 0 else V.StandardGaussian()
        )
        model = V.build_model(rng_stream(100 + trial), 8, 3, prior,
                              hidden=(6,), weight_std=0.3)
        x = gen.random((3, 8))
        eps = gen.standard_normal((3, 3))
        _, _, grads = V._elbo_forward_backward(model, x, eps)
        p, g = model.params, grads
        for idx in range(p.size):
            h = 1e-5 * max(1.0, abs(p[idx]))
            orig = p[idx]
            p[idx] = orig + h
            r1, k1, _ = V._elbo_forward_backward(model, x, eps)
            p[idx] = orig - h
            r2, k2, _ = V._elbo_forward_backward(model, x, eps)
            p[idx] = orig
            fd = ((r1 + k1) - (r2 + k2)) / (2.0 * h)
            scale = max(1e-6, abs(fd), abs(float(g[idx])))
            worst_model = max(worst_model, abs(fd - float(g[idx])) / scale)
    ok = worst_term <= 1e-4 and worst_model <= 1e-4
    assert _report(
        5, ok,
        f"divergence-term grad rel err {worst_term:.2e}, "
        f"full-ELBO grad rel err {worst_model:.2e} (<=1e-4, 20 configs each)",
    )


def test_criterion_06_ood_detection_on_desk_data(desk_run):
    tilted = desk_run["tilted"]
    gauss = desk_run["gauss"]
    auc_noise = _auroc(tilted, desk_run["eval_in"], desk_run["eval_noise"])
    auc_shift_tilted = _auroc(tilted, desk_run["eval_in"], desk_run["eval_shift"])
    auc_shift_gauss = _auroc(gauss, desk_run["eval_in"], desk_run["eval_shift"])
    history = desk_run["tilted_history"]
    improved = sum(history[-1]) < sum(history[0])
    ok = (
        auc_noise >= 0.95
        and auc_shift_tilted >= auc_shift_gauss
        and improved
        and desk_run["runtime"] < 900.0
    )
    assert _report(
        6, ok,
        f"tilted AUROC vs noise {auc_noise:.4f} (>=0.95); shifted-blob AUROC "
        f"tilted {auc_shift_tilted:.4f} >= gaussian {auc_shift_gauss:.4f}; "
        f"trained in {desk_run['runtime']:.0f}s",
    )


def test_criterion_07_aggregated_posterior_radial_law(desk_run):
    model = desk_run["tilted"]
    gamma = desk_run["prior"].gamma
    norms = V.encode_norms(model, desk_run["train_ds"])
    radial = norms + rng_stream(desk_run["seed"] + 77, 3).standard_normal(norms.size)
    ks = kstest(radial, lambda v: norm.cdf(v, loc=model.z_bar, scale=1.0)).statistic
    ok = model.z_bar > gamma and ks < 0.05
    assert _report(
        7, ok,
        f"z_bar {model.z_bar:.4f} > gamma {gamma:.4f}; "
        f"KS(encoded radii + unit noise, N(z_bar, 1)) = {ks:.4f} (<0.05)",
    )


def test_criterion_08_sampler_correctness():
    z_bar = 10.15
    latents = sample_model_latents(rng_stream(31), z_bar, 10, 10**5)
    radii = np.linalg.norm(latents, axis=1)
    lo = norm.cdf(0.0, loc=z_bar)
    ks = kstest(
        radii,
        lambda x: np.clip((norm.cdf(x, loc=z_bar) - lo) / (1.0 - lo), 0.0, 1.0),
    ).statistic

    prior0 = TiltedPrior.fit(0.0, 5)
    draws = sample_tilted_prior_batch(rng_stream(32), prior0, 10**5)
    max_mean = float(np.abs(draws.mean(axis=0)).max())
    max_var_err = float(np.abs(draws.var(axis=0) - 1.0).max())
    ok = ks < 0.01 and max_mean < 0.01 and max_var_err < 0.02
    assert _report(
        8, ok,
        f"radial KS {ks:.4f} (<0.01, 1e5 draws); zero-tilt moments: "
        f"|mean| {max_mean:.4f} (<0.01), |var-1| {max_var_err:.4f} (<0.02)",
    )


def test_criterion_09_single_pass_throughput_advantage(desk_run):
    model = desk_run["tilted"]
    x = desk_run["eval_in"].samples
    rng = rng_stream(41)
    score_arrays(model, x)
    score_arrays(model, x[:100], 256, rng)
    singles, avgs = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        score_arrays(model, x)
        singles.append(x.shape[0] / (time.perf_counter() - t0))
        t0 = time.perf_counter()
        score_arrays(model, x[:100], 256, rng)
        avgs.append(100 / (time.perf_counter() - t0))
    ratio = float(np.mean(singles) / np.mean(avgs))
    ok = ratio > 50.0
    assert _report(
        9, ok,
        f"deterministic scoring {np.mean(singles):.0f} img/s vs 256-draw "
        f"{np.mean(avgs):.0f} img/s, ratio {ratio:.0f} (>50)",
    )


def test_criterion_10_cli_replay_determinism(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "prior = tilted\ntau = 10\ndz = 10\nhidden = 16,8\n"
        "data = blobs:n=64,h=8,w=8,preset=two\nepochs = 2\n"
        "learning_rate = 0.001\nseed = 7\n"
    )
    first = tmp_path / "first"
    first.mkdir()
    runs = [
        (["gamma", "--tau", "10", "--dz", "10", "--out", str(first / "gamma.csv")],
         ["gamma.csv"]),
        (["kld-table", "--tau", "15", "--dz", "10", "--points", "50",
          "--mu-max", "30", "--out", str(first / "kld_table.csv")], ["kld_table.csv"]),
        (["sweep", "--d-grid", "2,5", "--w-grid", "0..1", "--points", "50",
          "--mu-max", "20", "--out", str(first / "sweep.csv")], ["sweep.csv"]),
        (["train", "--config", str(cfg), "--checkpoint", str(first / "model.ckpt"),
          "--log", str(first / "log.csv")], ["log.csv", "model.ckpt"]),
        (["score", "--model", str(first / "model.ckpt"),
          "--data", "blobs:n=16,h=8,w=8,preset=two", "--seed", "3",
          "--out", str(first / "scores.csv")], ["scores.csv"]),
        (["score", "--model", str(first / "model.ckpt"),
          "--data", "noise:n=16,h=8,w=8", "--seed", "3",
          "--out", str(first / "noise_scores.csv"),
          "--manifest", str(first / "score2.manifest")], ["noise_scores.csv"]),
        (["roc", "--in-scores", str(first / "scores.csv"),
          "--out-scores", str(first / "noise_scores.csv"),
          "--out", str(first / "roc.csv"), "--summary", str(first / "roc_summary.json")],
         ["roc.csv", "roc_summary.json"]),
        (["sample", "--model", str(first / "model.ckpt"), "--n", "16",
          "--seed", "5", "--out", str(first / "latents.csv"),
          "--decoded", str(first / "samples.csv")], ["latents.csv", "samples.csv"]),
        (["bench", "--model", str(first / "model.ckpt"),
          "--data", "blobs:n=32,h=8,w=8,preset=two", "--draws", "8",
          "--repeat", "1", "--out", str(first / "bench.csv")], []),
    ]
    checked = 0
    for argv, artifacts in runs:
        code = cli_main(argv)
        assert code in (0, 1)
        manifest = argv[argv.index("--manifest") + 1] if "--manifest" in argv else str(
            first / f"{argv[0]}.manifest"
        )
        replay_dir = tmp_path / f"replay_{argv[0]}_{checked}"
        replay_code = cli_main(["replay", manifest, "--out-dir", str(replay_dir)])
        assert replay_code == code
        for name in artifacts:
            assert (replay_dir / name).read_bytes() == (first / name).read_bytes()
            checked += 1
    # bench artifacts carry wall-clock measurements and are exempt from the
    # byte comparison; everything derived is compared above.
    ok = checked >= 9
    assert _report(10, ok, f"all CLI commands replayed byte-identically ({checked} artifacts)")
