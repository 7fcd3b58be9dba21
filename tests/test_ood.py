"""OOD scoring tests: score composition, Mann-Whitney AUROC against
brute-force pair counting, and threshold semantics."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiltvae.vae as V
from tiltvae.data import gen_blobs, blob_preset
from tiltvae.errors import DomainError
from tiltvae.ood import read_scores_csv, roc, score_arrays, write_scores_csv
from tiltvae.sampler import rng_stream
from tiltvae.tilted import TiltedPrior


_SCORES_HEADER = "sample_index,recon_term,kld_term,score,dataset_tag"


@pytest.fixture(scope="module")
def tilted_prior():
    return TiltedPrior.fit(10.0, 10)


def _const_model(prior, d_x, d_z, mu_bias, dec_bias=None):
    model = V.build_model(rng_stream(0), d_x, d_z, prior, hidden=(4,))
    for mlp in (model.encoder, model.decoder):
        for w in mlp.weights:
            w[:] = 0.0
        for b in mlp.biases:
            b[:] = 0.0
    model.encoder.biases[-1][:] = mu_bias
    if dec_bias is not None:
        model.decoder.biases[-1][:] = dec_bias
    return model


def _score_one(model, x, draws=0, rng=None):
    """(recon, kld) of one sample, as a one-row score_arrays call."""
    recon, kld = score_arrays(model, x[None, :], draws, rng)
    return recon[0], kld[0]


class TestScore:
    def test_perfect_reconstruction_at_gamma_scores_zero(self, tilted_prior):
        x = rng_stream(1).random(6)
        bias = np.zeros(10)
        bias[0] = tilted_prior.gamma
        model = _const_model(tilted_prior, 6, 10, bias, dec_bias=x)
        recon, kld = _score_one(model, x)
        assert recon == 0.0
        assert kld == 0.0
        assert recon + kld == 0.0

    def test_quadratic_term_only(self, tilted_prior):
        x = rng_stream(2).random(6)
        bias = np.zeros(10)
        bias[0] = tilted_prior.gamma + 2.0
        model = _const_model(tilted_prior, 6, 10, bias, dec_bias=x)
        assert sum(_score_one(model, x)) == pytest.approx(2.0, rel=1e-12)

    def test_gaussian_model_uses_its_closed_form(self):
        bias = np.concatenate([np.full(3, 2.0), np.zeros(3)])  # mu=2, sigma=1
        x = np.zeros(6)
        model = _const_model(V.StandardGaussian(), 6, 3, bias, dec_bias=x)
        _, kld = _score_one(model, x)
        assert kld == pytest.approx(0.5 * 3 * 4.0, rel=1e-12)

    def test_score_is_deterministic(self, tilted_prior):
        model = V.build_model(rng_stream(3), 6, 10, tilted_prior, hidden=(4,))
        x = rng_stream(4).random(6)
        assert _score_one(model, x) == _score_one(model, x)

    @pytest.mark.parametrize("x", [np.zeros(6), np.zeros((2, 7)), np.zeros((1, 2, 6))])
    def test_input_must_be_an_n_by_d_x_batch(self, tilted_prior, x):
        model = V.build_model(rng_stream(3), 6, 10, tilted_prior, hidden=(4,))
        with pytest.raises(DomainError, match=re.escape("expected (n, 6)")):
            score_arrays(model, x)


class TestScoreBatchAveraged:
    def test_kld_term_matches_deterministic_score(self, tilted_prior):
        model = V.build_model(rng_stream(5), 6, 10, tilted_prior, hidden=(4,))
        x = rng_stream(6).random(6)
        _, det = _score_one(model, x)
        _, avg = _score_one(model, x, draws=4, rng=rng_stream(7))
        assert avg == det

    def test_draws_must_not_be_negative(self, tilted_prior):
        model = V.build_model(rng_stream(5), 6, 10, tilted_prior, hidden=(4,))
        with pytest.raises(DomainError):
            score_arrays(model, np.zeros((1, 6)), draws=-1, rng=rng_stream(7))

    def test_draws_need_an_rng(self, tilted_prior):
        model = V.build_model(rng_stream(5), 6, 10, tilted_prior, hidden=(4,))
        with pytest.raises(DomainError):
            score_arrays(model, np.zeros((1, 6)), draws=2)

    def test_monte_carlo_error_shrinks_with_draws(self, tilted_prior):
        model = V.build_model(rng_stream(8), 6, 10, tilted_prior, hidden=(8,))
        x = rng_stream(9).random(6)
        stds = {}
        for draws in (1, 16, 256):
            vals = [
                _score_one(model, x, draws, rng_stream(100 + rep, draws))[0]
                for rep in range(30)
            ]
            stds[draws] = np.std(vals, ddof=1)
        # 1/sqrt(draws) scaling, with generous slack for 30 repeats
        assert stds[1] / stds[16] > 2.0
        assert stds[16] / stds[256] > 2.0

    def test_seeded_determinism(self, tilted_prior):
        model = V.build_model(rng_stream(10), 6, 10, tilted_prior, hidden=(4,))
        x = rng_stream(11).random(6)
        a = _score_one(model, x, draws=8, rng=rng_stream(12))
        b = _score_one(model, x, draws=8, rng=rng_stream(12))
        assert a == b

    @pytest.mark.parametrize("prior_kind", ["tilted", "gaussian"])
    def test_draw_order_across_chunk_boundaries(self, prior_kind, tilted_prior):
        # 2500 rows are three 1024-row chunks: each chunk is encoded, then
        # gets one (chunk, d_z) normal block per draw, in that order.
        prior = tilted_prior if prior_kind == "tilted" else V.StandardGaussian()
        model = V.build_model(rng_stream(17), 12, 10, prior, hidden=(16, 8))
        x = rng_stream(18).random((2500, 12))
        draws = 3
        recon, kld = score_arrays(model, x, draws, rng_stream(19, 11))
        gen = rng_stream(19, 11)
        recon_ref = []
        for i in range(0, x.shape[0], 1024):
            xc = x[i:i + 1024]
            mu, log_sigma = V.encode(model, xc)
            sigma = 1.0 if log_sigma is None else np.exp(log_sigma)
            total = np.zeros(xc.shape[0])
            for _ in range(draws):
                z = mu + gen.standard_normal(mu.shape) * sigma
                total += np.linalg.norm(np.clip(V.decode(model, z), 0.0, 1.0) - xc, axis=1)
            recon_ref.append(total / draws)
        assert np.array_equal(recon, np.concatenate(recon_ref))
        assert np.array_equal(kld, score_arrays(model, x)[1])


def _brute_force_auroc(in_s, out_s):
    wins = ties = 0
    for o in out_s:
        for i in in_s:
            wins += o > i
            ties += o == i
    return (wins + 0.5 * ties) / (len(in_s) * len(out_s))


class TestRoc:
    def test_perfect_separation(self):
        assert roc([0.0, 1.0], [2.0, 3.0]).auroc == 1.0

    def test_indistinguishable(self):
        assert roc([5.0, 5.0, 5.0], [5.0, 5.0, 5.0]).auroc == 0.5

    def test_three_quarters(self):
        assert roc([1.0, 3.0], [2.0, 4.0]).auroc == 0.75

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            roc([], [1.0])

    def test_curve_endpoints_and_monotonicity(self):
        gen = rng_stream(13)
        curve = roc(gen.random(50), gen.random(60) + 0.2)
        assert tuple(curve.points[0]) == (0.0, 0.0)
        assert tuple(curve.points[-1]) == (1.0, 1.0)
        assert np.all(np.diff(curve.points[:, 0]) >= 0.0)
        assert np.all(np.diff(curve.points[:, 1]) >= 0.0)

    def test_trapezoid_equals_mann_whitney(self):
        gen = rng_stream(14)
        in_s = gen.integers(0, 20, size=67) / 4.0  # plenty of ties
        out_s = gen.integers(3, 25, size=41) / 4.0
        curve = roc(in_s, out_s)
        area = float(np.trapezoid(curve.points[:, 1], curve.points[:, 0]))
        assert abs(area - curve.auroc) < 1e-12
        assert curve.auroc == pytest.approx(_brute_force_auroc(in_s, out_s), abs=1e-12)

    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=30),
        st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=30),
    )
    @settings(max_examples=100)
    def test_increasing_transform_invariance(self, in_s, out_s):
        base = roc(in_s, out_s).auroc
        assert roc([2.0 * s + 1.0 for s in in_s], [2.0 * s + 1.0 for s in out_s]).auroc == base
        assert roc(np.exp(np.array(in_s) / 10.0), np.exp(np.array(out_s) / 10.0)).auroc == (
            pytest.approx(base, abs=1e-12)
        )

    @given(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=40),
        st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=40),
    )
    @settings(max_examples=200)
    def test_points_equal_threshold_definition(self, in_s, out_s):
        # Tied integer scores: every threshold has a score equal to it.
        in_s, out_s = np.array(in_s, dtype=np.float64), np.array(out_s, dtype=np.float64)
        curve = roc(in_s, out_s)
        expected = [[(in_s > t).mean(), (out_s > t).mean()] for t in curve.thresholds]
        assert np.array_equal(curve.points, expected)

    @given(
        st.one_of(
            st.tuples(st.lists(st.integers(-8, 8), min_size=1, max_size=300),
                      st.lists(st.integers(-8, 8), min_size=1, max_size=300)),
            st.tuples(st.lists(st.sampled_from([-1.5, 0.0, 1e-300, 0.1, 0.3, 2.5, np.inf]),
                               min_size=1, max_size=300),
                      st.lists(st.floats(-3.0, 3.0) | st.sampled_from([0.1, 0.3, 2.5]),
                               min_size=1, max_size=300)),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_auroc_equals_rank_sum_bitwise(self, scores):
        # The rank-sum Mann-Whitney formula, with scipy as a test-only oracle.
        from scipy.stats import rankdata

        in_s, out_s = (np.array(v, dtype=np.float64) for v in scores)
        ranks = rankdata(np.concatenate([in_s, out_s]))
        u = ranks[in_s.size:].sum() - out_s.size * (out_s.size + 1) / 2.0
        assert roc(in_s, out_s).auroc == float(u / (in_s.size * out_s.size))

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            roc([1.0, np.nan], [2.0])
        with pytest.raises(DomainError):
            roc([1.0], [np.nan])

    def test_score_at_the_threshold_is_not_flagged(self):
        # The rule flags score > threshold: a score equal to it stays in, one
        # 1e-12 above it is out.
        curve = roc([5.0], [5.0 + 1e-12])
        at = int(np.flatnonzero(curve.thresholds == 5.0)[0])
        assert tuple(curve.points[at]) == (0.0, 1.0)

    def test_permutation_invariance(self):
        gen = rng_stream(15)
        in_s, out_s = gen.random(31), gen.random(17)
        base = roc(in_s, out_s).auroc
        assert roc(in_s[::-1], gen.permutation(out_s)).auroc == base


class TestCsv:
    def test_roundtrip(self, tmp_path, tilted_prior):
        ds = gen_blobs(rng_stream(16, 101), 10, 8, 8, blob_preset("two", 8, 8))
        model = V.build_model(rng_stream(16), 64, 10, tilted_prior, hidden=(8,))
        recon, kld = score_arrays(model, ds.samples)
        path = tmp_path / "scores.csv"
        write_scores_csv(path, recon, kld, ds.tag)
        back = read_scores_csv(path)
        assert np.array_equal(back, recon + kld)
        header = path.read_text().splitlines()[0]
        assert header == "sample_index,recon_term,kld_term,score,dataset_tag"

    def test_read_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DomainError):
            read_scores_csv(path)

    def test_read_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("sample_index,recon_term,kld_term,score,dataset_tag\n")
        with pytest.raises(DomainError):
            read_scores_csv(path)

    @pytest.mark.parametrize("row,where", [("0,0.5,0.25", ":3: "), ("0,0.5,0.25,high,in", ":3: "),
                                           ("0,0.5,0.25,nan,in", ": data row 2 "),
                                           ("0,0.5,0.25,-inf,in", ": data row 2 ")])
    def test_bad_row_names_file_and_line(self, tmp_path, row, where):
        path = tmp_path / "bad.csv"
        path.write_text(f"{_SCORES_HEADER}\n1,0.5,0.25,0.75,in\n{row}\n")
        with pytest.raises(DomainError, match=re.escape(f"{path}{where}")):
            read_scores_csv(path)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mangled_csv_loads_finite_or_is_domain_error(self, tmp_path_factory, data):
        scores = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    max_size=5))
        lines = [_SCORES_HEADER] + [f"{i},0.5,0.25,{v!r},in" for i, v in enumerate(scores)]
        kind = data.draw(st.sampled_from(["truncated", "short_row", "non_numeric", "empty"]))
        if kind in ("short_row", "non_numeric") and scores:
            i = data.draw(st.integers(1, len(scores)))
            fields = lines[i].split(",")
            if kind == "short_row":
                fields = fields[:data.draw(st.integers(1, 3))]
            else:
                fields[3] = data.draw(st.text(st.characters(codec="utf-8")))
            lines[i] = ",".join(fields)
        text = "\n".join(lines) + "\n"
        if kind == "truncated":
            text = text[:data.draw(st.integers(0, len(text)))]
        elif kind == "empty":
            text = ""
        path = tmp_path_factory.getbasetemp() / "mangled.csv"
        path.write_text(text, encoding="utf-8")
        try:
            back = read_scores_csv(path)
        except DomainError as err:
            assert str(path) in str(err)
        else:
            assert kind != "short_row" or not scores
            assert back.dtype == np.float64 and back.size >= 1
            assert np.isfinite(back).all()


class TestRocCurveCsv:
    def test_csv_schema(self, tmp_path):
        curve = roc([1.0, 2.0], [3.0])
        path = tmp_path / "roc.csv"
        curve.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert lines[1].startswith("inf,0.0,0.0")
        assert lines[-1].startswith("-inf,1.0,1.0")

    def test_summary_json(self):
        curve = roc([1.0], [2.0])
        assert curve.summary_json(1, 1) == '{"auroc": 1.0, "n_in": 1, "n_out": 1}'
