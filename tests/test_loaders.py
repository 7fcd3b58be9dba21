"""Loader fuzzing: a valid checkpoint, IDX file or run manifest, truncated,
with bytes flipped or with bytes appended. A checkpoint or IDX file either
loads into a consistent object or is the loader's own error naming the file;
the CLI turns any of them into a documented exit code and one error line,
never a traceback."""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tiltvae.vae as V
from tiltvae.cli import main
from tiltvae.data import IdxFormatError, gen_noise, load_idx, write_idx
from tiltvae.errors import DomainError
from tiltvae.sampler import RngStream
from tiltvae.tilted import TiltedPrior

_FUZZ = settings(max_examples=200, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _mutate(data, raw):
    """One to three truncations, byte flips or appended byte runs of ``raw``."""
    raw = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        kind = data.draw(st.sampled_from(["truncate", "flip", "append"]), label="kind")
        if kind == "truncate":
            del raw[data.draw(st.integers(0, max(len(raw) - 1, 0)), label="keep"):]
        elif kind == "flip" and raw:
            at = data.draw(st.integers(0, len(raw) - 1), label="at")
            raw[at] ^= data.draw(st.integers(1, 255), label="mask")
        else:
            raw += data.draw(st.binary(min_size=1, max_size=24), label="tail")
    return bytes(raw)


def _checkpoint_bytes(tmp_path, prior):
    model = V.build_model(RngStream(31), 6, 3, prior, hidden=(4,))
    path = tmp_path / "valid.ckpt"
    V.save_checkpoint(model, path, z_bar=2.5)
    return path.read_bytes()


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ckpt")
    return [_checkpoint_bytes(tmp, TiltedPrior.fit(3.0, 3)),
            _checkpoint_bytes(tmp, V.StandardGaussian())]


def _with_first_layer(tmp_path, raw, value, columns):
    """A copy of a checkpoint with the given columns of the encoder's first
    weight matrix, (6, 4) row-major after the header, its layer count and
    shape, set to ``value``."""
    raw = bytearray(raw)
    first_weight = 4 + 13 + 40 + 4 + 8
    for row in range(6):
        for col in columns:
            at = first_weight + 8 * (4 * row + col)
            raw[at:at + 8] = struct.pack("<d", value)
    path = tmp_path / "big.ckpt"
    path.write_bytes(bytes(raw))
    return path


def _chains(mlp, n_in, n_out):
    widths = [n_in] + [w.shape[1] for w in mlp.weights]
    return (len(mlp.weights) >= 1
            and [w.shape[0] for w in mlp.weights] == widths[:-1]
            and [b.shape for b in mlp.biases] == [(k,) for k in widths[1:]]
            and widths[-1] == n_out)


class TestCheckpointFuzz:
    @_FUZZ
    @given(data=st.data())
    def test_loads_consistent_or_is_domain_error(self, tmp_path, checkpoints, data):
        raw = _mutate(data, data.draw(st.sampled_from(checkpoints), label="source"))
        path = tmp_path / "mutated.ckpt"
        path.write_bytes(raw)
        try:
            model, _ = V.load_checkpoint(path)
        except DomainError as exc:
            assert str(path) in str(exc)
            return
        enc_out = model.d_z if model.is_tilted else 2 * model.d_z
        assert model.d_x >= 1 and model.d_z >= 1
        assert _chains(model.encoder, model.d_x, enc_out)
        assert _chains(model.decoder, model.d_z, model.d_x)
        assert all(np.isfinite(p).all() for p in model.params)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_score_exits_0_or_1(self, tmp_path, checkpoints, data, capsys):
        raw = _mutate(data, data.draw(st.sampled_from(checkpoints), label="source"))
        path = tmp_path / "mutated.ckpt"
        path.write_bytes(raw)
        try:
            V.load_checkpoint(path)
            loads = True
        except DomainError:
            loads = False
        capsys.readouterr()
        code = main(["score", "--model", str(path), "--data", "noise:n=4,h=2,w=3",
                     "--out", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        if loads:
            assert code in (0, 1)
        else:
            assert code == 1
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_score_on_overflowing_weights_exits_1(self, tmp_path, checkpoints, capsys):
        # Finite weights of 1e308 into the first hidden unit overflow its
        # activation for noise inputs.
        path = _with_first_layer(tmp_path, checkpoints[0], 1e308, columns=(0,))
        V.load_checkpoint(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["score", "--model", str(path), "--data", "noise:n=4,h=2,w=3",
                         "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err
        assert [str(w.message) for w in caught] == []

    def test_score_refuses_infinite_scores_naming_the_model(self, tmp_path, checkpoints, capsys):
        # Weights of 1e200 keep every activation finite, but the latent
        # means' norm overflows, so every divergence term would be inf.
        path = _with_first_layer(tmp_path, checkpoints[0], 1e200, columns=range(4))
        out = tmp_path / "s.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["score", "--model", str(path), "--data", "noise:n=4,h=2,w=3",
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}: ") and "non-finite score" in err
        assert err.count("\n") == 1
        assert [str(w.message) for w in caught] == []
        assert not out.exists()


@pytest.fixture(scope="module")
def idx_bytes(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("idx")
    gray, rgb = tmp / "gray.idx", tmp / "rgb.idx"
    write_idx(gen_noise(RngStream(32), 5, 3, 4), gray)
    write_idx(gen_noise(RngStream(33), 2, 2, 2, c=3), rgb)
    return [gray.read_bytes(), rgb.read_bytes()]


class TestIdxFuzz:
    @_FUZZ
    @given(data=st.data())
    def test_loads_consistent_or_is_idx_error(self, tmp_path, idx_bytes, data):
        raw = _mutate(data, data.draw(st.sampled_from(idx_bytes), label="source"))
        path = tmp_path / "mutated.idx"
        path.write_bytes(raw)
        try:
            ds = load_idx(path)
        except IdxFormatError as exc:
            assert str(path) in str(exc)
            return
        ndim = raw[3]
        dims = struct.unpack(f">{ndim}I", raw[4:4 + 4 * ndim])
        assert len(raw) == 4 + 4 * ndim + int(np.prod(dims))
        assert ds.samples.shape == (dims[0], int(np.prod(dims[1:])))
        assert (ds.height, ds.width, ds.channels) == (dims[1], dims[2], (dims + (1,))[3])
        assert np.array_equal(np.round(ds.samples * 255.0),
                              np.frombuffer(raw, np.uint8, ds.samples.size, 4 + 4 * ndim)
                              .reshape(ds.samples.shape))


@pytest.fixture(scope="module")
def gamma_manifest(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("manifest")
    main(["gamma", "--tau", "3", "--dz", "2", "--out", str(tmp / "g.csv"),
          "--manifest", str(tmp / "g.manifest")])
    return (tmp / "g.manifest").read_bytes()


class TestManifestFuzz:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_replay_exits_with_a_documented_code(self, tmp_path, gamma_manifest, data,
                                                 capsys, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir(exist_ok=True)
        monkeypatch.chdir(cwd)
        path = tmp_path / "mutated.manifest"
        path.write_bytes(_mutate(data, gamma_manifest))
        capsys.readouterr()
        code = main(["replay", str(path), "--out-dir", str(tmp_path / "replay")])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1
        assert not any(cwd.iterdir())  # replay writes only into --out-dir
