"""Loader fuzzing: a valid checkpoint, IDX file or run manifest, truncated,
with bytes flipped or with bytes appended, and random `key = value` text for
options, training configs and data specs. A checkpoint or IDX file either
loads into a consistent object or is the loader's own error naming the file,
and a setting either parses or is a DomainError naming its key or source;
the CLI turns any of them into a documented exit code and one error line,
never a traceback."""

import struct
import warnings
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import tiltvae.vae as V
from tiltvae._fields import VAL
from tiltvae.cli import COMMANDS, _flag, main
from tiltvae.data import IdxFormatError, load_idx, parse_spec
from tiltvae.errors import DomainError
from tiltvae.sampler import rng_stream
from tiltvae.tilted import TiltedPrior

from idx_files import write_idx

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
    model = V.build_model(rng_stream(31), 6, 3, prior, hidden=(4,))
    model.z_bar = 2.5
    path = tmp_path / "valid.ckpt"
    V.save_checkpoint(model, path)
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


def _with_z_bar(raw, z_bar):
    """A copy of a checkpoint whose header stores ``z_bar``, the last of its
    five doubles."""
    at = 4 + 13 + 32
    return raw[:at] + struct.pack("<d", z_bar) + raw[at + 8:]


def _with_header(raw, **values):
    """A copy of a checkpoint whose five header doubles (tau, gamma,
    committed_rate, log_z_tau, z_bar) take the given values."""
    at = 4 + 13
    header = dict(zip(("tau", "gamma", "committed_rate", "log_z_tau", "z_bar"),
                      struct.unpack("<5d", raw[at:at + 40])), **values)
    return raw[:at] + struct.pack("<5d", *header.values()) + raw[at + 40:]


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
            model = V.load_checkpoint(path)
        except DomainError as exc:
            assert str(path) in str(exc)
            return
        assert model.z_bar is None or 0.0 < model.z_bar < float("inf")
        enc_out = model.d_z if model.is_tilted else 2 * model.d_z
        assert model.d_x >= 1 and model.d_z >= 1
        assert all(w.shape[1] >= 1 for w in model.encoder.weights + model.decoder.weights)
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

    @pytest.mark.parametrize("z_bar", [float("inf"), float("-inf"), 0.0, -2.5])
    def test_invalid_z_bar_is_domain_error(self, tmp_path, checkpoints, capsys, z_bar):
        # NaN means "absent"; any other z_bar must be a finite positive radius.
        path = tmp_path / "z_bar.ckpt"
        path.write_bytes(_with_z_bar(checkpoints[0], z_bar))
        with pytest.raises(DomainError, match="z_bar") as err:
            V.load_checkpoint(path)
        assert str(path) in str(err.value)
        code = main(["sample", "--model", str(path), "--n", "3",
                     "--out", str(tmp_path / "l.csv"), "--decoded", str(tmp_path / "d.csv")])
        stderr = capsys.readouterr().err
        assert code == 1
        assert stderr.startswith(f"error: {path}: ") and stderr.count("\n") == 1

    @pytest.mark.parametrize("header,field", [
        ({"gamma": -5.0, "committed_rate": -3.0}, "gamma"),
        ({"committed_rate": 0.5}, "committed_rate"),
        ({"log_z_tau": 1.0}, "log_z_tau"),
        ({"tau": 4.0}, "gamma"),
        ({"tau": 1e200}, "tau"),
        ({"tau": float("nan")}, "tau"),
    ])
    def test_prior_header_must_match_the_refit(self, tmp_path, checkpoints, capsys,
                                               header, field):
        path = tmp_path / "header.ckpt"
        path.write_bytes(_with_header(checkpoints[0], **header))
        with pytest.raises(DomainError, match=f"tilted-prior header {field} = ") as err:
            V.load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ")
        for argv in (["score", "--model", str(path), "--data", "noise:n=4,h=2,w=3",
                      "--out", str(tmp_path / "s.csv")],
                     ["sample", "--model", str(path), "--sampler", "prior", "--n", "3",
                      "--out", str(tmp_path / "l.csv"), "--decoded", str(tmp_path / "d.csv")]):
            assert main(argv) == 1
            stderr = capsys.readouterr().err
            assert stderr.startswith(f"error: {path}: ") and stderr.count("\n") == 1

    @pytest.mark.parametrize("header,field", [
        ({"tau": 5.0}, "tau"),
        ({"gamma": 1.0}, "gamma"),
        ({"committed_rate": 0.5}, "committed_rate"),
        ({"log_z_tau": 2.0}, "log_z_tau"),
        ({"tau": float("nan")}, "tau"),
    ])
    def test_gaussian_header_must_hold_zeros(self, tmp_path, checkpoints, capsys, header,
                                             field):
        # Only tilted headers were checked once: these loaded as the standard
        # Gaussian, and score exited 0.
        path = tmp_path / "header.ckpt"
        path.write_bytes(_with_header(checkpoints[1], **header))
        with pytest.raises(DomainError, match=f"gaussian-prior header {field} = ") as err:
            V.load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ")
        for argv in (["score", "--model", str(path), "--data", "noise:n=4,h=2,w=3",
                      "--out", str(tmp_path / "s.csv")],
                     ["sample", "--model", str(path), "--n", "3",
                      "--out", str(tmp_path / "l.csv"), "--decoded", str(tmp_path / "d.csv")]):
            assert main(argv) == 1
            stderr = capsys.readouterr().err
            assert stderr.startswith(f"error: {path}: gaussian-prior header {field} = ")
            assert stderr.count("\n") == 1
        assert not any(p.suffix == ".csv" for p in tmp_path.iterdir())

    @pytest.mark.parametrize("d_x,d_z,hidden,refusal", [
        (0, 3, (4,), "d_x is 0"),
        (6, 0, (4,), "d_z is 0"),
        (6, 3, (0,), "encoder hidden layer 1 has width 0"),
        (6, 3, (4, 0), "encoder hidden layer 2 has width 0"),
    ])
    def test_zero_dimension_is_domain_error(self, tmp_path, capsys, d_x, d_z, hidden, refusal):
        # train never writes these, and build_model refuses them; loaded,
        # they scored and sampled with exit 0.
        path = tmp_path / "zero.ckpt"
        gen = rng_stream(31)
        model = V.VaeModel(V.MlpParams.init(gen, (d_x, *hidden, 2 * d_z)),
                           V.MlpParams.init(gen, (d_z, *reversed(hidden), d_x)),
                           V.StandardGaussian(), d_x=d_x, d_z=d_z)
        model.z_bar = 2.5
        V.save_checkpoint(model, path)
        with pytest.raises(DomainError) as err:
            V.load_checkpoint(path)
        assert str(err.value) == f"{path}: {refusal}"
        for argv in (["score", "--model", str(path), "--data", "noise:n=4,h=2,w=3",
                      "--out", str(tmp_path / "s.csv")],
                     ["sample", "--model", str(path), "--n", "3",
                      "--out", str(tmp_path / "l.csv"), "--decoded", str(tmp_path / "d.csv")]):
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {path}: {refusal}\n"

    def test_prior_is_the_refit(self, tmp_path, checkpoints):
        # A header within 1e-9 of the refit loads, carrying the refit values.
        fit = TiltedPrior.fit(3.0, 3)
        path = tmp_path / "close.ckpt"
        path.write_bytes(_with_header(checkpoints[0], gamma=fit.gamma * (1 + 1e-12)))
        assert V.load_checkpoint(path).prior == fit

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
    rng = np.random.default_rng(32)
    write_idx(gray, rng.integers(0, 256, size=(5, 3, 4), dtype=np.uint8))
    write_idx(rgb, rng.integers(0, 256, size=(2, 2, 2, 3), dtype=np.uint8))
    return [gray.read_bytes(), rgb.read_bytes()]


class TestIdxFuzz:
    @_FUZZ
    @given(data=st.data())
    def test_loads_consistent_or_is_idx_error(self, tmp_path, idx_bytes, data):
        raw = _mutate(data, data.draw(st.sampled_from(idx_bytes), label="source"))
        path = tmp_path / "mutated.idx"
        path.write_bytes(raw)
        try:
            images = load_idx(path)
        except IdxFormatError as exc:
            assert str(path) in str(exc)
            return
        ndim = raw[3]
        dims = struct.unpack(f">{ndim}I", raw[4:4 + 4 * ndim])
        assert len(raw) == 4 + 4 * ndim + int(np.prod(dims)) and 0 not in dims
        assert images.dtype == np.uint8
        assert images.shape == (dims if ndim == 4 else dims + (1,))
        assert images.tobytes() == raw[4 + 4 * ndim:]


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


# Text for `key = value` fields: numbers at the edges of each field's range,
# words, lists, and short free text without digits, so no drawn size is large.
_TOKENS = ["0", "1", "2", "3", "-1", "1e9", "0.5", "1e-3", "nan", "inf", "-inf", "x",
           "tilted", "gaussian", "prior", "posterior", "two", "8,4", "0,4", "2..3", "1x1x1x1"]
_TEXT = st.one_of(st.sampled_from(_TOKENS), st.text(alphabet="abx.,;=:+- ", min_size=1, max_size=6))
_FIELD_FUZZ = settings(max_examples=150, deadline=timedelta(seconds=5),
                       suppress_health_check=[HealthCheck.function_scoped_fixture])


def _spec(kind, items):
    return f"{kind}:" + ",".join(f"{k}={v}" for k, v in items)


_SPECS = st.builds(
    _spec, st.sampled_from(["noise", "constant", "blobs", "idx", "mnist"]),
    st.lists(st.tuples(st.sampled_from(["n", "h", "w", "c", "noise", "preset", "modes", "path",
                                        "gray", "max", "zoom"]), _TEXT), max_size=6))


class TestFieldFuzz:
    """Option strings, replayed values, training configs and data specs either
    parse or are one DomainError naming the key or the source."""

    @_FIELD_FUZZ
    @given(name=st.sampled_from(sorted(COMMANDS)), data=st.data())
    def test_option_strings_parse_or_name_the_flag(self, name, data):
        command = COMMANDS[name]
        keys = data.draw(st.sets(st.sampled_from([f.key for f in command.fields])), label="keys")
        strings = {k: data.draw(_TEXT, label=k) for k in sorted(keys)}
        place = lambda kind, path: path  # noqa: E731
        try:
            config = command.config(strings, _flag, place)
        except DomainError as exc:
            # "--flag: key = 'raw': reason", "--flag: missing key 'key'", or
            # sample's "--flag: not used with ..."
            assert any(str(exc).startswith((f"{_flag(f.key)}: {f.key} = ",
                                            f"{_flag(f.key)}: missing key {f.key!r}",
                                            f"{_flag(f.key)}: not used with "))
                       for f in command.fields), str(exc)
            return
        # What the manifest records parses back to the same record; replay
        # reads an empty value as None where that is the default.
        recorded = command.format_config(config)
        defaults = {f.key: f.default for f in command.fields}
        again = command.config({k: v for k, v in recorded.items()
                                if v != "" or defaults[k] is not None}, _flag, place)
        assert command.format_config(again) == recorded

    @_FIELD_FUZZ
    @given(spec=_SPECS)
    def test_data_spec_loads_or_names_the_spec(self, tmp_path, monkeypatch, spec):
        monkeypatch.chdir(tmp_path)  # no idx path names an existing file
        try:
            ds = parse_spec(spec, rng_stream(0, 101))
        except DomainError as exc:
            assert str(exc).startswith(f"data spec {spec!r}: ")
            return
        except OSError:
            assert spec.startswith("idx:")
            return
        assert ds.n >= 1 and ds.d_x >= 1
        assert np.all((ds.samples >= 0.0) & (ds.samples <= 1.0))

    @settings(max_examples=60, deadline=timedelta(seconds=5),
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_train_config_and_options_exit_with_one_line(self, tmp_path, data, capsys):
        values = {"prior": "tilted", "tau": "2", "dz": "2", "hidden": "4",
                  "data": "noise:n=4,h=2,w=2", "epochs": "1", "seed": "1"}
        keys = [f.key for f in COMMANDS["train"].fields if f.kind == VAL]
        in_file = data.draw(st.dictionaries(st.sampled_from(keys + ["zoom", "log"]),
                                            st.one_of(_TEXT, _SPECS), max_size=3), label="file")
        options = data.draw(st.dictionaries(st.sampled_from(keys), _TEXT, max_size=2),
                            label="options")
        values.update(in_file)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        argv = ["train", "--config", str(cfg), "--checkpoint", str(tmp_path / "m.ckpt"),
                "--log", str(tmp_path / "log.csv")]
        for k, v in options.items():
            argv.append(f"{_flag(k)}={v}")
        capsys.readouterr()
        code = main(argv)
        event(f"exit {code}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1
        if code == 1:
            sources = (f"{cfg}:", *(f"error: {_flag(k)}: " for k in options),
                       "error: data spec ", "non-finite")
            assert any(s in err for s in sources), err
