"""CLI tests: command contracts, exit codes, manifests, and replay."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tiltvae.cli
import tiltvae.tilted
from tiltvae._fields import REQUIRED
from tiltvae.cli import _TRAIN_FIELDS, COMMANDS, build_parser, main


def _run_python(args, cwd, timeout=120, stdout=subprocess.PIPE):
    """A fresh interpreter that imports this checkout's tiltvae."""
    src = os.path.dirname(os.path.dirname(tiltvae.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


@pytest.fixture()
def train_cfg(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "# tiny run\n"
        "prior = tilted\n"
        "tau = 10\n"
        "dz = 10\n"
        "hidden = 16,8\n"
        "data = blobs:n=64,h=8,w=8,preset=two\n"
        "epochs = 2\n"
        "learning_rate = 0.001\n"
        "seed = 7\n"
    )
    return cfg


class TestGamma:
    def test_reference_row(self, tmp_path, capsys):
        out = tmp_path / "gamma.csv"
        assert main(["gamma", "--tau", "10", "--dz", "10", "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["tau", "d_z", "gamma", "committed_rate", "log_z_tau"]
        assert float(rows[0][2]) == pytest.approx(9.53, abs=0.05)
        assert "gamma = " in capsys.readouterr().out

    def test_zero_tilt(self, tmp_path):
        out = tmp_path / "gamma.csv"
        assert main(["gamma", "--tau", "0", "--dz", "10", "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert float(rows[0][2]) == 0.0
        assert float(rows[0][3]) == 0.0

    def test_non_convergence_exit_code(self, tmp_path, monkeypatch):
        # A slope kernel with no root on [0, tau] makes the solver fail.
        monkeypatch.setattr(tiltvae.tilted, "_norm_slope", lambda d_z, m: 1.0)
        code = main(["gamma", "--tau", "10", "--dz", "10", "--out", str(tmp_path / "g.csv")])
        assert code == 2

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_non_finite_tau_is_domain_error(self, tmp_path, tau):
        assert main(["gamma", "--tau", tau, "--dz", "10",
                     "--out", str(tmp_path / "g.csv")]) == 1

    def test_overflowing_probe_is_only_a_convergence_error(self, tmp_path):
        # Near the largest accepted tilt the fit must fail as its own
        # ConvergenceError, with no numpy warning on stderr.
        proc = _run_python(["-m", "tiltvae.cli", "gamma", "--tau", "1.8e154", "--dz", "2",
                            "--out", "g.csv"], cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: gamma solver did not converge")
        assert proc.stderr.count("\n") == 1

    def test_old_manifest_with_descent_options_replays(self, tmp_path):
        # Manifests written when gamma still took --learning-rate, --steps and
        # --fd-step carry those keys; replay ignores them.
        manifest = tmp_path / "gamma.manifest"
        manifest.write_text(
            "command = gamma\nversion = 0.1.0\nseed = \nduration_s = 9.0\n"
            "config.dz = 10\nconfig.fd_step = 0.001\nconfig.learning_rate = 0.1\n"
            f"config.out = {tmp_path / 'gamma.csv'}\nconfig.steps = 10000\n"
            "config.tau = 10.0\n"
            f"output.table = {tmp_path / 'gamma.csv'}\n"
        )
        out_dir = tmp_path / "replay"
        assert main(["replay", str(manifest), "--out-dir", str(out_dir)]) == 0
        _, rows = _read_csv(out_dir / "gamma.csv")
        assert float(rows[0][2]) == pytest.approx(9.53, abs=0.05)
        assert "config.steps" not in (out_dir / "gamma.manifest").read_text()


class TestKldTable:
    def test_surrogate_dominates_exact(self, tmp_path):
        out = tmp_path / "kld.csv"
        assert main(["kld-table", "--tau", "15", "--dz", "10",
                     "--mu-max", "30", "--points", "120", "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert len(rows) == 120
        for _, exact, quad in rows:
            assert float(quad) >= float(exact) - 1e-9

    def test_zero_tilt_is_half_square(self, tmp_path):
        out = tmp_path / "kld.csv"
        assert main(["kld-table", "--tau", "0", "--dz", "5",
                     "--mu-max", "4", "--points", "9", "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        for m, exact, _ in rows:
            assert float(exact) == pytest.approx(0.5 * float(m) ** 2, rel=1e-12)

    def test_degenerate_grid_is_usage_error(self, tmp_path):
        assert main(["kld-table", "--tau", "1", "--dz", "2", "--points", "2",
                     "--mu-max", "0", "--out", str(tmp_path / "k.csv")]) == 1

    @pytest.mark.parametrize("mu_max", ["inf", "nan"])
    def test_non_finite_mu_max_is_usage_error_and_writes_nothing(self, tmp_path, mu_max):
        out = tmp_path / "k.csv"
        assert main(["kld-table", "--tau", "1", "--dz", "2", "--points", "5",
                     "--mu-max", mu_max, "--out", str(out)]) == 1
        assert not out.exists()


class TestSweep:
    def test_report_and_exit_code(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--d-grid", "2,5", "--w-grid", "0..1",
                     "--points", "50", "--mu-max", "20", "--out", str(out)])
        header, rows = _read_csv(out)
        assert header == ["d_z", "w", "tau", "min_margin", "argmin_mu", "status"]
        assert len(rows) == 4
        # tangent-from-above surrogate: off-tangent margins are negative, so
        # the lower-bound violation flag trips and the exit code signals it
        assert code == 1
        assert all(r[5] == "violation" for r in rows)

    @pytest.mark.parametrize("mu_max", ["inf", "nan", "-1", "1e200"])
    def test_bad_mu_max_is_usage_error_and_writes_nothing(self, tmp_path, mu_max):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--d-grid", "2", "--w-grid", "0", "--points", "10",
                     f"--mu-max={mu_max}", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("w", [3000, 4000])
    def test_tilt_out_of_range_is_an_error_cell(self, tmp_path, w):
        # 1.2^3000 exceeds the largest tilt and 1.2^4000 overflows a double
        # (recorded as inf); each is its own error cell and exit 1, not a
        # traceback, and w = 0 in the same column still fits.
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--d-grid", "2", "--w-grid", f"0,{w}", "--points", "10",
                     "--out", str(out)]) == 1
        with open(out, newline="") as fh:
            fitted, row = csv.DictReader(fh)
        assert fitted["status"] == "violation"
        assert float(row["tau"]) == (1.2 ** w if w == 3000 else float("inf"))
        assert row["status"].startswith("error: tau must be non-negative")


class TestTrain:
    def test_end_to_end(self, tmp_path, train_cfg, capsys):
        ckpt = tmp_path / "model.ckpt"
        log = tmp_path / "log.csv"
        assert main(["train", "--config", str(train_cfg),
                     "--checkpoint", str(ckpt), "--log", str(log)]) == 0
        assert ckpt.exists() and log.exists()
        assert (tmp_path / "model.ckpt.manifest").exists()
        header, rows = _read_csv(log)
        assert header == ["epoch", "recon", "kld"]
        assert len(rows) == 2
        assert "z_bar = " in capsys.readouterr().out

    def test_override_with_set(self, tmp_path, train_cfg):
        assert main(["train", "--config", str(train_cfg), "--set", "epochs=1",
                     "--checkpoint", str(tmp_path / "m.ckpt"),
                     "--log", str(tmp_path / "l.csv")]) == 0
        _, rows = _read_csv(tmp_path / "l.csv")
        assert len(rows) == 1

    def test_missing_key_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("prior = tilted\ntau = 5\n")
        code = main(["train", "--config", str(cfg),
                     "--checkpoint", str(tmp_path / "m.ckpt"),
                     "--log", str(tmp_path / "l.csv")])
        assert code == 1
        assert "'dz'" in capsys.readouterr().err


class TestScoreRocSampleBench:
    @pytest.fixture()
    def checkpoint(self, tmp_path, train_cfg):
        ckpt = tmp_path / "model.ckpt"
        main(["train", "--config", str(train_cfg),
              "--checkpoint", str(ckpt), "--log", str(tmp_path / "log.csv")])
        return ckpt

    def test_score_schema_and_determinism(self, tmp_path, checkpoint):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        spec = "blobs:n=16,h=8,w=8,preset=two"
        assert main(["score", "--model", str(checkpoint), "--data", spec,
                     "--seed", "3", "--out", str(a)]) == 0
        assert main(["score", "--model", str(checkpoint), "--data", spec,
                     "--seed", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header, rows = _read_csv(a)
        assert header == ["sample_index", "recon_term", "kld_term", "score", "dataset_tag"]
        assert len(rows) == 16

    def test_score_draws_replay_is_byte_identical(self, tmp_path, checkpoint):
        # 2500 rows cross two 1024-row chunk boundaries of the draw order.
        first = tmp_path / "first"
        first.mkdir()
        assert main(["score", "--model", str(checkpoint), "--data",
                     "blobs:n=2500,h=8,w=8,preset=two", "--draws", "3", "--seed", "5",
                     "--out", str(first / "scores.csv"),
                     "--manifest", str(first / "score.manifest")]) == 0
        replay_dir = tmp_path / "second"
        assert main(["replay", str(first / "score.manifest"), "--out-dir", str(replay_dir)]) == 0
        assert (replay_dir / "scores.csv").read_bytes() == (first / "scores.csv").read_bytes()
        assert len(_read_csv(first / "scores.csv")[1]) == 2500

    def test_score_negative_draws_is_usage_error(self, tmp_path, checkpoint):
        out = tmp_path / "s.csv"
        assert main(["score", "--model", str(checkpoint), "--data", "noise:n=4,h=8,w=8",
                     "--draws", "-1", "--out", str(out)]) == 1
        assert not out.exists()

    def test_score_missing_checkpoint_is_io_error(self, tmp_path):
        assert main(["score", "--model", str(tmp_path / "nope.ckpt"),
                     "--data", "noise:n=4,h=8,w=8", "--out", str(tmp_path / "s.csv")]) == 3

    def test_roc_self_comparison_is_half(self, tmp_path, checkpoint):
        scores = tmp_path / "s.csv"
        main(["score", "--model", str(checkpoint), "--data", "noise:n=32,h=8,w=8",
              "--seed", "5", "--out", str(scores)])
        out = tmp_path / "roc.csv"
        summary = tmp_path / "sum.json"
        assert main(["roc", "--in-scores", str(scores), "--out-scores", str(scores),
                     "--out", str(out), "--summary", str(summary)]) == 0
        payload = json.loads(summary.read_text())
        assert payload["auroc"] == 0.5
        assert payload["n_in"] == payload["n_out"] == 32

    def test_roc_short_row_fails(self, tmp_path):
        short = tmp_path / "short.csv"
        short.write_text("sample_index,recon_term,kld_term,score,dataset_tag\n"
                         "0,0.5,0.25,0.75,noise\n1,0.5\n")
        assert main(["roc", "--in-scores", str(short), "--out-scores", str(short),
                     "--out", str(tmp_path / "r.csv"),
                     "--summary", str(tmp_path / "s.json")]) == 1

    def test_roc_empty_input_fails(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("sample_index,recon_term,kld_term,score,dataset_tag\n")
        assert main(["roc", "--in-scores", str(empty), "--out-scores", str(empty),
                     "--out", str(tmp_path / "r.csv"),
                     "--summary", str(tmp_path / "s.json")]) == 1

    def test_sample_from_checkpoint(self, tmp_path, checkpoint):
        lat = tmp_path / "lat.csv"
        dec = tmp_path / "dec.csv"
        assert main(["sample", "--model", str(checkpoint), "--n", "8",
                     "--out", str(lat), "--decoded", str(dec)]) == 0
        assert len(lat.read_text().splitlines()) == 8
        assert len(dec.read_text().splitlines()) == 8

    def test_sample_from_parameters(self, tmp_path):
        lat = tmp_path / "lat.csv"
        assert main(["sample", "--dz", "10", "--zbar", "10.15", "--n", "5",
                     "--seed", "2", "--out", str(lat)]) == 0
        rows = [list(map(float, line.split(","))) for line in lat.read_text().splitlines()]
        assert len(rows) == 5 and len(rows[0]) == 10

    def test_sample_prior_rejection(self, tmp_path):
        lat = tmp_path / "lat.csv"
        assert main(["sample", "--dz", "5", "--tau", "3", "--sampler", "prior",
                     "--n", "5", "--seed", "2", "--out", str(lat)]) == 0
        assert len(lat.read_text().splitlines()) == 5

    def test_sample_needs_model_or_dz(self, tmp_path):
        assert main(["sample", "--n", "5", "--out", str(tmp_path / "l.csv")]) == 1

    @pytest.mark.parametrize("options", [
        ["--dz", "2", "--zbar", "nan", "--n", "3"],
        ["--dz", "2", "--zbar", "inf", "--n", "3"],
        ["--dz", "2", "--zbar", "0", "--n", "3"],
        ["--dz", "2", "--zbar", "-1", "--n", "3"],
        ["--dz", "0", "--zbar", "1", "--n", "3"],
        ["--dz", "2", "--zbar", "1", "--n", "-3"],
    ], ids=["zbar-nan", "zbar-inf", "zbar-0", "zbar-neg", "dz-0", "n-neg"])
    def test_sample_refuses_bad_posterior_inputs(self, tmp_path, options):
        # A NaN radial mean once made the redraw loop run forever; the
        # timeout turns a hang into a failure.
        proc = _run_python(["-m", "tiltvae.cli", "sample", *options, "--out", "l.csv"],
                           cwd=tmp_path, timeout=30)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: posterior sampler needs")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "l.csv").exists()

    def test_bench_schema(self, tmp_path, checkpoint, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--model", str(checkpoint),
                     "--data", "blobs:n=64,h=8,w=8,preset=two",
                     "--draws", "8", "--repeat", "2", "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["mode", "repeat", "seconds", "images_per_second"]
        assert [r[0] for r in rows] == ["single", "single", "avg8", "avg8"]
        assert "throughput ratio" in capsys.readouterr().out


class TestCachedParser:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_import_loads_no_scipy(self, tmp_path):
        proc = _run_python(["-c", "import sys, tiltvae.cli; print(sorted(m for m in sys.modules"
                            " if m == 'scipy' or m.startswith('scipy.')))"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_consecutive_gamma_runs_keep_their_own_options(self, tmp_path):
        for tau, dz in (("1", "2"), ("3", "5")):
            assert main(["gamma", "--tau", tau, "--dz", dz,
                         "--out", str(tmp_path / f"g{tau}.csv"),
                         "--manifest", str(tmp_path / f"g{tau}.manifest")]) == 0
        first = (tmp_path / "g1.manifest").read_text()
        second = (tmp_path / "g3.manifest").read_text()
        assert "config.tau = 1.0\n" in first and "config.dz = 2\n" in first
        assert "config.tau = 3.0\n" in second and "config.dz = 5\n" in second

    def test_consecutive_set_lists_do_not_accumulate(self, tmp_path, train_cfg):
        for name, sets in (("a", ["epochs=1", "batch_size=32"]), ("b", ["seed=3"])):
            argv = ["train", "--config", str(train_cfg),
                    "--checkpoint", str(tmp_path / f"{name}.ckpt"),
                    "--log", str(tmp_path / f"{name}.csv"),
                    "--manifest", str(tmp_path / f"{name}.manifest")]
            for item in sets:
                argv += ["--set", item]
            assert main(argv) == 0
        first = (tmp_path / "a.manifest").read_text()
        second = (tmp_path / "b.manifest").read_text()
        assert "config.set = epochs=1;batch_size=32\n" in first
        assert "config.set = seed=3\n" in second
        assert "train.epochs = 2\n" in second and "train.batch_size = 64\n" in second

    def test_usage_error_after_a_successful_call_exits_1(self, tmp_path, capsys):
        assert main(["gamma", "--tau", "1", "--dz", "2",
                     "--out", str(tmp_path / "g.csv")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["gamma", "--tau", "1"])
        assert exc.value.code == 1
        assert "--dz" in capsys.readouterr().err


class TestManifestAndReplay:
    def test_manifest_fields(self, tmp_path):
        out = tmp_path / "gamma.csv"
        main(["gamma", "--tau", "1", "--dz", "2", "--out", str(out)])
        manifest = (tmp_path / "gamma.manifest").read_text()
        assert "command = gamma" in manifest
        assert "version = " in manifest
        assert "duration_s = " in manifest
        assert "config.tau = 1.0" in manifest
        assert f"output.table = {out}" in manifest

    @pytest.mark.parametrize("argv,outputs", [
        (["gamma", "--tau", "2", "--dz", "4"], ["gamma.csv"]),
        (["kld-table", "--tau", "2", "--dz", "4", "--points", "20", "--mu-max", "5"],
         ["kld_table.csv"]),
        (["sweep", "--d-grid", "2", "--w-grid", "0", "--points", "20", "--mu-max", "5"],
         ["sweep.csv"]),
    ])
    def test_replay_is_byte_identical(self, tmp_path, argv, outputs, monkeypatch):
        first = tmp_path / "first"
        first.mkdir()
        monkeypatch.chdir(first)
        main(argv + ["--manifest", str(first / "run.manifest")])
        replay_dir = tmp_path / "second"
        code = main(["replay", str(first / "run.manifest"), "--out-dir", str(replay_dir)])
        assert code in (0, 1)  # sweep propagates its violation exit code
        for name in outputs:
            assert (replay_dir / name).read_bytes() == (first / name).read_bytes()

    def test_train_replay_survives_config_deletion(self, tmp_path, train_cfg):
        ckpt = tmp_path / "model.ckpt"
        log = tmp_path / "log.csv"
        main(["train", "--config", str(train_cfg), "--checkpoint", str(ckpt),
              "--log", str(log), "--manifest", str(tmp_path / "run.manifest")])
        os.unlink(train_cfg)
        replay_dir = tmp_path / "replayed"
        assert main(["replay", str(tmp_path / "run.manifest"),
                     "--out-dir", str(replay_dir)]) == 0
        assert (replay_dir / "model.ckpt").read_bytes() == ckpt.read_bytes()
        assert (replay_dir / "log.csv").read_bytes() == log.read_bytes()

    def test_train_replay_keeps_an_empty_hidden_list(self, tmp_path, train_cfg):
        # hidden = (empty) means no hidden layer; the manifest records it as an
        # empty value, which replay must not swap for the default widths.
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--config", str(train_cfg), "--set", "hidden=",
                     "--checkpoint", str(ckpt), "--log", str(tmp_path / "log.csv"),
                     "--manifest", str(tmp_path / "run.manifest")]) == 0
        assert "train.hidden = \n" in (tmp_path / "run.manifest").read_text()
        replay_dir = tmp_path / "replayed"
        assert main(["replay", str(tmp_path / "run.manifest"),
                     "--out-dir", str(replay_dir)]) == 0
        assert (replay_dir / "model.ckpt").read_bytes() == ckpt.read_bytes()

    def test_replay_writes_default_outputs_into_out_dir(self, tmp_path, monkeypatch):
        # A manifest that records no config.out replays to the default name,
        # which must land in --out-dir, not in the working directory.
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        manifest = tmp_path / "run.manifest"
        manifest.write_text("command = gamma\nconfig.tau = 2.0\nconfig.dz = 4\n")
        assert main(["replay", str(manifest), "--out-dir", str(tmp_path / "replayed")]) == 0
        assert (tmp_path / "replayed" / "gamma.csv").exists()
        assert not any(cwd.iterdir())

    @pytest.mark.parametrize("argv,outputs", [
        (["gamma", "--tau", "2", "--dz", "4"], ["gamma.csv"]),
        (["train", "--config", "train.cfg"], ["model.ckpt", "train_log.csv"]),
    ], ids=["gamma", "train"])
    def test_closed_stdout_still_leaves_a_replayable_manifest(self, tmp_path, train_cfg,
                                                             argv, outputs):
        # stdout is a pipe whose reader has gone: printing fails, so the
        # command exits 3 with one error line, after writing its manifest.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _run_python(["-m", "tiltvae.cli", *argv, "--manifest", "run.manifest"],
                               cwd=tmp_path, stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        replay_dir = tmp_path / "replayed"
        assert main(["replay", str(tmp_path / "run.manifest"),
                     "--out-dir", str(replay_dir)]) == 0
        for name in outputs:
            assert (replay_dir / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_replay_unknown_command(self, tmp_path):
        bad = tmp_path / "bad.manifest"
        bad.write_text("command = nonsense\n")
        assert main(["replay", str(bad), "--out-dir", str(tmp_path / "x")]) == 1


def _fields_with_defaults():
    owners = [(c.name, c.fields) for c in COMMANDS.values()] + [("train-config", _TRAIN_FIELDS)]
    return [pytest.param(f, id=f"{name}.{f.key}") for name, fields in owners
            for f in fields if f.default is not REQUIRED and f.default is not None]


class TestFields:
    @pytest.mark.parametrize("field", _fields_with_defaults())
    def test_default_survives_format_and_parse(self, field):
        # Replay re-parses what the manifest recorded through each field's fmt.
        assert field.parse(field.fmt(field.default)) == field.default

    def test_error_names_source_key_and_text(self, tmp_path, capsys):
        assert main(["gamma", "--tau", "x", "--dz", "2", "--out", str(tmp_path / "g.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: --tau: tau = 'x': could not convert string to float: 'x'\n")
        manifest = tmp_path / "g.manifest"
        manifest.write_text("command = gamma\nconfig.tau = 2.0\nconfig.dz = two\n")
        assert main(["replay", str(manifest), "--out-dir", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {manifest}: config.dz: dz = 'two': ")


def _train(tmp_path, cfg, *sets):
    argv = ["train", "--config", str(cfg), "--checkpoint", str(tmp_path / "m.ckpt"),
            "--log", str(tmp_path / "log.csv")]
    for item in sets:
        argv += ["--set", item]
    return main(argv)


class TestRefusals:
    """Inputs that once trained, sampled or scored without a word, or failed
    a layer later with a message naming no key, now exit 1 with one error line
    naming the key and its source."""

    @pytest.mark.parametrize("item,expected", [
        ("grad_clip=nan", "--set: grad_clip = 'nan': must be finite and > 0"),
        ("hidden=0", "--set: hidden = '0': must be >= 1"),
        ("hidden=16,0", "--set: hidden = '16,0': must be >= 1"),
        ("learning_rate=inf", "--set: learning_rate = 'inf': must be finite and > 0"),
        ("weight_std=nan", "--set: weight_std = 'nan': must be finite and > 0"),
        ("epochs=0", "--set: epochs = '0': must be >= 1"),
        ("tau=-1", "--set: tau = '-1': must be finite and >= 0"),
        ("data=noise:n=3,h=0,w=4", "data spec 'noise:n=3,h=0,w=4': h = '0': must be >= 1"),
        ("data=noise:n=3,h=-2,w=4", "data spec 'noise:n=3,h=-2,w=4': h = '-2': must be >= 1"),
        ("data=blobs:n=8,h=8,w=8,preset=two,noise=nan",
         "data spec 'blobs:n=8,h=8,w=8,preset=two,noise=nan': noise = 'nan': "
         "must be finite and >= 0"),
        ("data=blobs:n=8,h=8,w=8,preset=two,noise=-1",
         "data spec 'blobs:n=8,h=8,w=8,preset=two,noise=-1': noise = '-1': "
         "must be finite and >= 0"),
        ("data=noise:n=3,h=2,w=2,n=4", "data spec 'noise:n=3,h=2,w=2,n=4': repeated key 'n'"),
    ])
    def test_train_value(self, tmp_path, train_cfg, capsys, item, expected):
        assert _train(tmp_path, train_cfg, item) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not (tmp_path / "m.ckpt").exists()

    def test_train_file_line(self, tmp_path, train_cfg, capsys):
        lines = train_cfg.read_text().replace("epochs = 2", "epochs = 1e9").splitlines()
        train_cfg.write_text("\n".join(lines) + "\n")
        assert _train(tmp_path, train_cfg) == 1
        lineno = lines.index("epochs = 1e9") + 1
        assert capsys.readouterr().err == (
            f"error: {train_cfg}:{lineno}: epochs = '1e9': "
            "invalid literal for int() with base 10: '1e9'\n")

    def test_repeated_train_key(self, tmp_path, train_cfg, capsys):
        # Once the last of the two lines won without a word.
        lines = train_cfg.read_text().splitlines() + ["epochs = 1"]
        train_cfg.write_text("\n".join(lines) + "\n")
        assert _train(tmp_path, train_cfg) == 1
        assert capsys.readouterr().err == (
            f"error: {train_cfg}:{len(lines)}: expected one 'key = value' per key, "
            "got 'epochs = 1'\n")

    def test_unknown_train_key(self, tmp_path, train_cfg, capsys):
        assert _train(tmp_path, train_cfg, "epoch=3") == 1
        assert capsys.readouterr().err == "error: --set: unrecognized keys ['epoch']\n"

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_prior_sampler_count(self, tmp_path, capsys, n):
        out = tmp_path / "l.csv"
        assert main(["sample", "--sampler", "prior", "--dz", "3", "--tau", "2", "--n", n,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: prior sampler needs n >= 1, got n={n}\n"
        assert not out.exists()

    def test_unknown_sampler(self, tmp_path, capsys):
        assert main(["sample", "--sampler", "gibbs", "--dz", "3", "--zbar", "1",
                     "--out", str(tmp_path / "l.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: --sampler: sampler = 'gibbs': must be one of posterior, prior\n")

    def test_bench_repeat(self, tmp_path, capsys):
        # The option is refused before the checkpoint is opened.
        assert main(["bench", "--model", str(tmp_path / "m.ckpt"), "--data", "noise:n=4,h=2,w=2",
                     "--repeat", "0", "--out", str(tmp_path / "b.csv")]) == 1
        assert capsys.readouterr().err == "error: --repeat: repeat = '0': must be >= 1\n"

    def test_sweep_points(self, tmp_path, capsys):
        assert main(["sweep", "--d-grid", "2", "--w-grid", "0", "--points", "1",
                     "--out", str(tmp_path / "sweep.csv")]) == 1
        assert capsys.readouterr().err == "error: --points: points = '1': must be >= 2\n"

    def test_allocation_too_large_for_memory(self, tmp_path, capsys, monkeypatch):
        # numpy refuses a 745 GiB grid at once like this; no test allocates it.
        message = ("Unable to allocate 745. GiB for an array with shape (100000000000,) "
                   "and data type float64")

        def refuse(*args):
            raise MemoryError(message)

        monkeypatch.setattr(tiltvae.cli, "verify_bound_sweep", refuse)
        assert main(["sweep", "--d-grid", "2", "--w-grid", "0", "--points", "100000000000",
                     "--out", str(tmp_path / "sweep.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
