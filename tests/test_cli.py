"""CLI tests: command contracts, exit codes, manifests, and replay."""

import csv
import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import tiltvae.cli
import tiltvae.tilted
from tiltvae._fields import REQUIRED, VAL
from tiltvae.cli import COMMANDS, _flag, _parse_kv_file, build_parser, main
from tiltvae.data import _SPEC_FIELDS
from tiltvae.sampler import rng_stream
from tiltvae.vae import StandardGaussian, build_model, save_checkpoint

from idx_files import write_idx


def _run_python(args, cwd, timeout=120, stdout=subprocess.PIPE, env=None):
    """A fresh interpreter that imports this checkout's tiltvae, with the
    variables of ``env`` added to this process's environment."""
    src = os.path.dirname(os.path.dirname(tiltvae.__file__))
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
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

    @pytest.mark.parametrize("grid,reason", [
        ("", "must name at least one value"),
        (",", "must name at least one value"),
        ("5..1", "range '5..1' runs backwards"),
        ("3,5..1", "range '5..1' runs backwards"),
    ])
    def test_empty_or_reversed_grid_names_its_flag(self, tmp_path, capsys, grid, reason):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--d-grid", grid, "--w-grid", "0", "--points", "10",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --d-grid: d_grid = {grid!r}: {reason}\n"
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
        assert not (tmp_path / "model.ckpt.manifest").exists()
        header, rows = _read_csv(log)
        assert header == ["epoch", "recon", "kld"]
        assert len(rows) == 2
        assert "z_bar = " in capsys.readouterr().out

    def test_a_flag_beats_the_file(self, tmp_path, train_cfg):
        assert main(["train", "--config", str(train_cfg), "--epochs", "1",
                     "--checkpoint", str(tmp_path / "m.ckpt"),
                     "--log", str(tmp_path / "l.csv")]) == 0
        _, rows = _read_csv(tmp_path / "l.csv")
        assert len(rows) == 1

    def test_flags_alone_match_the_file(self, tmp_path, train_cfg):
        # Every key of the file given as a flag instead trains the same model.
        values, _ = _parse_kv_file(train_cfg)
        argv = [arg for key, value in values.items() for arg in (_flag(key), value)]
        for name, options in (("file", ["--config", str(train_cfg)]), ("flags", argv)):
            assert main(["train", *options, "--checkpoint", str(tmp_path / f"{name}.ckpt"),
                         "--log", str(tmp_path / f"{name}.csv"),
                         "--manifest", str(tmp_path / f"{name}.manifest")]) == 0
        assert (tmp_path / "flags.ckpt").read_bytes() == (tmp_path / "file.ckpt").read_bytes()
        assert "config.epochs = 2\n" in (tmp_path / "flags.manifest").read_text()
        assert "config.config = \n" in (tmp_path / "flags.manifest").read_text()

    def test_missing_key_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("prior = tilted\ntau = 5\n")
        code = main(["train", "--config", str(cfg),
                     "--checkpoint", str(tmp_path / "m.ckpt"),
                     "--log", str(tmp_path / "l.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error: --dz: missing key 'dz'\n"


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

    def test_score_negative_draws_is_usage_error(self, tmp_path, checkpoint, capsys):
        out = tmp_path / "s.csv"
        assert main(["score", "--model", str(checkpoint), "--data", "noise:n=4,h=8,w=8",
                     "--draws", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --draws: draws = '-1': must be >= 0\n"
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

    def test_posterior_sample_needs_a_stored_or_given_zbar(self, tmp_path, capsys):
        ckpt = tmp_path / "untrained.ckpt"
        save_checkpoint(build_model(rng_stream(0), 4, 3, StandardGaussian(), hidden=(2,)), ckpt)
        lat = tmp_path / "l.csv"
        assert main(["sample", "--model", str(ckpt), "--n", "5", "--out", str(lat)]) == 1
        assert capsys.readouterr().err == (
            "error: posterior sampler needs --zbar (or a checkpoint that stores it)\n")
        assert not lat.exists()

    @pytest.mark.parametrize("options,expected", [
        (["--dz", "2", "--zbar", "nan", "--n", "3"],
         "--zbar: zbar = 'nan': must be finite and > 0"),
        (["--dz", "2", "--zbar", "inf", "--n", "3"],
         "--zbar: zbar = 'inf': must be finite and > 0"),
        (["--dz", "2", "--zbar", "0", "--n", "3"], "--zbar: zbar = '0': must be finite and > 0"),
        (["--dz", "2", "--zbar", "-1", "--n", "3"], "--zbar: zbar = '-1': must be finite and > 0"),
        (["--dz", "0", "--zbar", "1", "--n", "3"], "--dz: dz = '0': must be >= 1"),
        (["--dz", "2", "--zbar", "1", "--n", "-3"], "--n: n = '-3': must be >= 1"),
    ], ids=["zbar-nan", "zbar-inf", "zbar-0", "zbar-neg", "dz-0", "n-neg"])
    def test_sample_refuses_bad_posterior_inputs(self, tmp_path, options, expected):
        # A NaN radial mean once made the redraw loop run forever; the
        # timeout turns a hang into a failure.
        proc = _run_python(["-m", "tiltvae.cli", "sample", *options, "--out", "l.csv"],
                           cwd=tmp_path, timeout=30)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {expected}\n"
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

    def test_consecutive_train_runs_keep_their_own_options(self, tmp_path, train_cfg):
        for name, options in (("a", ["--epochs", "1", "--batch-size", "32"]),
                              ("b", ["--seed", "3"])):
            assert main(["train", "--config", str(train_cfg), *options,
                         "--checkpoint", str(tmp_path / f"{name}.ckpt"),
                         "--log", str(tmp_path / f"{name}.csv"),
                         "--manifest", str(tmp_path / f"{name}.manifest")]) == 0
        first = (tmp_path / "a.manifest").read_text()
        second = (tmp_path / "b.manifest").read_text()
        assert "config.epochs = 1\n" in first and "config.batch_size = 32\n" in first
        assert "config.seed = 3\n" in second
        assert "config.epochs = 2\n" in second and "config.batch_size = 64\n" in second

    def test_usage_error_after_a_successful_call_exits_1(self, tmp_path, capsys):
        assert main(["gamma", "--tau", "1", "--dz", "2",
                     "--out", str(tmp_path / "g.csv")]) == 0
        capsys.readouterr()
        assert main(["gamma", "--tau", "1"]) == 1
        assert capsys.readouterr().err == "error: --dz: missing key 'dz'\n"


class TestRandomStreams:
    """Only the CLI turns a seed into generators, one stream id per use:
    changing an id silently changes every output drawn from it."""

    def test_each_command_derives_its_streams(self, tmp_path, train_cfg, monkeypatch):
        calls = []

        def recording(seed, stream=0):
            calls.append((seed, stream))
            return rng_stream(seed, stream)

        monkeypatch.setattr(tiltvae.cli, "rng_stream", recording)
        monkeypatch.chdir(tmp_path)  # where the outputs not named below are written
        ckpt, scores = str(tmp_path / "m.ckpt"), str(tmp_path / "s.csv")
        data = ["--data", "noise:n=8,h=8,w=8"]
        runs = [
            (["train", "--config", str(train_cfg), "--seed", "3", "--checkpoint", ckpt],
             [(3, 101), (3, 0), (3, 1)]),
            (["score", "--model", ckpt, *data, "--draws", "2", "--seed", "4", "--out", scores],
             [(4, 101), (4, 11)]),
            (["sample", "--model", ckpt, "--n", "3", "--seed", "5"], [(5, 21)]),
            (["sample", "--dz", "2", "--tau", "1", "--sampler", "prior", "--n", "3"], [(0, 21)]),
            (["bench", "--model", ckpt, *data, "--draws", "1", "--repeat", "1", "--seed", "6"],
             [(6, 101), (6, 31)]),
            (["roc", "--in-scores", scores, "--out-scores", scores], []),
            (["gamma", "--tau", "2", "--dz", "3"], []),
            (["kld-table", "--tau", "2", "--dz", "3", "--points", "5"], []),
            (["sweep", "--d-grid", "2", "--w-grid", "1", "--points", "5"], []),
        ]
        for argv, streams in runs:
            calls.clear()
            # sweep exits 1 for the by-design violation of its one cell.
            assert main(argv) == (argv[0] == "sweep"), argv
            assert calls == streams, argv

    def test_library_modules_do_not_import_the_sampler(self, tmp_path):
        proc = _run_python(["-c", "import sys, tiltvae.data, tiltvae.vae, tiltvae.ood; "
                            "print('tiltvae.sampler' in sys.modules)"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_cli_import_leaves_numpy_random_unloaded(self, tmp_path):
        # Commands that never draw, such as sweep, do not pay for numpy.random.
        proc = _run_python(["-c", "import sys, tiltvae.cli; "
                            "print('numpy.random' in sys.modules)"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestBlasThreads:
    def test_training_bytes_do_not_depend_on_the_thread_count(self, tmp_path):
        # About 200k parameters, so that a BLAS dot over the gradient would
        # be split across threads; every step of this epoch is clipped.
        outputs = {}
        for threads in ("1", "2"):
            run = tmp_path / threads
            run.mkdir()
            proc = _run_python(
                ["-m", "tiltvae.cli", "train", "--prior", "tilted", "--tau", "10", "--dz", "10",
                 "--hidden", "256,128", "--data", "blobs:n=256,h=16,w=16,preset=two",
                 "--epochs", "1", "--seed", "7", "--learning-rate", "0.0003"],
                cwd=run, env={var: threads for var in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
            assert proc.returncode == 0, proc.stderr
            outputs[threads] = [(run / name).read_bytes()
                                for name in ("model.ckpt", "train_log.csv")]
        assert outputs["1"] == outputs["2"]


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
        assert main(["train", "--config", str(train_cfg), "--hidden", "",
                     "--checkpoint", str(ckpt), "--log", str(tmp_path / "log.csv"),
                     "--manifest", str(tmp_path / "run.manifest")]) == 0
        assert "config.hidden = \n" in (tmp_path / "run.manifest").read_text()
        replay_dir = tmp_path / "replayed"
        assert main(["replay", str(tmp_path / "run.manifest"),
                     "--out-dir", str(replay_dir)]) == 0
        assert (replay_dir / "model.ckpt").read_bytes() == ckpt.read_bytes()

    def test_train_manifest_from_before_options_replays(self, tmp_path, train_cfg):
        # Before train's settings were options its manifest recorded them as
        # train.<key> lines, beside the retired config.set overrides.
        ckpt, log = tmp_path / "model.ckpt", tmp_path / "log.csv"
        assert main(["train", "--config", str(train_cfg), "--hidden", "", "--epochs", "1",
                     "--checkpoint", str(ckpt), "--log", str(log)]) == 0
        manifest = tmp_path / "old.manifest"
        manifest.write_text(
            "command = train\nversion = 0.1.0\nseed = 7\nduration_s = 0.02\n"
            f"config.checkpoint = {ckpt}\nconfig.config = {train_cfg}\nconfig.log = {log}\n"
            "config.set = hidden=;epochs=1\ntrain.batch_size = 64\n"
            "train.data = blobs:n=64,h=8,w=8,preset=two\ntrain.dz = 10\ntrain.epochs = 1\n"
            "train.grad_clip = 100.0\ntrain.hidden = \ntrain.learning_rate = 0.001\n"
            "train.prior = tilted\ntrain.seed = 7\ntrain.tau = 10.0\ntrain.weight_std = 0.2\n"
            f"output.checkpoint = {ckpt}\noutput.log = {log}\n")
        os.unlink(train_cfg)
        replay_dir = tmp_path / "replayed"
        assert main(["replay", str(manifest), "--out-dir", str(replay_dir)]) == 0
        assert (replay_dir / "model.ckpt").read_bytes() == ckpt.read_bytes()
        assert (replay_dir / "log.csv").read_bytes() == log.read_bytes()
        assert "config.set" not in (replay_dir / "train.manifest").read_text()

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

    def test_manifest_directory_is_created(self, tmp_path, monkeypatch):
        # The run once wrote g.csv and then exited 3, as m/ did not exist.
        monkeypatch.chdir(tmp_path)
        assert main(["gamma", "--tau", "10", "--dz", "10", "--out", "g.csv",
                     "--manifest", "m/gamma.manifest"]) == 0
        manifest = tmp_path / "m" / "gamma.manifest"
        assert _parse_kv_file(manifest)[0]["output.table"] == str(tmp_path / "g.csv")
        replay_dir = tmp_path / "replayed"
        assert main(["replay", str(manifest), "--out-dir", str(replay_dir)]) == 0
        assert (replay_dir / "g.csv").read_bytes() == (tmp_path / "g.csv").read_bytes()

    def test_replay_unknown_command(self, tmp_path):
        bad = tmp_path / "bad.manifest"
        bad.write_text("command = nonsense\n")
        assert main(["replay", str(bad), "--out-dir", str(tmp_path / "x")]) == 1


_RUNS = {
    "gamma": ["gamma", "--tau", "2", "--dz", "3"],
    "kld-table": ["kld-table", "--tau", "2", "--dz", "3", "--points", "5"],
    "sweep": ["sweep", "--d-grid", "2", "--w-grid", "1", "--points", "5"],
    "train": ["train", "--config", "{cfg}"],
    "score": ["score", "--model", "{ckpt}", "--data", "noise:n=8,h=8,w=8"],
    "roc": ["roc", "--in-scores", "{scores}", "--out-scores", "{scores}"],
    "sample": ["sample", "--model", "{ckpt}", "--n", "3"],
    # Without --model, sample writes no decoded CSV, so the --decoded default
    # samples.csv is free for --out.
    "sample-no-model": ["sample", "--dz", "3", "--zbar", "1", "--n", "3", "--out", "samples.csv"],
    "bench": ["bench", "--model", "{ckpt}", "--data", "noise:n=8,h=8,w=8", "--draws", "1",
              "--repeat", "1"],
}


class TestRunFiles:
    """A run writes the files its manifest names and the manifest, nothing
    else, and refuses to write one file twice or over one of its inputs, as
    run or as replayed into one directory."""

    @pytest.fixture()
    def inputs(self, tmp_path, train_cfg):
        ckpt, scores = tmp_path / "in" / "model.ckpt", tmp_path / "in" / "scores.csv"
        assert main(["train", "--config", str(train_cfg), "--checkpoint", str(ckpt),
                     "--log", str(tmp_path / "in" / "log.csv")]) == 0
        assert main(["score", "--model", str(ckpt), "--data", "noise:n=8,h=8,w=8",
                     "--out", str(scores)]) == 0
        idx = tmp_path / "in" / "x.idx"
        write_idx(idx, np.arange(64, dtype=np.uint8).reshape(4, 4, 4))
        return {"cfg": train_cfg, "ckpt": ckpt, "scores": scores, "idx": idx}

    @staticmethod
    def _assert_holds_its_outputs(run_dir, manifest):
        entries, _ = _parse_kv_file(manifest)
        outputs = [path for key, path in entries.items() if key.startswith("output.")]
        assert outputs and {os.path.dirname(path) for path in outputs} == {str(run_dir)}
        assert sorted(p.name for p in run_dir.iterdir()) == sorted(
            [os.path.basename(path) for path in outputs] + [manifest.name])

    @pytest.mark.parametrize("name", list(_RUNS))
    def test_run_and_replay_write_only_what_the_manifest_names(self, tmp_path, inputs,
                                                               monkeypatch, name):
        # train once also wrote <checkpoint>.manifest, which no manifest named.
        argv = [arg.format(**inputs) for arg in _RUNS[name]]
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        # sweep exits 1 for the by-design violation of its one cell.
        assert main(argv) == (name == "sweep")
        manifest = run_dir / f"{argv[0]}.manifest"
        self._assert_holds_its_outputs(run_dir, manifest)
        replay_dir = tmp_path / "replayed"
        assert main(["replay", str(manifest), "--out-dir", str(replay_dir)]) == (name == "sweep")
        self._assert_holds_its_outputs(replay_dir, replay_dir / manifest.name)

    @pytest.mark.parametrize("argv,expected", [
        (["train", "--config", "{cfg}", "--checkpoint", "a/model", "--log", "b/model"],
         "--log: file name 'model' is also that of the --checkpoint file, "
         "and replay writes both into one directory"),
        (["roc", "--in-scores", "{scores}", "--out-scores", "{scores}",
          "--out", "x.csv", "--summary", "x.csv"], "--summary: {run}/x.csv is also the --out file"),
        (["score", "--model", "{ckpt}", "--data", "noise:n=4,h=8,w=8", "--out", "{ckpt}"],
         "--out: {ckpt} is also the --model input"),
        (["gamma", "--tau", "1", "--dz", "2", "--out", "gamma.manifest"],
         "--out: {run}/gamma.manifest is also the --manifest file"),
        (["gamma", "--tau", "1", "--dz", "2", "--out", "d/gamma.manifest",
          "--manifest", "run.manifest"],
         "--out: file name 'gamma.manifest' is also that of the manifest, "
         "and replay writes both into one directory"),
        (["score", "--model", "{ckpt}", "--data", "noise:n=4,h=8,w=8", "--out", "s.csv",
          "--manifest", "{ckpt}"], "--manifest: {ckpt} is also the --model input"),
        (["score", "--model", "{ckpt}", "--data", "noise:n=4,h=8,w=8", "--out", "s.csv",
          "--manifest", "s.csv"], "--out: {run}/s.csv is also the --manifest file"),
        (["sample", "--model", "{ckpt}", "--n", "3", "--out", "samples.csv"],
         "--decoded: {run}/samples.csv is also the --out file"),
        (["score", "--model", "{ckpt}", "--data", "idx:path=../in/x.idx", "--out", "{idx}"],
         "--out: {idx} is also the --data input"),
        (["train", "--config", "{cfg}", "--data", "idx:path={idx},max=2", "--log", "{idx}"],
         "--log: {idx} is also the --data input"),
    ], ids=["output-names", "outputs", "output-input", "output-manifest",
            "output-replay-manifest", "manifest-input", "manifest-output", "sample-decoded",
            "score-data-input", "train-data-input"])
    def test_overwrite_is_refused(self, tmp_path, inputs, capsys, monkeypatch, argv, expected):
        # Each once exited 0, having overwritten one file with another.
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        before = {key: path.read_bytes() for key, path in inputs.items()}
        assert main([arg.format(**inputs) for arg in argv]) == 1
        assert capsys.readouterr().err == f"error: {expected.format(run=run_dir, **inputs)}\n"
        assert not any(run_dir.iterdir())
        assert {key: path.read_bytes() for key, path in inputs.items()} == before

    def test_replay_of_colliding_outputs_is_refused(self, tmp_path, capsys):
        # Replay once wrote both files to replayed/model: the log replaced the
        # checkpoint, which then failed to load with "bad magic".
        manifest = tmp_path / "old.manifest"
        manifest.write_text("command = train\nconfig.prior = tilted\nconfig.dz = 2\n"
                            "config.data = noise:n=4,h=2,w=2\nconfig.epochs = 1\n"
                            "config.checkpoint = a/model\nconfig.log = b/model\n")
        replay_dir = tmp_path / "replayed"
        assert main(["replay", str(manifest), "--out-dir", str(replay_dir)]) == 1
        assert capsys.readouterr().err == (
            f"error: --log: {replay_dir}/model is also the --checkpoint file\n")
        assert not replay_dir.exists()

    @pytest.mark.parametrize("argv,manifest", [
        (["train", "--config", "{cfg}", "--checkpoint", "a/m.ckpt", "--log", "b/l.csv"],
         "a/train.manifest"),
        (["roc", "--in-scores", "{scores}", "--out-scores", "{scores}",
          "--out", "a/r.csv", "--summary", "b/s.json"], "a/roc.manifest"),
        (["sample", "--model", "{ckpt}", "--n", "3", "--out", "a/l.csv", "--decoded", "b/d.csv"],
         "b/sample.manifest"),
        (["sample", "--dz", "3", "--zbar", "1", "--out", "a/l.csv", "--decoded", "b/d.csv"],
         "a/sample.manifest"),
    ], ids=["train", "roc", "sample", "sample-no-model"])
    def test_default_manifest_is_next_to_the_first_output_name(self, tmp_path, inputs,
                                                               monkeypatch, argv, manifest):
        monkeypatch.chdir(tmp_path)
        assert main([arg.format(**inputs) for arg in argv]) == 0
        assert [str(p.relative_to(tmp_path)) for p in tmp_path.glob("?/*.manifest")] == [manifest]

    @pytest.mark.parametrize("argv,outputs", [
        (["train", "--config", "{cfg}", "--data", "idx:path=x.idx,max=3",
          "--checkpoint", "m.ckpt", "--log", "l.csv"], ["m.ckpt", "l.csv"]),
        (["score", "--model", "{ckpt}", "--data", "idx:path=x.idx", "--out", "s.csv"],
         ["s.csv"]),
    ], ids=["train", "score"])
    def test_idx_run_replays_from_another_directory(self, tmp_path, inputs, monkeypatch,
                                                    argv, outputs):
        # The manifest once kept the spec's path as typed, so this replay
        # exited 3 with "No such file or directory: 'x.idx'".
        run_dir, other = tmp_path / "a", tmp_path / "b"
        run_dir.mkdir()
        other.mkdir()
        write_idx(run_dir / "x.idx", np.arange(256, dtype=np.uint8).reshape(4, 8, 8))
        monkeypatch.chdir(run_dir)
        assert main([arg.format(**inputs) for arg in argv]) == 0
        monkeypatch.chdir(other)
        assert main(["replay", f"../a/{argv[0]}.manifest", "--out-dir", "out"]) == 0
        for name in outputs:
            assert (other / "out" / name).read_bytes() == (run_dir / name).read_bytes()

    def test_idx_path_under_a_comma_directory_stays_as_typed(self, tmp_path, inputs,
                                                              monkeypatch):
        # A spec cannot hold a path with a comma, so the relative path is kept.
        run_dir = tmp_path / "a,b"
        run_dir.mkdir()
        write_idx(run_dir / "x.idx", np.arange(256, dtype=np.uint8).reshape(4, 8, 8))
        monkeypatch.chdir(run_dir)
        assert main(["score", "--model", str(inputs["ckpt"]), "--data", "idx:path=x.idx",
                     "--out", "s.csv"]) == 0
        assert "config.data = idx:path=x.idx\n" in (run_dir / "score.manifest").read_text()


def _fields_with_defaults():
    """Each field with a default, as COMMAND.key, or as train-config.key for a
    training value, which a train config file may also hold."""
    def owner(c, f):
        return "train-config" if c.name == "train" and f.kind == VAL else c.name
    return [pytest.param(f, id=f"{owner(c, f)}.{f.key}") for c in COMMANDS.values()
            for f in c.fields if f.default is not REQUIRED and f.default is not None]


class TestFields:
    @pytest.mark.parametrize("field", _fields_with_defaults())
    def test_default_survives_format_and_parse(self, field):
        # Replay re-parses what the manifest recorded through each field's fmt.
        assert field.parse(field.fmt(field.default)) == field.default

    def test_shared_keys_share_one_parser(self):
        # A key that several commands take refuses the same values in each,
        # with an error that names its flag.
        parsers = {}
        for command in COMMANDS.values():
            for f in command.fields:
                parsers.setdefault(f.key, set()).add(f.parse)
        assert {key: p for key, p in parsers.items() if len(p) > 1} == {}

    def test_error_names_source_key_and_text(self, tmp_path, capsys):
        assert main(["gamma", "--tau", "x", "--dz", "2", "--out", str(tmp_path / "g.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: --tau: tau = 'x': could not convert string to float: 'x'\n")
        manifest = tmp_path / "g.manifest"
        manifest.write_text("command = gamma\nconfig.tau = 2.0\nconfig.dz = two\n")
        assert main(["replay", str(manifest), "--out-dir", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {manifest}: config.dz: dz = 'two': ")


def _train(tmp_path, cfg, *items):
    """train from cfg, each "key=value" item given as its flag."""
    argv = ["train", "--config", str(cfg), "--checkpoint", str(tmp_path / "m.ckpt"),
            "--log", str(tmp_path / "log.csv")]
    for item in items:
        key, _, value = item.partition("=")
        argv += [_flag(key), value]
    return main(argv)


class TestRefusals:
    """Inputs that once trained, sampled or scored without a word, or failed
    a layer later with a message naming no key, now exit 1 with one error line
    naming the key and its source."""

    @pytest.mark.parametrize("item,expected", [
        ("grad_clip=nan", "--grad-clip: grad_clip = 'nan': must be finite and > 0"),
        ("hidden=0", "--hidden: hidden = '0': must be >= 1"),
        ("hidden=16,0", "--hidden: hidden = '16,0': must be >= 1"),
        ("learning_rate=inf", "--learning-rate: learning_rate = 'inf': must be finite and > 0"),
        ("weight_std=nan", "--weight-std: weight_std = 'nan': must be finite and > 0"),
        ("epochs=0", "--epochs: epochs = '0': must be >= 1"),
        ("tau=-1", "--tau: tau = '-1': must be finite and >= 0"),
        ("data=noise:n=3,h=0,w=4", "data spec 'noise:n=3,h=0,w=4': h = '0': must be >= 1"),
        ("data=noise:n=3,h=-2,w=4", "data spec 'noise:n=3,h=-2,w=4': h = '-2': must be >= 1"),
        ("data=blobs:n=8,h=8,w=8,preset=two,noise=nan",
         "data spec 'blobs:n=8,h=8,w=8,preset=two,noise=nan': noise = 'nan': "
         "must be finite and >= 0"),
        ("data=blobs:n=8,h=8,w=8,preset=two,noise=-1",
         "data spec 'blobs:n=8,h=8,w=8,preset=two,noise=-1': noise = '-1': "
         "must be finite and >= 0"),
        ("data=noise:n=3,h=2,w=2,n=4", "data spec 'noise:n=3,h=2,w=2,n=4': repeated key 'n'"),
        ("data=blobs:n=8,h=8,w=8,preset=three",
         "data spec 'blobs:n=8,h=8,w=8,preset=three': preset = 'three': "
         "must be one of two, two_shifted"),
        ("data=idx:path=a.idx,labels=l.idx",
         "data spec 'idx:path=a.idx,labels=l.idx': unrecognized keys ['labels']"),
    ])
    def test_train_value(self, tmp_path, train_cfg, capsys, item, expected):
        assert _train(tmp_path, train_cfg, item) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("argv,expected", [
        (["gamma", "--tau", "1", "--dz", "0"], "--dz: dz = '0': must be >= 1"),
        (["kld-table", "--tau", "-1", "--dz", "2"], "--tau: tau = '-1': must be finite and >= 0"),
        (["sample", "--sampler", "prior", "--dz", "2", "--tau", "inf"],
         "--tau: tau = 'inf': must be finite and >= 0"),
        (["score", "--model", "m.ckpt", "--data", "noise:n=2,h=2,w=2", "--draws", "-1"],
         "--draws: draws = '-1': must be >= 0"),
        (["bench", "--model", "m.ckpt", "--data", "noise:n=2,h=2,w=2", "--draws", "-2"],
         "--draws: draws = '-2': must be >= 0"),
    ], ids=["gamma-dz", "kld-table-tau", "sample-tau", "score-draws", "bench-draws"])
    def test_shared_key_names_its_flag(self, tmp_path, capsys, monkeypatch, argv, expected):
        # Once a layer later refused these naming no flag (gamma, kld-table),
        # or after loading the checkpoint and the data (score, bench); the
        # refusal now comes first, so m.ckpt need not exist.
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "out/x.csv"]) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("dims", [(0, 2, 2), (4, 0, 2), (4, 2, 2, 0)])
    def test_idx_file_with_a_zero_dimension(self, tmp_path, train_cfg, capsys, dims):
        # A file of no images once scored to a header-only CSV with a nan
        # mean, and one of no pixels trained an encoder of 0 inputs.
        path = tmp_path / "empty.idx"
        write_idx(path, np.zeros(dims, dtype=np.uint8))
        axis = dims.index(0)
        expected = f"error: {path}: dimension {axis} of {dims} is 0 at offset {4 + 4 * axis}\n"
        assert _train(tmp_path, train_cfg, f"data=idx:path={path}") == 1
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("argv", [
        ["replay", "{bad}", "--out-dir", "{tmp}/r"],
        ["train", "--config", "{bad}", "--checkpoint", "{tmp}/m.ckpt"],
        ["roc", "--in-scores", "{bad}", "--out-scores", "{bad}", "--out", "{tmp}/r.csv"],
    ])
    def test_file_that_does_not_decode_names_itself(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe\x00\x00seed = 1\n")
        code = main([a.format(bad=bad, tmp=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {bad}: ") and "decode" in err and err.count("\n") == 1

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
        lines = train_cfg.read_text().splitlines() + ["epoch = 3"]
        train_cfg.write_text("\n".join(lines) + "\n")
        assert _train(tmp_path, train_cfg) == 1
        assert capsys.readouterr().err == (
            f"error: {train_cfg}:{len(lines)}: unrecognized keys ['epoch']\n")

    @pytest.mark.parametrize("key", ["checkpoint", "log", "config"])
    def test_train_file_holds_only_values(self, tmp_path, train_cfg, capsys, key):
        # Paths stay options: the file may set only the training values.
        lines = train_cfg.read_text().splitlines() + [f"{key} = x"]
        train_cfg.write_text("\n".join(lines) + "\n")
        assert _train(tmp_path, train_cfg) == 1
        assert capsys.readouterr().err == (
            f"error: {train_cfg}:{len(lines)}: unrecognized keys [{key!r}]\n")
        assert not (tmp_path / "x").exists() and not (tmp_path / "m.ckpt").exists()

    def test_each_error_names_its_own_source(self, tmp_path, train_cfg, capsys):
        lines = train_cfg.read_text().replace("epochs = 2", "epochs = 1e9").splitlines()
        lines.append("batch_size = 0")
        train_cfg.write_text("\n".join(lines) + "\n")
        # The flag beats the file's bad epochs; its bad batch size stays.
        assert _train(tmp_path, train_cfg, "epochs=1") == 1
        assert capsys.readouterr().err == (
            f"error: {train_cfg}:{len(lines)}: batch_size = '0': must be >= 1\n")
        assert _train(tmp_path, train_cfg, "epochs=1", "batch_size=8",
                      "learning_rate=inf") == 1
        assert capsys.readouterr().err == (
            "error: --learning-rate: learning_rate = 'inf': must be finite and > 0\n")
        assert _train(tmp_path, train_cfg, "epochs=1", "batch_size=8") == 0
        assert len(_read_csv(tmp_path / "log.csv")[1]) == 1

    @pytest.mark.parametrize("argv,flag", [
        (["gamma", "--tau", "1", "--tau", "2", "--dz", "3"], "--tau"),
        (["gamma", "--tau", "1", "--dz", "3", "--manifest", "a", "--manifest=b"], "--manifest"),
        (["replay", "run.manifest", "--out-dir", "a", "--out-dir", "b"], "--out-dir"),
    ], ids=["value", "manifest", "replay"])
    def test_repeated_option(self, tmp_path, capsys, monkeypatch, argv, flag):
        # Once the last of the two won without a word.
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {flag}: given 2 times\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,flag", [
        (["gamma", "--tau=--", "--dz", "3"], "--tau"),
        (["gamma", "--tau", "1", "--dz", "3", "--manifest=--"], "--manifest"),
        (["replay", "run.manifest", "--out-dir=--"], "--out-dir"),
    ], ids=["value", "manifest", "replay"])
    def test_option_without_value(self, tmp_path, capsys, monkeypatch, argv, flag):
        # argparse leaves no text for "--", which once reached the field parser.
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {flag}: expected one value\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["gamma", "--ta", "1", "--d", "2"],
        ["train", "--config", "train.cfg", "--epoch", "3"],
    ], ids=["gamma", "train"])
    def test_abbreviated_option(self, tmp_path, capsys, monkeypatch, train_cfg, argv):
        # argparse once took a prefix for the option it starts.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error: unrecognized arguments: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.cfg"]

    @pytest.mark.parametrize("options,expected", [
        (["--model", "m.ckpt", "--dz", "5"], "--dz: not used with --model"),
        (["--model", "m.ckpt", "--tau", "3", "--sampler", "prior"],
         "--tau: not used with --model"),
        (["--dz", "5", "--tau", "3", "--zbar", "2", "--sampler", "prior"],
         "--zbar: not used with --sampler prior"),
        (["--dz", "5", "--tau", "3", "--zbar", "2"], "--tau: not used with --sampler posterior"),
    ], ids=["model-dz", "model-tau", "prior-zbar", "posterior-tau"])
    def test_sample_option_it_would_ignore(self, tmp_path, capsys, monkeypatch, options,
                                           expected):
        # Each once ran with exit 0, the option dropped. The refusal comes
        # before the checkpoint is opened, so m.ckpt need not exist.
        monkeypatch.chdir(tmp_path)
        assert main(["sample", *options, "--n", "3", "--out", "out/l.csv"]) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not any(tmp_path.iterdir())

    def test_non_finite_loss_names_its_batch(self, tmp_path, train_cfg):
        proc = _run_python(["-m", "tiltvae.cli", "train", "--config", str(train_cfg),
                            "--weight-std", "1e30", "--learning-rate", "1e6",
                            "--grad-clip", "1e12"], cwd=tmp_path)
        assert proc.returncode == 1
        assert re.fullmatch(r"error: non-finite loss \(batch_start=0, epoch=0, kld=\S+, "
                            r"recon=\S+\)\n", proc.stderr), proc.stderr

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_prior_sampler_count(self, tmp_path, capsys, n):
        out = tmp_path / "l.csv"
        assert main(["sample", "--sampler", "prior", "--dz", "3", "--tau", "2", "--n", n,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --n: n = '{n}': must be >= 1\n"
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


def _readme_text():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(path) as fh:
        return fh.read()


def _readme_block(after):
    """The first fenced code block after the README line that starts with after."""
    return re.search(rf"^{re.escape(after)}.*?^```\n(.*?)^```", _readme_text(),
                     re.M | re.S).group(1)


class TestReadme:
    """The README's examples stay in step with the parser; nothing is run."""

    def test_cli_block_parses(self):
        lines = [line for line in _readme_block("## CLI").splitlines()
                 if line.startswith("tiltvae ")]
        argvs = [shlex.split(line, comments=True)[1:] for line in lines]
        assert {argv[0] for argv in argvs} == set(COMMANDS) | {"replay"}
        for argv in argvs:
            build_parser().parse_args(argv)

    def test_training_config_example_parses(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(_readme_block("Training configs are"))
        values, lines = _parse_kv_file(cfg)
        train = COMMANDS["train"]
        assert set(values) <= {f.key for f in train.fields if f.kind == VAL}
        config = train.config(values, lines.get, lambda kind, path: path)
        assert config["prior"] == "tilted" and config["epochs"] >= 1

    def test_dataset_spec_keys_match_the_parser(self):
        # Each `kind:...` form in the "Dataset specs" paragraph lists only keys
        # that kind takes, and its forms together list every one of them.
        paragraph = re.search(r"^Dataset specs.*?\n\n", _readme_text(), re.M | re.S).group(0)
        listed = {}
        for kind, rest in re.findall(r"`(\w+):([^`]*)`", paragraph):
            keys = set(re.findall(r"(\w+)=", rest))
            assert keys <= {f.key for f in _SPEC_FIELDS[kind]}, (kind, rest)
            listed.setdefault(kind, set()).update(keys)
        assert listed == {kind: {f.key for f in fields} for kind, fields in _SPEC_FIELDS.items()}
