"""Command-line surface.

Every invocation writes exactly one run manifest (key = value text) alongside
its outputs, holding the command name, the fully resolved configuration with
all defaults materialized, the seed, the artifact paths and the wall-clock
duration. ``tiltvae replay MANIFEST --out-dir DIR`` re-executes the recorded
command with identical configuration, redirecting artifacts into DIR; all
derived outputs are byte-identical across replays (timings excepted).

Exit codes: 0 success, 1 domain/validation error, non-finite activations or
scores, or too large an allocation, 2 numerical non-convergence, 3 I/O error.
"""

import argparse
import contextlib
import functools
import io
import os
import sys
import time

import numpy as np

from . import __version__
from ._csvfloat import write_rows
from ._fields import (IN_PATH, OUT_PATH, REQUIRED, VAL, Field, choice, count, counts, fmt_ints,
                      grid_points, non_negative, parse_fields, positive)
from .data import IdxFormatError, parse_spec
from .errors import ConvergenceError, DomainError, NumericalError
from .ood import read_scores_csv, roc, score_arrays, write_scores_csv
from .sampler import (
    RngStream,
    sample_model_latents,
    sample_tilted_prior_batch,
    save_latents_csv,
)
from .tilted import (
    TiltedPrior,
    exact_kld,
    quadratic_kld,
    verify_bound_sweep,
)
from .vae import (
    StandardGaussian,
    TrainConfig,
    build_model,
    decode,
    load_checkpoint,
    save_checkpoint,
    train,
)

def _parse_range_list(text):
    """Comma list of ints, with a..b range syntax."""
    out = []
    for part in filter(None, text.split(",")):
        lo, sep, hi = part.partition("..")
        out.extend(range(int(lo), int(hi if sep else lo) + 1))
    return out


class Command:
    """One subcommand: its option fields plus a runner over resolved config."""

    name = ""
    help = ""
    fields = ()
    repeatable = ()

    def add_arguments(self, sub):
        p = sub.add_parser(self.name, help=self.help)
        for f in self.fields:
            how = ({"action": "append"} if f.key in self.repeatable
                   else {"required": f.default is REQUIRED})
            p.add_argument(_flag(f.key), dest=f.key, default=None, help=f.help, **how)
        p.add_argument("--manifest", dest="manifest", default=None,
                       help="run manifest path (default: <command>.manifest next to the outputs)")
        return p

    def config(self, strings, where, place):
        """Config from {key: raw text} through parse_fields; place(kind, path)
        settles each input and output path, defaults included."""
        config = parse_fields(self.fields, strings, where)
        for f in self.fields:
            if f.kind != VAL and config[f.key] is not None:
                config[f.key] = place(f.kind, config[f.key])
        return config

    def format_config(self, config):
        return {f.key: "" if config[f.key] is None else f.fmt(config[f.key])
                for f in self.fields}

    def run(self, config):
        """Execute; returns ({output_name: path}, seed_or_None)."""
        raise NotImplementedError


def _flag(key):
    return "--" + key.replace("_", "-")


class GammaCommand(Command):
    name = "gamma"
    help = "solve for the divergence-minimizing posterior norm"
    fields = (
        Field("tau", float, fmt=repr, help="tilt parameter"),
        Field("dz", int, help="latent dimension"),
        Field("out", default="gamma.csv", kind=OUT_PATH, help="output CSV"),
    )

    def run(self, config):
        prior = TiltedPrior.fit(config["tau"], config["dz"])
        with open(config["out"], "w") as fh:
            fh.write("tau,d_z,gamma,committed_rate,log_z_tau\n")
            fh.write(
                f"{repr(prior.tau)},{prior.d_z},{repr(prior.gamma)},"
                f"{repr(prior.committed_rate)},{repr(prior.log_z_tau)}\n"
            )
        print(f"gamma = {prior.gamma!r}")
        print(f"committed_rate = {prior.committed_rate!r}")
        print(f"log_z_tau = {prior.log_z_tau!r}")
        return {"table": config["out"]}, None


class KldTableCommand(Command):
    name = "kld-table"
    help = "tabulate exact and quadratic KLD over a mu grid"
    fields = (
        Field("tau", float, fmt=repr, help="tilt parameter"),
        Field("dz", int, help="latent dimension"),
        Field("mu_max", positive, 20.0, repr, help="largest posterior-mean norm"),
        Field("points", grid_points, 200, help="grid size"),
        Field("out", default="kld_table.csv", kind=OUT_PATH, help="output CSV"),
    )

    def run(self, config):
        prior = TiltedPrior.fit(config["tau"], config["dz"])
        grid = np.linspace(0.0, config["mu_max"], config["points"])
        with open(config["out"], "wb") as fh:
            fh.write(b"mu_norm,exact,quadratic\n")
            write_rows(fh, np.column_stack([grid, exact_kld(prior, grid),
                                            quadratic_kld(prior, grid)]))
        print(f"wrote {config['points']} rows (gamma={prior.gamma!r})")
        return {"table": config["out"]}, None


class SweepCommand(Command):
    name = "sweep"
    help = "margin sweep of exact minus quadratic KLD over a (d_z, tau) grid"
    fields = (
        Field("d_grid", _parse_range_list, fmt=fmt_ints, help="latent dims, e.g. 2,5,10 or 2..20"),
        Field("w_grid", _parse_range_list, fmt=fmt_ints,
              help="tilt exponents (tau = 1.2^w), e.g. -20..25"),
        Field("points", grid_points, 1000, help="mu grid size"),
        Field("mu_max", positive, 200.0, repr, help="largest posterior-mean norm"),
        Field("out", default="sweep.csv", kind=OUT_PATH, help="output CSV"),
    )

    def run(self, config):
        report = verify_bound_sweep(
            config["d_grid"], config["w_grid"], config["points"], config["mu_max"]
        )
        report.to_csv(config["out"])
        n_viol, n_err = len(report.violations), len(report.errors)
        print(f"{len(report.cells)} cells, {n_viol} violations, {n_err} errors")
        if n_viol or n_err:
            # Signal in-band rather than raising: the report itself is the artifact.
            self.exit_code = 1
        return {"report": config["out"]}, None


def _parse_kv_file(path):
    """({key: value}, {key: "PATH:LINE"}) of a `key = value` text file."""
    values, sources = {}, {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key in values:
                raise DomainError(f"{path}:{lineno}: expected one 'key = value' per key, "
                                  f"got {line!r}")
            values[key] = value.strip()
            sources[key] = f"{path}:{lineno}"
    return values, sources


# The training config file's keys; the manifest records each resolved value
# as train.<key> through the field's fmt.
_TRAIN_FIELDS = (
    Field("prior", choice("tilted", "gaussian")),
    Field("tau", non_negative, 0.0, repr),
    Field("dz", count),
    Field("hidden", counts, [256, 128], fmt_ints),
    Field("weight_std", positive, 0.2, repr),
    Field("data"),
    Field("epochs", count),
    Field("batch_size", count, 64),
    Field("learning_rate", positive, 1e-4, repr),
    Field("grad_clip", positive, 100.0, repr),
    Field("seed", int, 0),
)


class TrainCommand(Command):
    name = "train"
    help = "train a VAE from a key-value config file"
    repeatable = ("set",)
    fields = (
        Field("config", default=None, kind=IN_PATH, help="key = value config file"),
        Field("set", lambda s: [v for v in s.split(";") if v], [], ";".join,
              help="override a config entry, e.g. --set epochs=5 (repeatable)"),
        Field("checkpoint", default="model.ckpt", kind=OUT_PATH, help="checkpoint output"),
        Field("log", default="train_log.csv", kind=OUT_PATH, help="per-epoch CSV log"),
    )

    def run(self, config):
        values, sources = _parse_kv_file(config["config"]) if config["config"] else ({}, {})
        for item in config["set"]:
            key, sep, value = item.partition("=")
            if not sep:
                raise DomainError(f"--set: expected key=value, got {item!r}")
            values[key.strip()] = value.strip()
            sources[key.strip()] = "--set"
        tc = parse_fields(_TRAIN_FIELDS, values,
                          lambda key: sources.get(key, config["config"] or "--set"))

        dataset = parse_spec(tc["data"], tc["seed"])
        prior = (TiltedPrior.fit(tc["tau"], tc["dz"]) if tc["prior"] == "tilted"
                 else StandardGaussian())
        model = build_model(
            RngStream(tc["seed"], stream=0), dataset.d_x, tc["dz"], prior,
            hidden=tuple(tc["hidden"]), weight_std=tc["weight_std"],
        )
        train_config = TrainConfig(
            epochs=tc["epochs"], batch_size=tc["batch_size"],
            learning_rate=tc["learning_rate"], grad_clip=tc["grad_clip"],
            seed=tc["seed"],
        )
        result = train(model, dataset, train_config)
        save_checkpoint(result.model, config["checkpoint"], z_bar=result.z_bar)
        with open(config["log"], "w") as fh:
            fh.write("epoch,recon,kld\n")
            for i, (recon, kld) in enumerate(result.history, 1):
                fh.write(f"{i},{repr(recon)},{repr(kld)}\n")
        last = result.history[-1]
        print(f"epochs={tc['epochs']} final recon={last[0]!r} kld={last[1]!r}")
        print(f"z_bar = {result.z_bar!r}")
        if tc["prior"] == "tilted":
            print(f"gamma = {prior.gamma!r} (z_bar > gamma: {result.z_bar > prior.gamma})")
        # Fold the resolved training config into the manifest for replay.
        self.extra_manifest = {f"train.{f.key}": f.fmt(tc[f.key]) for f in _TRAIN_FIELDS}
        return {"checkpoint": config["checkpoint"], "log": config["log"]}, tc["seed"]


class ScoreCommand(Command):
    name = "score"
    help = "score a dataset: reconstruction error plus divergence term per sample"
    fields = (
        Field("model", kind=IN_PATH, help="checkpoint path"),
        Field("data", help="data spec (see tiltvae.data.parse_spec)"),
        Field("draws", int, 0, help="latent draws for the averaged variant (0 = deterministic)"),
        Field("seed", int, 0, help="seed for dataset generation and sampling"),
        Field("out", default="scores.csv", kind=OUT_PATH, help="output CSV"),
    )

    def run(self, config):
        model, _ = load_checkpoint(config["model"])
        dataset = parse_spec(config["data"], config["seed"])
        recon, kld = score_arrays(model, dataset.samples, config["draws"],
                                  RngStream(config["seed"], stream=11))
        scores = recon + kld
        if not np.isfinite(scores).all():
            raise NumericalError(f"{config['model']}: the model gives a non-finite score for "
                                 f"sample {np.argmin(np.isfinite(scores))}")
        write_scores_csv(config["out"], recon, kld, dataset.tag)
        mean = float(np.mean(scores))
        print(f"scored {dataset.n} samples, mean score {mean!r}")
        return {"scores": config["out"]}, config["seed"]


class RocCommand(Command):
    name = "roc"
    help = "ROC curve and AUROC from two score CSVs"
    fields = (
        Field("in_scores", kind=IN_PATH, help="in-distribution score CSV"),
        Field("out_scores", kind=IN_PATH, help="out-of-distribution score CSV"),
        Field("out", default="roc.csv", kind=OUT_PATH, help="ROC points CSV"),
        Field("summary", default="roc_summary.json", kind=OUT_PATH, help="one-line AUROC JSON"),
    )

    def run(self, config):
        in_s = read_scores_csv(config["in_scores"])
        out_s = read_scores_csv(config["out_scores"])
        curve = roc(in_s, out_s)
        curve.to_csv(config["out"])
        with open(config["summary"], "w") as fh:
            fh.write(curve.summary_json(in_s.size, out_s.size))
            fh.write("\n")
        print(f"auroc = {curve.auroc!r} (n_in={in_s.size}, n_out={out_s.size})")
        return {"roc": config["out"], "summary": config["summary"]}, None


class SampleCommand(Command):
    name = "sample"
    help = "draw latents (and decoded samples when a model is given)"
    fields = (
        Field("model", default=None, kind=IN_PATH, help="checkpoint path (optional)"),
        Field("tau", float, None, repr, help="tilt (when no model is given)"),
        Field("dz", int, None, help="latent dimension (when no model is given)"),
        Field("zbar", float, None, repr, help="radial mean of the aggregated posterior"),
        Field("sampler", choice("posterior", "prior"), "posterior",
              help="posterior (radius x direction) or prior (rejection)"),
        Field("n", int, 100, help="number of draws"),
        Field("seed", int, 0, help="rng seed"),
        Field("out", default="latents.csv", kind=OUT_PATH, help="latent CSV"),
        Field("decoded", default="samples.csv", kind=OUT_PATH,
              help="decoded CSV (model runs only)"),
    )

    def run(self, config):
        model = None
        if config["model"] is not None:
            model, ckpt_zbar = load_checkpoint(config["model"])
            d_z = model.d_z
            tau = model.prior.tau
            zbar = config["zbar"] if config["zbar"] is not None else ckpt_zbar
        else:
            if config["dz"] is None:
                raise DomainError("sample needs --model or --dz")
            d_z = config["dz"]
            tau = config["tau"] if config["tau"] is not None else 0.0
            zbar = config["zbar"]
        rng = RngStream(config["seed"], stream=21)
        if config["sampler"] == "posterior":
            if zbar is None:
                raise DomainError("posterior sampler needs --zbar (or a checkpoint that stores it)")
            latents = sample_model_latents(rng, zbar, d_z, config["n"])
        else:
            prior = (model.prior if model is not None and model.is_tilted
                     else TiltedPrior.fit(tau, d_z))
            latents = sample_tilted_prior_batch(rng, prior, config["n"])
        save_latents_csv(config["out"], latents)
        outputs = {"latents": config["out"]}
        if model is not None:
            decoded = np.clip(decode(model, latents), 0.0, 1.0)
            save_latents_csv(config["decoded"], decoded)
            outputs["decoded"] = config["decoded"]
        print(f"wrote {config['n']} draws ({config['sampler']} sampler)")
        return outputs, config["seed"]


class BenchCommand(Command):
    name = "bench"
    help = "scoring throughput: deterministic single pass vs draw-averaged"
    fields = (
        Field("model", kind=IN_PATH, help="checkpoint path"),
        Field("data", help="data spec"),
        Field("draws", int, 256, help="draws for the averaged variant"),
        Field("repeat", count, 3, help="timing repeats"),
        Field("seed", int, 0, help="seed"),
        Field("out", default="bench.csv", kind=OUT_PATH, help="timings CSV"),
    )

    def run(self, config):
        model, _ = load_checkpoint(config["model"])
        dataset = parse_spec(config["data"], config["seed"])
        x = dataset.samples
        rng = RngStream(config["seed"], stream=31)
        rows = []
        for mode, draws in (("single", 0), (f"avg{config['draws']}", config["draws"])):
            score_arrays(model, x, draws, rng)  # warm-up pass, excluded from timing
            for rep in range(config["repeat"]):
                t0 = time.perf_counter()
                score_arrays(model, x, draws, rng)
                dt = time.perf_counter() - t0
                rows.append((mode, rep, dt, dataset.n / dt))
        with open(config["out"], "w") as fh:
            fh.write("mode,repeat,seconds,images_per_second\n")
            for mode, rep, dt, ips in rows:
                fh.write(f"{mode},{rep},{repr(dt)},{repr(ips)}\n")
        single = [r[3] for r in rows if r[0] == "single"]
        avg = [r[3] for r in rows if r[0] != "single"]
        print(f"single-pass: mean {np.mean(single):.1f} img/s, min {min(single):.1f}")
        print(f"{config['draws']}-draw:  mean {np.mean(avg):.1f} img/s, min {min(avg):.1f}")
        print(f"throughput ratio (single / averaged): {np.mean(single) / np.mean(avg):.1f}")
        return {"timings": config["out"]}, config["seed"]


COMMANDS = {
    cmd.name: cmd
    for cmd in (
        GammaCommand(), KldTableCommand(), SweepCommand(), TrainCommand(),
        ScoreCommand(), RocCommand(), SampleCommand(), BenchCommand(),
    )
}


def _write_manifest(path, command, config_strings, outputs, seed, duration, extra=None):
    with open(path, "w") as fh:
        fh.write(f"command = {command}\n")
        fh.write(f"version = {__version__}\n")
        fh.write(f"seed = {'' if seed is None else seed}\n")
        fh.write(f"duration_s = {duration:.6f}\n")
        for key in sorted(config_strings):
            fh.write(f"config.{key} = {config_strings[key]}\n")
        for key in sorted(extra or {}):
            fh.write(f"{key} = {(extra or {})[key]}\n")
        for key in sorted(outputs):
            fh.write(f"output.{key} = {outputs[key]}\n")


def _execute(command, config, manifest_path):
    """Run the command, write its manifest, then print what it printed: a
    stdout that cannot be written to still leaves a complete, replayable run."""
    command.exit_code = 0
    command.extra_manifest = {}
    for f in command.fields:
        if f.kind == OUT_PATH and config[f.key]:
            os.makedirs(os.path.dirname(config[f.key]) or ".", exist_ok=True)
    held = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(held):
        outputs, seed = command.run(config)
    duration = time.perf_counter() - t0
    if manifest_path is None:
        first = outputs[sorted(outputs)[0]]
        manifest_path = os.path.join(os.path.dirname(first), f"{command.name}.manifest")
    _write_manifest(
        manifest_path, command.name, command.format_config(config), outputs,
        seed, duration, extra=command.extra_manifest,
    )
    sys.stdout.write(f"{held.getvalue()}manifest: {manifest_path}\n")
    sys.stdout.flush()
    return command.exit_code


def _replay(manifest_path, out_dir):
    entries, _ = _parse_kv_file(manifest_path)
    name = entries.get("command")
    if name not in COMMANDS:
        raise DomainError(f"{manifest_path}: unknown command {name!r}")
    command = COMMANDS[name]
    # Empty values stand for None; keys of retired options are ignored.
    keys = {f.key for f in command.fields}
    strings = {k[len("config."):]: v for k, v in entries.items()
               if k.startswith("config.") and k[len("config."):] in keys and v != ""}
    os.makedirs(out_dir, exist_ok=True)
    config = command.config(
        strings, lambda key: f"{manifest_path}: config.{key}",
        lambda kind, path: os.path.join(out_dir, os.path.basename(path))
        if kind == OUT_PATH else path)
    if name == "train":
        # Replays must not depend on the original config file's continued
        # existence: rebuild the overrides from the recorded resolved values.
        config["config"] = None
        config["set"] = [f"{k[len('train.'):]}={v}" for k, v in entries.items()
                         if k.startswith("train.")]
    return _execute(command, config, os.path.join(out_dir, f"{name}.manifest"))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser():
    """The argument parser, built once per process; each parse_args call
    still returns a fresh namespace."""
    parser = _Parser(prog="tiltvae", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS.values():
        command.add_arguments(sub)
    replay = sub.add_parser("replay", help="re-run a recorded manifest")
    replay.add_argument("manifest")
    replay.add_argument("--out-dir", required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            return _replay(args.manifest, args.out_dir)
        command = COMMANDS[args.command]
        strings = {f.key: ";".join(raw) if isinstance(raw, list) else raw
                   for f in command.fields if (raw := getattr(args, f.key)) is not None}
        config = command.config(strings, _flag,
                                lambda kind, path: os.path.abspath(path))
        return _execute(command, config, args.manifest)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, IdxFormatError, NumericalError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            # Point stdout at devnull, so that flushing it at exit does not fail again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 3


if __name__ == "__main__":
    sys.exit(main())
