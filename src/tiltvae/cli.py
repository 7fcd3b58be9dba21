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
                      grid_points, int_ranges, non_negative, non_negative_int, parse_fields,
                      positive)
from .data import parse_spec, place_spec_input, spec_input
from .errors import ConvergenceError, DomainError, NumericalError
from .ood import read_scores_csv, roc, score_arrays, write_scores_csv
from .sampler import (
    rng_stream,
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

class Command:
    """One subcommand: its option fields plus a runner over resolved config."""

    name = ""
    help = ""
    fields = ()
    outputs = {}  # {path field key: output name} of every file a run may write

    def add_arguments(self, sub):
        # Each option appends, so that main can refuse one given twice.
        p = sub.add_parser(self.name, help=self.help, allow_abbrev=False)
        for f in self.fields:
            p.add_argument(_flag(f.key), dest=f.key, action="append",
                           help=f.help + (" (required)" if f.default is REQUIRED else ""))
        p.add_argument("--manifest", action="append",
                       help="run manifest path (default: <command>.manifest next to the outputs)")
        return p

    def config(self, strings, where, place):
        """Config from {key: raw text} through parse_fields; place(kind, path)
        settles each input and output path, defaults included, and the file
        a --data spec reads."""
        config = parse_fields(self.fields, strings, where)
        for f in self.fields:
            if f.kind != VAL and config[f.key] is not None:
                config[f.key] = place(f.kind, config[f.key])
        if config.get("data") is not None:
            config["data"] = place_spec_input(config["data"], lambda path: place(IN_PATH, path))
        return config

    def format_config(self, config):
        return {f.key: "" if config[f.key] is None else f.fmt(config[f.key])
                for f in self.fields}

    def written(self, config):
        """The part of ``outputs`` that this run writes."""
        return self.outputs

    def run(self, config):
        """Execute; returns the exit code."""
        raise NotImplementedError


def _flag(key):
    return "--" + key.replace("_", "-")


class GammaCommand(Command):
    name = "gamma"
    help = "solve for the divergence-minimizing posterior norm"
    fields = (
        Field("tau", non_negative, fmt=repr, help="tilt parameter"),
        Field("dz", count, help="latent dimension"),
        Field("out", default="gamma.csv", kind=OUT_PATH, help="output CSV"),
    )
    outputs = {"out": "table"}

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
        return 0


class KldTableCommand(Command):
    name = "kld-table"
    help = "tabulate exact and quadratic KLD over a mu grid"
    fields = (
        Field("tau", non_negative, fmt=repr, help="tilt parameter"),
        Field("dz", count, help="latent dimension"),
        Field("mu_max", positive, 20.0, repr, help="largest posterior-mean norm"),
        Field("points", grid_points, 200, help="grid size"),
        Field("out", default="kld_table.csv", kind=OUT_PATH, help="output CSV"),
    )
    outputs = {"out": "table"}

    def run(self, config):
        prior = TiltedPrior.fit(config["tau"], config["dz"])
        grid = np.linspace(0.0, config["mu_max"], config["points"])
        with open(config["out"], "wb") as fh:
            fh.write(b"mu_norm,exact,quadratic\n")
            write_rows(fh, np.column_stack([grid, exact_kld(prior, grid),
                                            quadratic_kld(prior, grid)]))
        print(f"wrote {config['points']} rows (gamma={prior.gamma!r})")
        return 0


class SweepCommand(Command):
    name = "sweep"
    help = "margin sweep of exact minus quadratic KLD over a (d_z, tau) grid"
    fields = (
        Field("d_grid", int_ranges, fmt=fmt_ints, help="latent dims, e.g. 2,5,10 or 2..20"),
        Field("w_grid", int_ranges, fmt=fmt_ints,
              help="tilt exponents (tau = 1.2^w), e.g. -20..25"),
        Field("points", grid_points, 1000, help="mu grid size"),
        Field("mu_max", positive, 200.0, repr, help="largest posterior-mean norm"),
        Field("out", default="sweep.csv", kind=OUT_PATH, help="output CSV"),
    )
    outputs = {"out": "report"}

    def run(self, config):
        report = verify_bound_sweep(
            config["d_grid"], config["w_grid"], config["points"], config["mu_max"]
        )
        report.to_csv(config["out"])
        n_viol, n_err = len(report.violations), len(report.errors)
        print(f"{len(report.cells)} cells, {n_viol} violations, {n_err} errors")
        # Signal in-band rather than raising: the report itself is the artifact.
        return 1 if n_viol or n_err else 0


def _parse_kv_file(path):
    """({key: value}, {key: "PATH:LINE"}) of a `key = value` text file."""
    values, sources = {}, {}
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: {exc}") from None
    for lineno, line in enumerate(text.split("\n"), 1):
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


class TrainCommand(Command):
    name = "train"
    help = "train a VAE; options beat the values of an optional config file"
    fields = (
        Field("config", default=None, kind=IN_PATH, help="key = value file of the values below"),
        Field("prior", choice("tilted", "gaussian"), help="tilted or gaussian"),
        Field("tau", non_negative, 0.0, repr, help="tilt of the tilted prior"),
        Field("dz", count, help="latent dimension"),
        Field("hidden", counts, [256, 128], fmt_ints, help="hidden widths, e.g. 256,128 or ''"),
        Field("weight_std", positive, 0.2, repr, help="initial weight scale"),
        Field("data", help="training data spec (see tiltvae.data.parse_spec)"),
        Field("epochs", count, help="passes over the data"),
        Field("batch_size", count, 64, help="minibatch rows"),
        Field("learning_rate", positive, 1e-4, repr, help="Adam step size"),
        Field("grad_clip", positive, 100.0, repr, help="global gradient-norm clip"),
        Field("seed", int, 0, help="seed for data, initialization and training"),
        Field("checkpoint", default="model.ckpt", kind=OUT_PATH, help="checkpoint output"),
        Field("log", default="train_log.csv", kind=OUT_PATH, help="per-epoch CSV log"),
    )
    outputs = {"checkpoint": "checkpoint", "log": "log"}

    def run(self, config):
        dataset = parse_spec(config["data"], rng_stream(config["seed"], 101))
        prior = (TiltedPrior.fit(config["tau"], config["dz"]) if config["prior"] == "tilted"
                 else StandardGaussian())
        model = build_model(rng_stream(config["seed"], 0), dataset.d_x, config["dz"], prior,
                            hidden=tuple(config["hidden"]), weight_std=config["weight_std"])
        keys = ("epochs", "batch_size", "learning_rate", "grad_clip")
        history = train(model, dataset, TrainConfig(**{key: config[key] for key in keys}),
                        rng_stream(config["seed"], 1))
        save_checkpoint(model, config["checkpoint"])
        with open(config["log"], "w") as fh:
            fh.write("epoch,recon,kld\n")
            for i, (recon, kld) in enumerate(history, 1):
                fh.write(f"{i},{repr(recon)},{repr(kld)}\n")
        last = history[-1]
        print(f"epochs={config['epochs']} final recon={last[0]!r} kld={last[1]!r}")
        print(f"z_bar = {model.z_bar!r}")
        if config["prior"] == "tilted":
            print(f"gamma = {prior.gamma!r} (z_bar > gamma: {model.z_bar > prior.gamma})")
        return 0


class ScoreCommand(Command):
    name = "score"
    help = "score a dataset: reconstruction error plus divergence term per sample"
    fields = (
        Field("model", kind=IN_PATH, help="checkpoint path"),
        Field("data", help="data spec (see tiltvae.data.parse_spec)"),
        Field("draws", non_negative_int, 0,
              help="latent draws for the averaged variant (0 = deterministic)"),
        Field("seed", int, 0, help="seed for dataset generation and sampling"),
        Field("out", default="scores.csv", kind=OUT_PATH, help="output CSV"),
    )
    outputs = {"out": "scores"}

    def run(self, config):
        model = load_checkpoint(config["model"])
        dataset = parse_spec(config["data"], rng_stream(config["seed"], 101))
        recon, kld = score_arrays(model, dataset.samples, config["draws"],
                                  rng_stream(config["seed"], 11))
        scores = recon + kld
        if not np.isfinite(scores).all():
            raise NumericalError(f"{config['model']}: the model gives a non-finite score for "
                                 f"sample {np.argmin(np.isfinite(scores))}")
        write_scores_csv(config["out"], recon, kld, dataset.tag)
        mean = float(np.mean(scores))
        print(f"scored {dataset.n} samples, mean score {mean!r}")
        return 0


class RocCommand(Command):
    name = "roc"
    help = "ROC curve and AUROC from two score CSVs"
    fields = (
        Field("in_scores", kind=IN_PATH, help="in-distribution score CSV"),
        Field("out_scores", kind=IN_PATH, help="out-of-distribution score CSV"),
        Field("out", default="roc.csv", kind=OUT_PATH, help="ROC points CSV"),
        Field("summary", default="roc_summary.json", kind=OUT_PATH, help="one-line AUROC JSON"),
    )
    outputs = {"out": "roc", "summary": "summary"}

    def run(self, config):
        in_s = read_scores_csv(config["in_scores"])
        out_s = read_scores_csv(config["out_scores"])
        curve = roc(in_s, out_s)
        curve.to_csv(config["out"])
        with open(config["summary"], "w") as fh:
            fh.write(curve.summary_json(in_s.size, out_s.size))
            fh.write("\n")
        print(f"auroc = {curve.auroc!r} (n_in={in_s.size}, n_out={out_s.size})")
        return 0


class SampleCommand(Command):
    name = "sample"
    help = "draw latents (and decoded samples when a model is given)"
    fields = (
        Field("model", default=None, kind=IN_PATH, help="checkpoint path (optional)"),
        Field("tau", non_negative, None, repr, help="tilt (when no model is given)"),
        Field("dz", count, None, help="latent dimension (when no model is given)"),
        Field("zbar", positive, None, repr, help="radial mean of the aggregated posterior"),
        Field("sampler", choice("posterior", "prior"), "posterior",
              help="posterior (radius x direction) or prior (rejection)"),
        Field("n", count, 100, help="number of draws"),
        Field("seed", int, 0, help="rng seed"),
        Field("out", default="latents.csv", kind=OUT_PATH, help="latent CSV"),
        Field("decoded", default="samples.csv", kind=OUT_PATH,
              help="decoded CSV (model runs only)"),
    )
    outputs = {"out": "latents", "decoded": "decoded"}

    def config(self, strings, where, place):
        """Refuses an option that the run would ignore."""
        config = super().config(strings, where, place)
        model, prior = config["model"] is not None, config["sampler"] == "prior"
        for key, other, ignored in (("tau", "--model", model), ("dz", "--model", model),
                                    ("zbar", "--sampler prior", prior),
                                    ("tau", "--sampler posterior", not prior)):
            if ignored and config[key] is not None:
                raise DomainError(f"{where(key)}: not used with {other}")
        return config

    def written(self, config):
        return self.outputs if config["model"] is not None else {"out": "latents"}

    def run(self, config):
        model = None
        d_z, tau, zbar = config["dz"], config["tau"] or 0.0, config["zbar"]
        if config["model"] is not None:
            model = load_checkpoint(config["model"])
            d_z, tau = model.d_z, model.prior.tau
            zbar = model.z_bar if zbar is None else zbar
        elif d_z is None:
            raise DomainError("sample needs --model or --dz")
        rng = rng_stream(config["seed"], 21)
        if config["sampler"] == "posterior":
            if zbar is None:
                raise DomainError("posterior sampler needs --zbar (or a checkpoint that stores it)")
            latents = sample_model_latents(rng, zbar, d_z, config["n"])
        else:
            prior = (model.prior if model is not None and model.is_tilted
                     else TiltedPrior.fit(tau, d_z))
            latents = sample_tilted_prior_batch(rng, prior, config["n"])
        save_latents_csv(config["out"], latents)
        if model is not None:
            save_latents_csv(config["decoded"], decode(model, latents))
        print(f"wrote {config['n']} draws ({config['sampler']} sampler)")
        return 0


class BenchCommand(Command):
    name = "bench"
    help = "scoring throughput: deterministic single pass vs draw-averaged"
    fields = (
        Field("model", kind=IN_PATH, help="checkpoint path"),
        Field("data", help="data spec"),
        Field("draws", non_negative_int, 256, help="draws for the averaged variant"),
        Field("repeat", count, 3, help="timing repeats"),
        Field("seed", int, 0, help="seed"),
        Field("out", default="bench.csv", kind=OUT_PATH, help="timings CSV"),
    )
    outputs = {"out": "timings"}

    def run(self, config):
        model = load_checkpoint(config["model"])
        dataset = parse_spec(config["data"], rng_stream(config["seed"], 101))
        x = dataset.samples
        rng = rng_stream(config["seed"], 31)
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
        return 0


COMMANDS = {
    cmd.name: cmd
    for cmd in (
        GammaCommand(), KldTableCommand(), SweepCommand(), TrainCommand(),
        ScoreCommand(), RocCommand(), SampleCommand(), BenchCommand(),
    )
}


def _refuse_overwrites(command, config, written, manifest_path):
    """Refuses a run that would write one file twice or over one of its
    inputs (a path option, or the file a --data spec reads), as run or as
    replayed: replay writes each output into one directory under its file
    name, and the manifest there as COMMAND.manifest."""
    inputs = {f.key: config[f.key] for f in command.fields if f.kind == IN_PATH}
    if config.get("data") is not None:
        inputs["data"] = spec_input(config["data"])
    owners = {os.path.realpath(path): f"the {_flag(key)} input"
              for key, path in inputs.items() if path is not None}
    names = {f"{command.name}.manifest": "the manifest"}
    for key, path in [("manifest", manifest_path), *((key, config[key]) for key in written)]:
        real, name = os.path.realpath(path), os.path.basename(path)
        if real in owners:
            raise DomainError(f"{_flag(key)}: {path} is also {owners[real]}")
        owners[real] = f"the {_flag(key)} file"
        if key in written:
            if name in names:
                raise DomainError(f"{_flag(key)}: file name {name!r} is also that of "
                                  f"{names[name]}, and replay writes both into one directory")
            names[name] = owners[real]


def _execute(command, config, manifest_path):
    """Run the command, write its manifest, then print what it printed: a
    stdout that cannot be written to still leaves a complete, replayable run."""
    written = command.written(config)
    if manifest_path is None:
        first = min(written, key=written.get)  # the output whose name sorts first
        manifest_path = os.path.join(os.path.dirname(config[first]), f"{command.name}.manifest")
    _refuse_overwrites(command, config, written, manifest_path)
    for path in [manifest_path, *(config[key] for key in written)]:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    held = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(held):
        exit_code = command.run(config)
    duration = time.perf_counter() - t0
    entries = {f"config.{key}": value for key, value in command.format_config(config).items()}
    entries.update((f"output.{name}", config[key]) for key, name in written.items())
    with open(manifest_path, "w") as fh:
        fh.write(f"command = {command.name}\nversion = {__version__}\n"
                 f"seed = {config.get('seed', '')}\nduration_s = {duration:.6f}\n")
        fh.writelines(f"{key} = {entries[key]}\n" for key in sorted(entries))
    sys.stdout.write(f"{held.getvalue()}manifest: {manifest_path}\n")
    sys.stdout.flush()
    return exit_code


def _replay(manifest_path, out_dir):
    """Re-run a manifest's command from its config.<key> values (train.<key>
    in train manifests written before its settings were options). Keys of
    retired options are ignored; an empty value is None where that is the default."""
    entries, _ = _parse_kv_file(manifest_path)
    name = entries.get("command")
    if name not in COMMANDS:
        raise DomainError(f"{manifest_path}: unknown command {name!r}")
    command = COMMANDS[name]
    fields = {f.key: f for f in command.fields}
    strings = {}
    for entry, value in entries.items():
        prefix, _, key = entry.partition(".")
        if prefix in ("config", "train") and key in fields and (
                value or fields[key].default is not None):
            strings[key] = value
    config = command.config(
        strings, lambda key: f"{manifest_path}: config.{key}",
        lambda kind, path: os.path.join(out_dir, os.path.basename(path))
        if kind == OUT_PATH else path)
    return _execute(command, config, os.path.join(out_dir, f"{name}.manifest"))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser():
    """The argument parser, built once per process; each parse_args call
    still returns a fresh namespace."""
    parser = _Parser(prog="tiltvae", description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS.values():
        command.add_arguments(sub)
    replay = sub.add_parser("replay", help="re-run a recorded manifest", allow_abbrev=False)
    replay.add_argument("manifest")
    replay.add_argument("--out-dir", action="append", required=True)
    return parser


def main(argv=None):
    args = vars(build_parser().parse_args(argv))
    try:
        for key, raw in args.items():
            if isinstance(raw, list):
                if len(raw) > 1:
                    raise DomainError(f"{_flag(key)}: given {len(raw)} times")
                if not isinstance(raw[0], str):
                    # argparse drops a value of "--" ("--tau=--"), leaving an empty list.
                    raise DomainError(f"{_flag(key)}: expected one value")
                args[key] = raw[0]
        if args["command"] == "replay":
            return _replay(args["manifest"], args["out_dir"])
        command = COMMANDS[args["command"]]
        strings = {f.key: args[f.key] for f in command.fields if args[f.key] is not None}
        sources = {}
        if "config" in strings:
            # Options beat train's --config file, which may hold only value fields.
            values, lines = _parse_kv_file(strings["config"])
            bad = sorted(set(values) - {f.key for f in command.fields if f.kind == VAL})
            if bad:
                raise DomainError(f"{lines[bad[0]]}: unrecognized keys {bad}")
            sources = {key: lines[key] for key in values if key not in strings}
            strings = {**values, **strings}
        config = command.config(strings, lambda key: sources.get(key, _flag(key)),
                                lambda kind, path: os.path.abspath(path))
        return _execute(command, config, args["manifest"])
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, NumericalError, MemoryError) as exc:
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
