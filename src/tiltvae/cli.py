"""Command-line surface.

Every invocation writes exactly one run manifest (key = value text) alongside
its outputs, holding the command name, the fully resolved configuration with
all defaults materialized, the seed, the artifact paths and the wall-clock
duration. ``tiltvae replay MANIFEST --out-dir DIR`` re-executes the recorded
command with identical configuration, redirecting artifacts into DIR; all
derived outputs are byte-identical across replays (timings excepted).

Exit codes: 0 success, 1 domain/validation error or non-finite activations or
scores, 2 numerical non-convergence, 3 I/O error.
"""

import argparse
import functools
import os
import sys
import time

import numpy as np

from . import __version__
from .data import IdxFormatError, parse_spec
from .errors import ConvergenceError, DomainError, NumericalError
from .ood import (
    read_scores_csv,
    roc,
    score_arrays,
    score_arrays_averaged,
    score_dataset,
    score_dataset_averaged,
    write_scores_csv,
)
from .sampler import (
    RadialLaw,
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

# Schema value kinds: plain config value, input path (kept on replay), output
# path (redirected into the replay out-dir).
VAL, IN_PATH, OUT_PATH = "val", "in", "out"


def _parse_int_list(text):
    return [int(v) for v in text.split(",") if v != ""]


def _parse_range_list(text):
    """Comma list of ints, with a..b range syntax."""
    out = []
    for part in text.split(","):
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        elif part != "":
            out.append(int(part))
    return out


def _fmt_int_list(vals):
    return ",".join(str(v) for v in vals)


class Command:
    """One subcommand: an option schema plus a runner over resolved config."""

    name = ""
    help = ""
    # schema: list of (key, kind, parse, fmt, default, help); default REQUIRED
    # sentinel means the option must be given.
    REQUIRED = object()
    schema = ()

    repeatable = ()

    def add_arguments(self, sub):
        p = sub.add_parser(self.name, help=self.help)
        for key, _kind, _parse, _fmt, default, help_text in self.schema:
            flag = "--" + key.replace("_", "-")
            if key in self.repeatable:
                p.add_argument(flag, dest=key, action="append", default=None,
                               help=help_text)
            else:
                p.add_argument(flag, dest=key, required=default is Command.REQUIRED,
                               default=None, help=help_text)
        p.add_argument("--manifest", dest="manifest", default=None,
                       help="run manifest path (default: <command>.manifest next to the outputs)")
        return p

    def resolve(self, args):
        """Materialize every default; parse and absolutize paths."""
        config = {}
        for key, kind, parse, _fmt, default, _help in self.schema:
            raw = getattr(args, key)
            if raw is None:
                if default is Command.REQUIRED:
                    raise DomainError(f"missing required option --{key.replace('_', '-')}")
                value = default
            elif isinstance(raw, str):
                value = parse(raw)
            elif key in self.repeatable:
                value = list(raw)
            else:
                value = raw
            if kind in (IN_PATH, OUT_PATH) and value is not None:
                value = os.path.abspath(value)
            config[key] = value
        return config

    def format_config(self, config):
        out = {}
        for key, _kind, _parse, fmt, _default, _help in self.schema:
            value = config[key]
            out[key] = "" if value is None else fmt(value)
        return out

    def parse_config(self, strings, out_dir):
        """Config from recorded strings, every output path (defaults included)
        moved into out_dir."""
        config = {}
        for key, kind, parse, _fmt, default, _help in self.schema:
            raw = strings.get(key, "")
            if raw:
                value = parse(raw)
            else:
                value = None if default is Command.REQUIRED else default
            if kind == OUT_PATH and value is not None:
                value = os.path.join(out_dir, os.path.basename(value))
            config[key] = value
        return config

    def run(self, config):
        """Execute; returns ({output_name: path}, seed_or_None)."""
        raise NotImplementedError


def _opt(key, kind, parse, fmt, default, help_text):
    return (key, kind, parse, fmt, default, help_text)


def _float_opt(key, default, help_text, kind=VAL):
    return _opt(key, kind, float, repr, default, help_text)


def _int_opt(key, default, help_text, kind=VAL):
    return _opt(key, kind, int, str, default, help_text)


def _str_opt(key, default, help_text, kind=VAL):
    return _opt(key, kind, str, str, default, help_text)


def _path_opt(key, kind, default, help_text):
    return _opt(key, kind, str, str, default, help_text)


class GammaCommand(Command):
    name = "gamma"
    help = "solve for the divergence-minimizing posterior norm"
    schema = (
        _float_opt("tau", Command.REQUIRED, "tilt parameter"),
        _int_opt("dz", Command.REQUIRED, "latent dimension"),
        _path_opt("out", OUT_PATH, "gamma.csv", "output CSV"),
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
    schema = (
        _float_opt("tau", Command.REQUIRED, "tilt parameter"),
        _int_opt("dz", Command.REQUIRED, "latent dimension"),
        _float_opt("mu_max", 20.0, "largest posterior-mean norm"),
        _int_opt("points", 200, "grid size"),
        _path_opt("out", OUT_PATH, "kld_table.csv", "output CSV"),
    )

    def run(self, config):
        if config["points"] < 2 or not (np.isfinite(config["mu_max"]) and config["mu_max"] > 0):
            raise DomainError("kld-table needs points >= 2 and a finite mu-max > 0")
        prior = TiltedPrior.fit(config["tau"], config["dz"])
        grid = np.linspace(0.0, config["mu_max"], config["points"])
        rows = zip(grid.tolist(), exact_kld(prior, grid).tolist(),
                   quadratic_kld(prior, grid).tolist())
        with open(config["out"], "w") as fh:
            fh.write("mu_norm,exact,quadratic\n")
            for m, exact, quad in rows:
                fh.write(f"{m!r},{exact!r},{quad!r}\n")
        print(f"wrote {config['points']} rows (gamma={prior.gamma!r})")
        return {"table": config["out"]}, None


class SweepCommand(Command):
    name = "sweep"
    help = "margin sweep of exact minus quadratic KLD over a (d_z, tau) grid"
    schema = (
        _opt("d_grid", VAL, _parse_range_list, _fmt_int_list, Command.REQUIRED,
             "latent dims, e.g. 2,5,10 or 2..20"),
        _opt("w_grid", VAL, _parse_range_list, _fmt_int_list, Command.REQUIRED,
             "tilt exponents (tau = 1.2^w), e.g. -20..25"),
        _int_opt("points", 1000, "mu grid size"),
        _float_opt("mu_max", 200.0, "largest posterior-mean norm"),
        _path_opt("out", OUT_PATH, "sweep.csv", "output CSV"),
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
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DomainError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            values[key.strip()] = value.strip()
    return values


_TRAIN_KEYS = {
    "prior": (str, Command.REQUIRED),
    "tau": (float, 0.0),
    "dz": (int, Command.REQUIRED),
    "hidden": (_parse_int_list, [256, 128]),
    "weight_std": (float, 0.2),
    "data": (str, Command.REQUIRED),
    "epochs": (int, Command.REQUIRED),
    "batch_size": (int, 64),
    "learning_rate": (float, 1e-4),
    "grad_clip": (float, 100.0),
    "seed": (int, 0),
}


def _resolve_train_config(values):
    config = {}
    for key, (parse, default) in _TRAIN_KEYS.items():
        if key in values:
            raw = values[key]
            config[key] = parse(raw) if isinstance(raw, str) else raw
        elif default is Command.REQUIRED:
            raise DomainError(f"missing training config key {key!r}")
        else:
            config[key] = default
    unknown = set(values) - set(_TRAIN_KEYS)
    if unknown:
        raise DomainError(f"unknown training config keys {sorted(unknown)}")
    if config["prior"] not in ("tilted", "gaussian"):
        raise DomainError(f"prior must be tilted or gaussian, got {config['prior']!r}")
    return config


class TrainCommand(Command):
    name = "train"
    help = "train a VAE from a key-value config file"
    repeatable = ("set",)
    schema = (
        _path_opt("config", IN_PATH, None, "key = value config file"),
        _opt("set", VAL, lambda s: [v for v in s.split(";") if v], ";".join, [],
             "override a config entry, e.g. --set epochs=5 (repeatable)"),
        _path_opt("checkpoint", OUT_PATH, "model.ckpt", "checkpoint output"),
        _path_opt("log", OUT_PATH, "train_log.csv", "per-epoch CSV log"),
    )

    def run(self, config):
        values = _parse_kv_file(config["config"]) if config["config"] else {}
        for item in config["set"]:
            key, sep, value = item.partition("=")
            if not sep:
                raise DomainError(f"--set expects key=value, got {item!r}")
            values[key.strip()] = value.strip()
        tc = _resolve_train_config(values)

        dataset = parse_spec(tc["data"], tc["seed"])
        if tc["prior"] == "tilted":
            prior = TiltedPrior.fit(tc["tau"], tc["dz"])
        else:
            prior = StandardGaussian()
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
        self.extra_manifest = {f"train.{k}": ("" if v is None else
                               _fmt_int_list(v) if isinstance(v, list) else repr(v)
                               if isinstance(v, float) else str(v))
                               for k, v in tc.items()}
        return {"checkpoint": config["checkpoint"], "log": config["log"]}, tc["seed"]


class ScoreCommand(Command):
    name = "score"
    help = "score a dataset: reconstruction error plus divergence term per sample"
    schema = (
        _path_opt("model", IN_PATH, Command.REQUIRED, "checkpoint path"),
        _str_opt("data", Command.REQUIRED, "data spec (see tiltvae.data.parse_spec)"),
        _int_opt("draws", 0, "latent draws for the averaged variant (0 = deterministic)"),
        _int_opt("seed", 0, "seed for dataset generation and sampling"),
        _path_opt("out", OUT_PATH, "scores.csv", "output CSV"),
    )

    def run(self, config):
        model, _ = load_checkpoint(config["model"])
        dataset = parse_spec(config["data"], config["seed"])
        if config["draws"] > 0:
            rng = RngStream(config["seed"], stream=11)
            scored = score_dataset_averaged(model, rng, dataset, config["draws"])
        else:
            scored = score_dataset(model, dataset)
        scores = np.array([s.score for s in scored])
        if not np.isfinite(scores).all():
            raise NumericalError(f"{config['model']}: the model gives a non-finite score for "
                                 f"sample {np.argmin(np.isfinite(scores))}")
        write_scores_csv(config["out"], scored, dataset.tag)
        mean = float(np.mean(scores))
        print(f"scored {dataset.n} samples, mean score {mean!r}")
        return {"scores": config["out"]}, config["seed"]


class RocCommand(Command):
    name = "roc"
    help = "ROC curve and AUROC from two score CSVs"
    schema = (
        _path_opt("in_scores", IN_PATH, Command.REQUIRED, "in-distribution score CSV"),
        _path_opt("out_scores", IN_PATH, Command.REQUIRED, "out-of-distribution score CSV"),
        _path_opt("out", OUT_PATH, "roc.csv", "ROC points CSV"),
        _path_opt("summary", OUT_PATH, "roc_summary.json", "one-line AUROC JSON"),
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
    schema = (
        _path_opt("model", IN_PATH, None, "checkpoint path (optional)"),
        _float_opt("tau", None, "tilt (when no model is given)"),
        _int_opt("dz", None, "latent dimension (when no model is given)"),
        _float_opt("zbar", None, "radial mean of the aggregated posterior"),
        _str_opt("sampler", "posterior", "posterior (radius x direction) or prior (rejection)"),
        _int_opt("n", 100, "number of draws"),
        _int_opt("seed", 0, "rng seed"),
        _path_opt("out", OUT_PATH, "latents.csv", "latent CSV"),
        _path_opt("decoded", OUT_PATH, "samples.csv", "decoded CSV (model runs only)"),
    )

    def run(self, config):
        model = None
        if config["model"] is not None:
            model, ckpt_zbar = load_checkpoint(config["model"])
            d_z = model.d_z
            tau = model.prior.tau if model.is_tilted else 0.0
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
            latents = sample_model_latents(rng, RadialLaw(z_bar=zbar), d_z, config["n"])
        elif config["sampler"] == "prior":
            if model is not None and model.is_tilted:
                prior = model.prior
            else:
                prior = TiltedPrior.fit(tau, d_z)
            latents = sample_tilted_prior_batch(rng, prior, config["n"])
        else:
            raise DomainError(f"unknown sampler {config['sampler']!r}")
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
    schema = (
        _path_opt("model", IN_PATH, Command.REQUIRED, "checkpoint path"),
        _str_opt("data", Command.REQUIRED, "data spec"),
        _int_opt("draws", 256, "draws for the averaged variant"),
        _int_opt("repeat", 3, "timing repeats"),
        _int_opt("seed", 0, "seed"),
        _path_opt("out", OUT_PATH, "bench.csv", "timings CSV"),
    )

    def run(self, config):
        model, _ = load_checkpoint(config["model"])
        dataset = parse_spec(config["data"], config["seed"])
        x = dataset.samples
        rng = RngStream(config["seed"], stream=31)
        rows = []
        for mode, fn in (
            ("single", lambda: score_arrays(model, x)),
            (f"avg{config['draws']}", lambda: score_arrays_averaged(model, rng, x, config["draws"])),
        ):
            fn()  # warm-up pass, excluded from timing
            for rep in range(config["repeat"]):
                t0 = time.perf_counter()
                fn()
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
    command.exit_code = 0
    command.extra_manifest = {}
    for key, kind, _parse, _fmt, _default, _help in command.schema:
        if kind == OUT_PATH and config.get(key):
            os.makedirs(os.path.dirname(config[key]) or ".", exist_ok=True)
    t0 = time.perf_counter()
    outputs, seed = command.run(config)
    duration = time.perf_counter() - t0
    if manifest_path is None:
        first = outputs[sorted(outputs)[0]]
        manifest_path = os.path.join(os.path.dirname(first), f"{command.name}.manifest")
    _write_manifest(
        manifest_path, command.name, command.format_config(config), outputs,
        seed, duration, extra=command.extra_manifest,
    )
    print(f"manifest: {manifest_path}")
    return command.exit_code


def _replay(manifest_path, out_dir):
    entries = _parse_kv_file(manifest_path)
    name = entries.get("command")
    if name not in COMMANDS:
        raise DomainError(f"{manifest_path}: unknown command {name!r}")
    command = COMMANDS[name]
    strings = {k[len("config."):]: v for k, v in entries.items() if k.startswith("config.")}
    os.makedirs(out_dir, exist_ok=True)
    config = command.parse_config(strings, out_dir)
    for key, kind, _parse, _fmt, default, _help in command.schema:
        if config.get(key) is None and default is Command.REQUIRED:
            raise DomainError(f"{manifest_path}: missing config.{key}")
    if name == "train":
        # Replays must not depend on the original config file's continued
        # existence: rebuild the overrides from the recorded resolved values.
        config["config"] = None
        config["set"] = [f"{k[len('train.'):]}={v}" for k, v in entries.items()
                         if k.startswith("train.") and v != ""]
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
        config = command.resolve(args)
        return _execute(command, config, args.manifest)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, IdxFormatError, NumericalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
