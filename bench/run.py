"""The tiltvae benchmark: one workload per run, driven through the CLI.

    python3 bench/run.py --workload desk|sweep --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--size tiny]   # every metric, with its unit

A run sets up its inputs (several times; the median is ``setup_s``), repeats
the workload's unit of CLI commands for about ``--seconds``, checks every
unit's outputs outside the timed window, and prints one JSON object as its
last line: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1`` the run
first times untraced units for half the run length, then installs the call
wrappers from tracer.py and times traced units for the other half; the
metrics are the per-layer ones, including the tracing overhead.

See README.md in this directory for the workloads and metrics.
"""

import os

# One BLAS thread: with the default threading the spread between repeats of
# a short training run was several times larger on a 2-CPU machine. Set in
# this process only, before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOAD_METRICS, WORKLOADS, Runner, best_times  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 7  # the acceptance suite's desk-run seed
HELD_OUT_SEED = 20211130  # kept out of tuning; use it to confirm a claimed gain
SETUP_REPEATS = 5


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs for the self-test")
    return p.parse_args(argv)


def environment():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def cold_import():
    """Import the CLI module in a fresh interpreter, so that work done at
    import time counts toward set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import tiltvae.cli"], cwd=ROOT, env=env,
                   check=True, timeout=120, stdout=subprocess.DEVNULL)


def timed_units(workload, runner, ctx, budget_s, out_root, label, tracer=None, min_passes=1):
    """Run passes over the workload's parts until about ``budget_s`` seconds
    of them have run, and at least ``min_passes``; check each part's outputs
    after it.
    Only whole passes run, so that every part is repeated as often as the
    others and per-pass counts are exact. A workload whose unit is one part
    repeats the whole unit.

    With a tracer, its wrappers are installed for the units only, so the
    checks' own library calls are not recorded."""
    units, spent, passes = [], 0.0, 0
    while True:
        for part in workload.parts:
            out = out_root / f"{label}{len(units)}"
            out.mkdir(parents=True)
            if tracer is not None:
                tracer.run_id = out.name
                tracer.install()
                runner.tracer = tracer
            try:
                u = workload.unit(runner, ctx, out, part)
            finally:
                if tracer is not None:
                    runner.tracer = None
                    tracer.uninstall()
            spent += u.wall_s
            units.append(u)
            workload.check(runner, ctx, out, u)
            shutil.rmtree(out)
        passes += 1
        # Stop once another pass would end more than half a pass past budget.
        if passes >= min_passes and spent >= budget_s - 0.5 * spent / passes:
            return units


def _medians(metrics):
    """{name: (unit, samples)} -> {name: {"value": median, "unit": unit}}."""
    return {name: {"value": statistics.median(vals), "unit": unit}
            for name, (unit, vals) in metrics.items() if vals}


def _with_units(values):
    return {name: (WORKLOAD_METRICS[name], vals) for name, vals in values.items()}


def run(args, work):
    from tiltvae.cli import main as cli_main

    workload = WORKLOADS[args.workload](args.size, args.seed)
    runner = Runner(cli_main)
    details = {"workload": args.workload, "seed": args.seed, "size": args.size}

    setups, ctx = [], None
    for i in range(1 if args.trace else SETUP_REPEATS):
        d = work / f"setup{i}"
        d.mkdir(parents=True)
        t0 = time.perf_counter()
        cold_import()
        ctx = workload.setup(runner, d)
        setups.append(time.perf_counter() - t0)

    if not args.trace:
        # Two passes at least, so that every command has a second repeat to
        # take its fastest time from, even when a slow spell stretches the
        # first pass of a long workload.
        units = timed_units(workload, runner, ctx, args.seconds, work, "unit", min_passes=2)
        best = best_times(units)
        metrics = {
            "setup_s": ("s", setups),
            "wall_s": ("s", [sum(best.values())]),
            "peak_rss_mb": ("MB", [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]),
            "ops_ok_frac": ("1", [1.0 - len(runner.failures) / runner.attempted]),
        }
        out = _medians(metrics)
        details["units"] = len(units)
        details["command_s"] = {k: [u.times[k] for u in units if k in u.times] for k in best}
        details["workload_metrics"] = _medians(_with_units(workload.metrics(units, best)))
    else:
        from layers import TARGETS, busy_shares, layer_metrics
        from tracer import Tracer

        half = 0.5 * args.seconds
        plain = timed_units(workload, runner, ctx, half, work, "plain")
        tracer = Tracer(TARGETS)
        traced = timed_units(workload, runner, ctx, half, work, "traced", tracer)
        passes = len(traced) // len(workload.parts)
        plain_best = best_times(plain)
        overhead = sum(best_times(traced).values()) - sum(plain_best.values())
        out, absent = layer_metrics(tracer, passes, sum(u.wall_s for u in traced), overhead)
        details["busy_shares"] = busy_shares(out)
        # The workload's own metrics, from the untraced units of this run.
        own = _medians(_with_units(workload.metrics(plain, plain_best)))
        for name, unit in WORKLOAD_METRICS.items():
            out[name] = own.get(name, {"value": 0.0, "unit": unit})
            if name not in own:
                absent[name] = f"not measured by the {args.workload} workload"
        details["traced_passes"] = passes
        details["absent"] = absent
        details["self_s"] = {k: st.self_s / passes for k, st in tracer.stats.items()}
        span_dir = WORK / "spans"
        span_dir.mkdir(parents=True, exist_ok=True)
        span_file = span_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(span_file)
        details["spans"] = str(span_file.relative_to(ROOT))

    details["failures"] = runner.failures
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": out,
    }
    return details, result


def report(args):
    """Run every workload untraced and traced; print each metric with its unit."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", repr(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                print(f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                      f"missing {missing}, extra {extra}")
                ok = False
            ok = ok and result["correct"]
            print(f"# {name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, v in result["metrics"].items():
                print(f"{name:6s} {metric:42s} {v['value']:>16.6g} {v['unit']}")
            if not result["correct"]:
                print(lines[-2])
    return 0 if ok else 1


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "tiltvae" / "cli.py").is_file():
        print(f"error: no tiltvae sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tiltvae

    if Path(tiltvae.__file__).resolve().parent != SRC / "tiltvae":
        print(f"error: imported tiltvae from {tiltvae.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return report(args)

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        details, result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"env": environment(), "held_out_seed": HELD_OUT_SEED}))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
