"""Which library functions the traced run wraps, and the per-layer metrics
derived from what the wrappers record.

The layers are the modules of ``tiltvae``: specfn, tilted, sampler, vae, ood,
data and cli (``errors`` does no work). ``cli`` is timed by the harness around
each ``tiltvae.cli.main`` call; the rest are wrapped where their callers look
them up (see tracer.py).
"""

import statistics

from tracer import COUNT, SPAN, TIMED, Target

# A fit whose solver made this many divergence evaluations ran into the
# gradient-descent step cap (10,000 steps at two evaluations each).
CAPPED_EVALS = 20_000

CLI_COMMANDS = ("train", "score", "roc", "sample", "sweep", "gamma")


def _n_rows(x):
    shape = getattr(x, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) > 1 else 1
    return len(x)


def _grad_step_flops(args, kwargs, result):
    """Matmul FLOPs of one step, computed from the layer widths: per weight
    matrix, 2*b*n_in*n_out forward plus two matmuls of that size backward."""
    model, batch = args[0], args[3]
    weights = model.encoder.weights + model.decoder.weights
    return 6 * len(batch) * sum(w.shape[0] * w.shape[1] for w in weights)


TARGETS = (
    Target("specfn.laguerre_half", "specfn", "laguerre_half", COUNT),
    Target("specfn.log_kummer_m", "specfn", "log_kummer_m", COUNT),
    Target("tilted.exact_kld", "tilted", "exact_kld", COUNT),
    Target("tilted.log_normalizer", "tilted", "log_normalizer", SPAN),
    Target("tilted.fit", "tilted", "TiltedPrior.fit", SPAN, watch="specfn.laguerre_half"),
    Target("tilted.verify_bound_sweep", "tilted", "verify_bound_sweep", SPAN),
    Target("vae.train", "vae", "train", SPAN),
    Target("vae.grad_step", "vae", "grad_step", TIMED, flops=_grad_step_flops),
    Target("vae.encode", "vae", "encode", SPAN, rows=lambda a, k, r: _n_rows(a[1])),
    Target("vae.decode", "vae", "decode", SPAN, rows=lambda a, k, r: _n_rows(a[1])),
    Target("vae.load_checkpoint", "vae", "load_checkpoint", SPAN),
    Target("vae.save_checkpoint", "vae", "save_checkpoint", SPAN),
    Target("sampler.sample_model_latents", "sampler", "sample_model_latents", SPAN,
           rows=lambda a, k, r: _n_rows(r)),
    Target("sampler.sample_tilted_prior_batch", "sampler", "sample_tilted_prior_batch", SPAN,
           rows=lambda a, k, r: _n_rows(r)),
    Target("sampler.save_latents_csv", "sampler", "save_latents_csv", SPAN,
           rows=lambda a, k, r: _n_rows(a[1])),
    Target("ood.score_dataset", "ood", "score_dataset", SPAN, rows=lambda a, k, r: len(r)),
    Target("ood.score_dataset_averaged", "ood", "score_dataset_averaged", SPAN,
           rows=lambda a, k, r: len(r)),
    Target("ood.roc", "ood", "roc", SPAN, rows=lambda a, k, r: len(a[0]) + len(a[1])),
    Target("ood.write_scores_csv", "ood", "write_scores_csv", SPAN),
    Target("ood.read_scores_csv", "ood", "read_scores_csv", SPAN),
    Target("data.parse_spec", "data", "parse_spec", SPAN, rows=lambda a, k, r: r.n),
)


def _percentile_us(durations, q):
    ordered = sorted(durations)
    return 1e6 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer, n_units, traced_wall_s, overhead_s):
    """Per-layer metrics per traced unit (a pass over the workload's parts),
    plus the reasons for any metric whose layer did no work (its value is
    then 0).

    ``traced_wall_s`` is the traced units' total wall time; ``overhead_s`` is
    the traced minus the untraced unit time, each summed over the unit's
    commands from their fastest repeats.
    """
    stats, absent = tracer.stats, dict(tracer.absent)
    out = {}

    def get(name):
        return stats.get(name)

    def put(metric, unit, value, reason=None):
        out[metric] = {"value": float(value), "unit": unit}
        if reason:
            absent.setdefault(metric, reason)

    def calls(name):
        st = get(name)
        put(f"{name}.calls", "count", st.calls / n_units if st else 0,
            None if st and st.calls else f"no calls to {name}")

    def busy(name):
        st = get(name)
        put(f"{name}.busy_s", "s", st.busy / n_units if st else 0,
            None if st and st.calls else f"no calls to {name}")

    def rate(name, metric, unit):
        st = get(name)
        ok = st is not None and st.busy > 0 and st.rows > 0
        put(f"{name}.{metric}", unit, st.rows / st.busy if ok else 0,
            None if ok else f"no rows through {name}")

    for name in ("specfn.laguerre_half", "specfn.log_kummer_m"):
        calls(name)
        busy(name)

    fit = get("tilted.fit")
    calls("tilted.fit")
    busy("tilted.fit")
    evals = fit.inner if fit else []
    put("tilted.fit.evals_per_fit", "count", statistics.mean(evals) if evals else 0,
        None if evals else "no fits")
    put("tilted.fit.capped", "count", sum(e >= CAPPED_EVALS for e in evals) / n_units,
        None if evals else "no fits")
    busy("tilted.log_normalizer")
    calls("tilted.exact_kld")
    busy("tilted.exact_kld")

    busy("vae.train")
    calls("vae.grad_step")
    steps = get("vae.grad_step")
    durations = steps.durations if steps else []
    put("vae.grad_step.p50_us", "us", _percentile_us(durations, 0.50) if durations else 0,
        None if durations else "no grad steps")
    # p99 is reported only with at least ten samples above it.
    enough = len(durations) >= 1000
    put("vae.grad_step.p99_us", "us", _percentile_us(durations, 0.99) if enough else 0,
        None if enough else f"{len(durations)} grad steps, fewer than 1000")
    step_s = sum(durations)
    ok = steps is not None and step_s > 0 and steps.flops > 0
    put("vae.grad_step.gflop_per_s", "GFLOP/s", steps.flops / step_s / 1e9 if ok else 0,
        None if ok else "no grad steps")

    busy("vae.encode")
    busy("vae.decode")
    rate("vae.decode", "rows_per_s", "1/s")
    busy("vae.load_checkpoint")
    busy("vae.save_checkpoint")

    rate("sampler.sample_model_latents", "rows_per_s", "1/s")
    rate("sampler.sample_tilted_prior_batch", "rows_per_s", "1/s")
    busy("sampler.save_latents_csv")

    busy("ood.score_dataset")
    busy("ood.score_dataset_averaged")
    busy("ood.roc")
    roc = get("ood.roc")
    put("ood.roc.scores", "count", roc.rows / n_units if roc else 0,
        None if roc and roc.calls else "no calls to ood.roc")
    busy("ood.write_scores_csv")
    busy("ood.read_scores_csv")

    busy("data.parse_spec")
    parse = get("data.parse_spec")
    put("data.parse_spec.rows", "count", parse.rows / n_units if parse else 0,
        None if parse and parse.calls else "no calls to data.parse_spec")

    cli_self = 0.0
    for command in CLI_COMMANDS:
        st = get(f"cli.{command}")
        put(f"cli.{command}.calls", "count", st.calls / n_units if st else 0,
            None if st else f"workload runs no {command} command")
        put(f"cli.{command}.wall_s", "s", st.busy / n_units if st else 0,
            None if st else f"workload runs no {command} command")
    for name, st in stats.items():
        if name.startswith("cli."):
            cli_self += st.self_s
    put("cli.self_s", "s", cli_self / n_units)

    put("trace.wall_s", "s", traced_wall_s / n_units)
    put("trace.overhead_s", "s", overhead_s)
    accounted = sum(st.self_s for st in stats.values())
    put("trace.accounted_frac", "1", accounted / traced_wall_s)
    return out, absent


def busy_shares(metrics, top=5):
    """The library busy_s metrics with the largest shares of traced unit wall
    time, largest first. Shares of nested layers overlap: specfn runs inside
    tilted, grad_step inside train."""
    wall = metrics["trace.wall_s"]["value"]
    busy = [(k, v["value"] / wall) for k, v in metrics.items()
            if k.endswith(".busy_s") and not k.startswith(("cli.", "trace."))]
    return sorted(busy, key=lambda kv: -kv[1])[:top]
