"""Benchmark for ``obstruct``: four workloads, end-to-end metrics, and a
traced run that breaks the time down by layer.

    python3 bench/run.py --workload lattice-search --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, one report

Run it from anywhere inside a checkout; it imports the program from that
checkout's ``src/``.  With ``--trace 0`` it sets up ``SETUP_REPEATS`` times,
then repeats whole passes over the workload's inputs until ``--seconds`` are
used (at least the workload's minimum number of passes), with the program's
memo caches emptied before each pass.  Times are scaled to a reference
machine speed (see ``common.SpeedMeter``).  It prints a readable report and,
as the last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics of BENCHMARK.json.

With ``--trace 1`` it runs one traced pass of every workload, so that every
per-layer metric is measured on the workload that exercises its layer, plus
one untraced pass of ``--workload``; ``trace.overhead_s`` is the traced pass
time of that workload minus the untraced one.  The last line then holds the
per-layer metrics.

The full record of a run (environment, per-pass times, tail percentile and
sample count, failures, spans) goes to ``.bench_out/`` in the checkout.
Exit codes: 0 measured (``correct`` may still be false), 2 the program or
the benchmark's reference files are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from statistics import median

from common import (
    OUT, REFERENCE_PROBE_S, ROOT, SetupError, SpeedMeter, Tracer, clear_caches, environment,
    gc_settled, import_program, program_env, quantile, tail_fraction,
)
from workloads import WORKLOADS, python_ms

SETUP_REPEATS = 7
INTERPRETER_REPEATS = 5


def _failures(items, msgs) -> list[dict]:
    return [{"item": it.key, "error": m} for it, m in zip(items, msgs) if m is not None]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def measure(w, seed: int, seconds: float) -> dict:
    """The untraced run: end-to-end metrics of one workload.  Times are
    scaled to the reference speed (see ``SpeedMeter``); a pass's time is the
    sum of its calls' times."""
    setups, passes, failures, caches, child_kib = [], [], [], [], []
    attempted = 0
    with SpeedMeter() as meter:
        for _ in range(SETUP_REPEATS):
            with gc_settled():
                t0 = time.perf_counter()
                mods = import_program()
                ctx = w.setup(mods, seed)
                setups.append((t0, time.perf_counter()))

        costs = []
        start = time.perf_counter()
        while len(passes) < w.min_passes or (
                time.perf_counter() - start + median(costs) <= seconds):
            t_pass = time.perf_counter()
            clear_caches(mods)
            with gc_settled():
                items = w.run_pass(ctx)
            caches.append(mods.numtheory.factor.cache_info()._asdict())
            failures += _failures(items, w.check(ctx, items))
            attempted += len(items)
            passes.append([(it.start, it.end) for it in items])
            if not w.in_process:
                child_kib += [it.output[2] for it in items if it.output and it.output[2]]
            del items  # the next pass starts without this one's outputs
            costs.append(time.perf_counter() - t_pass)
    rss = max(child_kib) / 1024.0 if child_kib else peak_rss_mb()

    setup_raw, setup_s = zip(*(meter.scale(a, b) for a, b in setups))
    walls, raw_walls, latencies = [], [], []
    for spans in passes:
        raw, scaled = zip(*(meter.scale(a, b) for a, b in spans))
        walls.append(sum(scaled))
        raw_walls.append(sum(raw))
        latencies += [x * 1000.0 for x in scaled]
    latencies.sort()
    q = tail_fraction(w.min_passes * len(passes[0]))
    metrics = {
        "wall_s": median(walls),
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": quantile(latencies, q),
        "setup_s": median(setup_s),
        "peak_rss_mb": rss,
    }
    return {
        "workload": w.name, "seed": seed, "trace": 0,
        "metrics": metrics,
        "attempted": attempted, "failed": len(failures), "failures": failures[:50],
        "detail": {
            "passes": len(walls), "pass_wall_s": walls,
            "raw_wall_s": median(raw_walls), "raw_pass_wall_s": raw_walls,
            "setup_s": setup_s, "raw_setup_s": setup_raw,
            "speed_factor_median": median(REFERENCE_PROBE_S / p for p in meter.probes),
            "probes": len(meter.probes),
            "latency_samples": len(latencies),
            "tail_percentile": round(100.0 * q, 4),
            "tail_samples_beyond": len(latencies) - max(1, math.ceil(q * len(latencies))),
            "factor_cache_info": caches,
        },
    }


def trace_run(named, seed: int) -> dict:
    """The traced run: per-layer metrics of every workload, and the tracing
    overhead of the named one, whose untraced passes run right before its
    traced ones.  Times here are as measured, not scaled."""
    mods = import_program()
    tr = Tracer()
    ctxs = {}
    for w in WORKLOADS.values():
        tr.workload = w.name
        ctxs[w.name] = w.setup(mods, seed, tr)

    metrics: dict[str, float] = {}
    failures: list[dict] = []
    attempted = 0
    per_workload = {}
    for w in WORKLOADS.values():
        ctx = ctxs[w.name]
        if w is named:
            walls = []
            for _ in range(w.traced_passes):
                clear_caches(mods)
                with gc_settled():
                    items = w.run_pass(ctx)
                walls.append(sum(it.latency_s for it in items))
                failures += _failures(items, w.check(ctx, items))
                attempted += len(items)
            untraced_wall = median(walls)
        tr.workload = w.name
        clear_caches(mods)
        with gc_settled():
            items = w.run_traced(ctx, tr)
        ctx.factor_info = mods.numtheory.factor.cache_info()
        traced_wall = getattr(ctx, "traced_wall", None) or sum(it.latency_s for it in items)
        failures += _failures(items, w.traced_check(ctx, items))
        attempted += len(items)
        metrics.update(w.layer_metrics(ctx, tr, items))
        per_workload[w.name] = {"traced_wall_s": traced_wall, "spans": tr.self_times(w.name)}
        if w is named:
            metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return {
        "workload": named.name, "seed": seed, "trace": 1,
        "metrics": metrics,
        "attempted": attempted, "failed": len(failures), "failures": failures[:50],
        "detail": {"untraced_wall_s": untraced_wall, "per_workload": per_workload},
        "spans": tr.to_json(),
    }


def metric_units() -> dict[str, str]:
    """Unit of every metric, from BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        raise SetupError(f"cannot read BENCHMARK.json: {exc}") from None
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report_lines(rec: dict, units: dict[str, str]) -> list[str]:
    d = rec["detail"]
    lines = [f"{rec['workload']}  seed {rec['seed']}  trace {rec['trace']}"]
    for name, value in rec["metrics"].items():
        extra = ""
        if name == "latency_tail_ms":
            extra = (f"  (p{d['tail_percentile']:g} of {d['latency_samples']} samples, "
                     f"{d['tail_samples_beyond']} beyond)")
        elif name == "wall_s":
            extra = (f"  (median of {d['passes']} passes; unscaled {d['raw_wall_s']:.6g} s, "
                     f"speed factor {d['speed_factor_median']:.3f})")
        lines.append(f"  {name:<36} {value:>14.6g} {units.get(name, '')}{extra}")
    if rec["trace"] == 0:
        lines.append(f"  {'failed_frac':<36} {rec['failed'] / rec['attempted']:>14.6g} ratio"
                     f"  ({rec['failed']} failed of {rec['attempted']} items attempted)")
    else:
        lines.append(f"  failed {rec['failed']} of {rec['attempted']} items attempted")
    for f in rec["failures"][:10]:
        lines.append(f"  FAILED {f['item']}: {f['error']}")
    env = rec["environment"]
    lines.append(f"  python {env['python']}  cpus {env['cpu_count']}  git {env['git_sha']}  "
                 f"src {env['src_sha256'][:12]}  "
                 f"cli.interpreter_ms {env['cli.interpreter_ms']:.2f}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        units = metric_units()
        records = []
        for name in names:
            w = WORKLOADS[name]
            rec = trace_run(w, args.seed) if args.trace else measure(w, args.seed, args.seconds)
            env = environment()
            env["cli.interpreter_ms"] = median(python_ms(["-c", "pass"], program_env(),
                                                         INTERPRETER_REPEATS))
            rec["environment"] = env
            records.append(rec)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    for rec in records:
        path = OUT / f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}.json"
        path.write_text(json.dumps(rec, indent=1, default=str))
        print("\n".join(report_lines(rec, units)))

    prefix = len(records) > 1  # with --workload all, names are "<workload>/<metric>"
    result = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}/{k}" if prefix else k): {"value": v, "unit": units[k]}
                    for r in records for k, v in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
