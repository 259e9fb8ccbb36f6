"""The bottsam benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It imports ``bottsam`` from the
checkout's ``src`` and never from anywhere else.  Each workload runs in
fresh single-threaded child processes, one at a time.  With ``--trace 0``
the child is a closed loop with one client that repeats passes over a
seeded list of operations for about ``S`` seconds, and the end-to-end
metrics are printed, scaled to the reference speed by the child's gauge
(see ``child.run_passes``).  With ``--trace 1`` a fixed prefix of the
same operation stream runs four times (untraced, traced, traced,
untraced), and the per-layer metrics are printed; the spans are written to
``perfbench/out/``.  Every metric line reads ``<workload> <metric> <value>
<unit>``.  The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import tracer
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 170

# Operations in the traced prefix: about five seconds of work untraced, so
# that second-scale swings in machine speed average out of trace_overhead.
TRACE_OPS = {"products": 68, "integrals": 540, "schubert": 1200, "cli": 33}

END_TO_END = (
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_names() -> list[tuple[str, str, str, str]]:
    """(metric, unit, traced function, statistic) for every per-layer metric."""
    extra = {
        "polyring.Polynomial.mul": [("term_products", "count")],
        "polyring.divide_exact": [("ok_ratio", "ratio")],
        "polyring.fraction_sum": [("summands", "count")],
        "bott_samelson.BSWord.sigma": [("distinct_ratio", "ratio")],
        "bott_samelson.BSWord.alphas": [("distinct_ratio", "ratio")],
        "bott_samelson.expand": [("nonzero_ratio", "ratio")],
        "bott_samelson.CohClass.restriction": [("nonzero_ratio", "ratio")],
    }
    out = []
    for _, _, name, _, _ in tracer.TARGETS:
        stats = [("calls", "count")]
        if name not in tracer.COUNT_ONLY:
            stats.append(("self_s", "s"))
        for stat, unit in stats + extra.get(name, []):
            out.append((f"{name}.{stat}", unit, name, stat))
    out.append(("cli.process_s", "s", "", "process_s"))
    out.append(("trace_overhead", "ratio", "", "trace_overhead"))
    return out


def layer_value(stats: dict, name: str, stat: str) -> float:
    d = stats.get(name)
    if d is None:
        return 0
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    if stat == "ok_ratio":
        return ratio(d["calls"] - d["raised"], d["calls"])
    if stat == "distinct_ratio":
        return ratio(d["distinct"], d["calls"])
    if stat == "nonzero_ratio":
        return ratio(d["useful"], d.get("attempts", d["calls"]))
    return d[stat]


def child(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *map(str, args)],
        capture_output=True, text=True, env=wl.child_env(ROOT), cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"child {args[:2]} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def untraced(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, list]:
    run = child(["run", workload, seed, seconds])
    best = run["best"]
    n = len(best)
    p90 = statistics.quantiles(best, n=10)[-1] if n > 1 else best[0]
    raw = {
        "ops_per_s": n / sum(best),
        "op_p50_ms": 1000 * statistics.median(best),
        "op_p90_ms": 1000 * p90,
        "setup_s": statistics.median(run["setup_bursts"]),
    }
    # Times to the reference speed: multiplied by scale, rates divided.
    scale = run["scale"]
    metrics = {name: value / scale if name == "ops_per_s" else value * scale
               for name, value in raw.items()}
    metrics["peak_rss_mb"] = run["peak_rss_mb"]
    notes = [
        f"{workload} failed_frac {run['failed'] / n:.6g} ratio",
        f"{workload} ops {n} count",
        f"{workload} passes {run['passes']} count",
        f"{workload} pass_s {' '.join(f'{x:.4g}' for x in run['pass_s'])} s",
        f"{workload} scale {scale:.6g} ratio",
        *(f"{workload} {name}.raw {value:.6g} {dict(END_TO_END)[name]}" for name, value in raw.items()),
        f"{workload} op_p90_ms.samples_beyond {sum(x > p90 for x in best)} count",
        f"{workload} setup_s.bursts {len(run['setup_bursts'])} count",
        f"{workload} warm_s {run['warm_s']:.6g} s",
        f"{workload} digest {run['digest']} over {n} ops",
    ]
    for kind, (count, total) in run["kinds"].items():
        notes.append(f"{workload} kind {kind} {count} ops {1000 * total * scale / count:.3f} ms/op")
    return metrics, n, run["failed"], notes


def traced(workload: str, seed: int) -> tuple[dict, int, int, list]:
    # Untraced, traced, traced, untraced: the order cancels a steady drift
    # in machine speed out of trace_overhead, and the two traced runs must
    # agree on every count.
    count = TRACE_OPS[workload]
    plain = child(["prefix", workload, seed, count, 0])
    trace, again = (child(["prefix", workload, seed, count, 1]) for _ in range(2))
    plain_again = child(["prefix", workload, seed, count, 0])
    stats = trace["stats"]
    unsteady = sorted(name for name, d in stats.items()
                      if {k: v for k, v in d.items() if k != "self_s"}
                      != {k: v for k, v in again["stats"][name].items() if k != "self_s"})
    metrics = {}
    for metric, _, name, stat in per_layer_names():
        if stat == "process_s":
            metrics[metric] = ((plain["process_s"] + plain_again["process_s"]) / (2 * count)
                               if workload == "cli" else 0.0)
        elif stat == "trace_overhead":
            metrics[metric] = ((trace["wall_s"] + again["wall_s"])
                               / (plain["wall_s"] + plain_again["wall_s"]))
        else:
            metrics[metric] = layer_value(stats, name, stat)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": count,
                   "fields": ["id", "parent", "name", "start_s", "end_s"],
                   "spans": trace["spans"], "stats": stats}, fh)
    drifted = plain_again["digest"] != plain["digest"]
    failed = plain["failed"] + bool(trace["leftover"] or unsteady or drifted)
    notes = [
        f"{workload} failed_frac {plain['failed'] / count:.6g} ratio",
        f"{workload} digest {plain['digest']} over {count} ops",
        f"{workload} spans {len(trace['spans'])} written to {os.path.relpath(path, ROOT)}",
    ]
    notes += [f"{workload} absent {name}" for name in trace["absent"]]
    notes += [f"{workload} wrapper left on {name}" for name in trace["leftover"]]
    notes += [f"{workload} counts differ between traced runs: {name}" for name in unsteady]
    if drifted:
        notes.append(f"{workload} digest differs between the two untraced runs")
    return metrics, count, failed, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bottsam", "__init__.py")):
        print(f"error: no src/bottsam package under {ROOT}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, attempted, failed, notes = traced(args.workload, args.seed)
        units = {m: u for m, u, _, _ in per_layer_names()}
    else:
        metrics, attempted, failed, notes = untraced(args.workload, args.seed, args.seconds)
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
