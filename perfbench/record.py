"""Record a perf-history entry: every workload, several seeds, untraced and
traced, with the machine it ran on.

    python3 perfbench/record.py --name seed --seeds 1 2 3 4 5 6 7 8 9 10

Writes ``perfbench/history/<name>.json`` and prints, for each end-to-end
metric, the median and the spread (third minus first quartile, as a share
of the median) next to the bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                cwd=ROOT, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"commit": commit, "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--name", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    entry = {**machine(), "run_seconds": seconds, "seeds": args.seeds, "untraced": {}, "traced": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, seconds, 0) for seed in args.seeds]
        summary = {"failed": sum(r["failed"] for r in runs), "attempted": sum(r["attempted"] for r in runs)}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
            print(f"{workload} {name} median {median:.6g} spread {spread:.3f} bound {bound}", flush=True)
        entry["untraced"][workload] = summary
        traced = bench(workload, args.seeds[0], seconds, 1)
        entry["traced"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
    os.makedirs(os.path.join(HERE, "history"), exist_ok=True)
    path = os.path.join(HERE, "history", f"{args.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
