"""One workload in one fresh process: set up, run, check, report.

Usage (started by ``run.py``, one JSON object on the last stdout line)::

    python3 perfbench/child.py setup    WORKLOAD
    python3 perfbench/child.py run      WORKLOAD SEED SECONDS
    python3 perfbench/child.py prefix   WORKLOAD SEED COUNT TRACE

``setup`` measures the set-up alone.  The other modes then warm the
workload's caches (:meth:`workloads.Library.warm`), outside the set-up
time.  ``run`` is the closed loop with one client over the whole blocks
that :func:`workloads.run_ops` gives for ``SECONDS``: the next operation
starts when the previous one has returned, and passes over the list repeat
until ``SECONDS`` have passed, at least ``workloads.PASSES`` times.
``prefix`` runs exactly the first ``COUNT`` operations, traced when
``TRACE`` is 1, so its counts repeat exactly.  Results are checked after
the timed phase.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import time

import oracle
import tracer as tracing
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_TIMEOUT_S = 60
# Each burst of set-up samples holds this many fresh set-ups.
SETUP_BURST = 3
# The gauge: a fixed computation in the benchmark's own polynomial code,
# timed GAUGE_SLOTS times per pass between operations.  GAUGE_SECONDS is
# its time on a 2-vCPU Xeon VM in a fast spell.
GAUGE_SLOTS = 64
GAUGE_SECONDS = 0.002
GAUGE_ARGS = (oracle.CARTAN["B3"], (1, 2, 1, 3, 2, 1, 3, 2), (1, 0, 1, 1, 0, 1, 0, 0), (1, 1, 1, 1, 0, 1, 1, 0))


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def set_up(workload: str) -> tuple[wl.Library | None, float]:
    """Import ``bottsam`` from this checkout and build what the workload
    reuses; return the library handle and the seconds it took."""
    t0 = time.perf_counter()
    if workload == "cli":
        return None, 0.0
    lib = wl.Library(workload)
    elapsed = time.perf_counter() - t0
    expected = os.path.join(ROOT, "src", "bottsam", "__init__.py")
    if os.path.realpath(lib.bs.__file__) != os.path.realpath(expected):
        raise SystemExit(f"imported bottsam from {lib.bs.__file__}, not from this checkout")
    return lib, elapsed


def cli_command(argv: list[str], trace: int | None) -> tuple[int, str, dict | None]:
    """Run one ``bottsam`` command in its own process and return its exit
    code and output.  With ``trace`` None the process is ``python -m
    bottsam.cli``; with 0 or 1 it is ``cli_main.py``, which times
    ``cli.main`` in-process, traced when ``trace`` is 1, and reports that
    too."""
    if trace is None:
        cmd = [sys.executable, "-m", "bottsam.cli", *argv]
    else:
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "cli_main.py"), str(trace), *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=wl.child_env(ROOT),
                          cwd=ROOT, timeout=CLI_TIMEOUT_S)
    if trace is None:
        return proc.returncode, proc.stdout, None
    report = json.loads(proc.stdout.splitlines()[-1])
    return report["returncode"], report["stdout"], report


def execute(workload: str, lib, op, trace: int | None = None):
    if workload == "cli":
        return cli_command(wl.cli_argv(op), trace)
    return lib.run(op)


def check_all(workload: str, lib, ops, results, unsteady=()) -> tuple[int, str]:
    """Count failed operations and digest the canonical output text.  An
    operation fails when it raised, when its output differed between passes
    (``unsteady`` holds their indices) or when its check fails."""
    every = wl.CHECK_EVERY[workload]
    checker = wl.Library("cli") if workload == "cli" else lib
    digest = hashlib.sha256()
    failed = 0
    for index, (op, result) in enumerate(zip(ops, results)):
        digest.update(canonical(workload, lib, result).encode() + b"\n")
        if isinstance(result, Exception) or index in unsteady:
            failed += 1
        elif workload == "cli":
            failed += not (index % every or wl.check_cli(checker, op, result[0], result[1]))
        else:
            failed += not (index % every or lib.check(op, result, index))
    return failed, digest.hexdigest()[:16]


def setup_burst(workload: str) -> float:
    """The fastest of SETUP_BURST fresh set-ups: ``child.py setup`` for the
    library workloads, a process that only imports ``bottsam.cli`` for
    ``cli``."""
    samples = []
    for _ in range(SETUP_BURST):
        if workload == "cli":
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import bottsam.cli"], check=True,
                           env=wl.child_env(ROOT), cwd=ROOT, timeout=CLI_TIMEOUT_S)
            samples.append(time.perf_counter() - t0)
        else:
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "setup", workload],
                                  capture_output=True, text=True, check=True,
                                  env=wl.child_env(ROOT), cwd=ROOT, timeout=CLI_TIMEOUT_S)
            samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return min(samples)


def gauge_seconds() -> float:
    """One timing of the gauge, with the garbage collector off so that the
    library's heap cannot slow it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(24):
            oracle.sigma(*GAUGE_ARGS)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def canonical(workload: str, lib, result) -> str:
    if isinstance(result, Exception):
        return type(result).__name__
    if workload == "cli":
        return f"{result[0]}\n{result[1]}"
    return lib.canonical(result)


def run_passes(workload: str, lib, seed: int, seconds: float) -> dict:
    """Repeat one pass over the run's operations until ``seconds`` have
    passed, at least ``workloads.PASSES`` times, keeping each operation's
    fastest latency.  The gauge runs before every ``every``-th operation
    and keeps its fastest time per slot the same way; ``scale`` is
    GAUGE_SECONDS over the mean of those, the factor that brings this run's
    times to the reference speed.  A burst of fresh set-ups runs before the
    first pass and after every pass, outside the pass times."""
    if workload == "cli":
        setup_burst(workload)  # not counted: lets a first run compile bytecode
    ops = wl.run_ops(workload, seed, seconds)
    best = [float("inf")] * len(ops)
    every = -(-len(ops) // GAUGE_SLOTS)
    gauge = [float("inf")] * -(-len(ops) // every)
    bursts = [setup_burst(workload)]
    clock = time.perf_counter
    deadline = clock() + seconds
    passes, first, texts, unsteady, pass_s = 0, [], [], set(), []
    # A pass starts while at least half of the last one still fits.
    while passes < wl.PASSES or clock() + pass_s[-1] / 2 < deadline:
        results = []
        t_pass = clock()
        for i, op in enumerate(ops):
            if i % every == 0:
                gauge[i // every] = min(gauge[i // every], gauge_seconds())
            t0 = clock()
            try:
                result = execute(workload, lib, op)
            except Exception as exc:  # a failed operation is counted, not fatal
                result = exc
            best[i] = min(best[i], clock() - t0)
            results.append(result)
        passes += 1
        pass_s.append(clock() - t_pass)
        if not first:
            first = results
            texts = [canonical(workload, lib, r) for r in results]
        else:
            unsteady.update(i for i, r in enumerate(results) if canonical(workload, lib, r) != texts[i])
        bursts.append(setup_burst(workload))
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    rss = peak_rss_mb(who)  # before the checks, which allocate too
    failed, digest = check_all(workload, lib, ops, first, unsteady)
    kinds: dict[str, list] = {}
    for op, lat in zip(ops, best):
        kinds.setdefault(wl.op_kind(workload, op), []).append(lat)
    return {
        "passes": passes, "pass_s": pass_s, "best": best, "setup_bursts": bursts,
        "scale": GAUGE_SECONDS / (sum(gauge) / len(gauge)), "failed": failed,
        "digest": digest, "peak_rss_mb": rss,
        "kinds": {k: [len(v), sum(v)] for k, v in sorted(kinds.items())},
    }


def main(argv: list[str]) -> dict:
    mode, workload = argv[0], argv[1]
    lib, setup_s = set_up(workload)
    if mode == "setup":
        return {"setup_s": setup_s}
    t0 = time.perf_counter()
    if lib is not None:
        lib.warm()
    warm_s = time.perf_counter() - t0
    seed = int(argv[2])
    if mode == "run":
        return {"warm_s": warm_s, **run_passes(workload, lib, seed, float(argv[3]))}
    # prefix: the first COUNT operations, traced or not
    results = []
    count, traced = int(argv[3]), argv[4] == "1"
    ops = wl.op_list(workload, seed, count)
    tr = tracing.Tracer()
    cli_stats: dict = {}
    absent: set = set()
    process_s = 0.0
    t_start = time.perf_counter()
    if traced and workload != "cli":
        tr.install()
    try:
        for op in ops:
            with tr.op(f"op:{wl.op_kind(workload, op)}") as root_span:
                t0 = time.perf_counter()
                try:
                    result = execute(workload, lib, op, int(traced))
                except Exception as exc:
                    result = exc
                if workload == "cli" and not isinstance(result, Exception):
                    sub = result[2]
                    process_s += time.perf_counter() - t0 - sub["main_s"]
                    if traced:
                        tracing.merge(cli_stats, sub["stats"])
                        absent.update(sub["absent"])
                        tr.adopt(sub["spans"], root_span)
            results.append(result)
    finally:
        tr.restore()
    wall = time.perf_counter() - t_start
    report = {"wall_s": wall, "ops": len(ops), "process_s": process_s}
    if traced:
        exported = tr.export()
        report.update(stats=tracing.merge(cli_stats, exported["stats"]),
                      absent=sorted(absent.union(exported["absent"])),
                      spans=exported["spans"],
                      leftover=tracing.leftover_wrappers())
    else:
        report["failed"], report["digest"] = check_all(workload, lib, ops, results)
    return report


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
