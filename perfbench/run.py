"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload warm-sweep --seed 7 --seconds 22 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Every metric is printed as ``name value unit``,
followed by a run record and, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The command
exits non-zero when a result differs from the in-process reference, a
request fails, or an exact count drifts.  See README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402  (the benchmark's own modules, next to this file)
import layers  # noqa: E402
from session import STRUCTURES, SWEEP_POINTS  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Work units timed just before each set-up, to scale it.
SETUP_UNITS = 5
#: Seconds all sessions of one run may take together; a run must end in
#: three minutes.
RUN_TIMEOUT = 170.0
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "points_per_s": "1/s",
    "importance_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
#: Per-layer time metric -> the traced layers it sums, in ms per traced
#: request.
LAYER_TIMES = {
    "soc.problem_ms": ("soc.problem",),
    "service.key_ms": ("service.key",),
    "gfunction.ms": ("gfunction",),
    "ordering.ms": ("ordering",),
    "bdd.build_ms": ("bdd.build",),
    "mdd.convert_ms": ("mdd.convert",),
    "batch.linearize_ms": ("batch.linearize",),
    "method.columns_ms": ("method.columns",),
    "batch.forward_ms": ("batch.forward",),
    "batch.backward_ms": ("batch.backward",),
    "method.package_ms": ("method.package",),
    "store.save_ms": ("store.save",),
    "store.load_ms": ("store.load",),
}
BUILD_LAYERS = ("gfunction", "ordering", "bdd.build", "mdd.convert", "batch.linearize")
PER_LAYER = dict(
    {name: "ms" for name in LAYER_TIMES},
    **{
        "soc.problems": "count",
        "bdd.nodes": "count",
        "bdd.allocated": "count",
        "bdd.cache_hit_ratio": "ratio",
        "mdd.nodes": "count",
        "batch.cells": "count",
        "store.bytes": "B",
        "dispatch.ms": "ms",
        "dispatch.payload_bytes": "B",
        "dispatch.shm_bytes": "B",
        "dispatch.shards": "count",
        "dispatch.retries": "count",
        "http.overhead_ms": "ms",
        "server.coalesced_joins": "count",
        "server.rejected": "count",
        "server.tracebacks": "count",
        "setup.build_ms": "ms",
        "setup.store_ms": "ms",
        "request_ms": "ms",
        "unattributed_ms": "ms",
        "trace_overhead_frac": "ratio",
    }
)
#: Counts that must repeat exactly from run to run in one checkout.
EXACT = (
    "bdd.nodes",
    "bdd.allocated",
    "mdd.nodes",
    "batch.cells",
    "dispatch.shards",
    "dispatch.payload_bytes",
    "store.bytes",
)


class SessionError(RuntimeError):
    pass


def session(args, env, deadline, probe):
    """Run one session, killed at ``deadline`` (``time.perf_counter()``);
    return ``(scaled set-up seconds, report or None)``."""
    command = [
        sys.executable, os.path.join(HERE, "session.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if probe:
        command.append("--probe")
    units = [calibrate.work_unit() for _ in range(SETUP_UNITS)]
    started = time.perf_counter()
    # its own process group, so that a timeout also ends the server and
    # pool workers a served-mix session started
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(0.0, deadline - time.perf_counter()), kill_group)
    timer.start()
    try:
        ready = proc.stdout.readline()
        seconds = time.perf_counter() - started
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    marker, _, during = ready.decode().partition(" ")
    if marker != "READY" or code != 0:
        raise SessionError("%s session exited with code %d" % (args.workload, code))
    # a serial session times work units during its own set-up, too
    during = json.loads(during)
    setup = calibrate.scale(
        seconds - during.get("spent", 0.0),
        statistics.median(units + during.get("units", [])),
    )
    if probe:
        return setup, None
    return setup, json.loads(rest.decode().strip().splitlines()[-1])


def quantile(values, q):
    """Harrell-Davis estimate of the ``q`` quantile of ``values``.

    A Beta(q(n+1), (1-q)(n+1))-weighted mean of all order statistics
    rather than one or two of them: a run of a slow workload has only a
    few samples beyond its 90th percentile, and the plain sample quantile
    of so few jumps with each of them.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64  # midpoint-rule steps per order statistic
    weights = []
    for i in range(n):
        weight = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            weight += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
        weights.append(weight / (steps * n))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def scaled_ms(timed):
    """A timed item's milliseconds, scaled by the work unit timed with it."""
    return calibrate.scale(timed["seconds"], timed["unit"]) * 1e3


def rotation_median(requests):
    """Median latency per structure, averaged over the structures.

    Every workload rotates evenly through structures whose requests take
    different times; the pooled median of such a clustered sample falls in
    a gap between two clusters and jumps from run to run.
    """
    by_structure = {}
    for request in requests:
        by_structure.setdefault(tuple(request["structure"]), []).append(scaled_ms(request))
    return statistics.fmean(statistics.median(values) for values in by_structure.values())


def end_to_end(report, setups):
    sweep_requests = [r for r in report["requests"] if r["kind"] == "sweep"]
    sweeps = [scaled_ms(r) for r in sweep_requests]
    p90 = quantile(sweeps, 0.9)
    timed_points = SWEEP_POINTS * len(sweeps) + sum(
        1 for r in report["requests"] if r["kind"] == "importance"
    )
    busy_s = sum(scaled_ms(item) for item in report["busy"]) / 1e3
    metrics = {
        "setup_s": statistics.median(setups),
        "p50_ms": rotation_median(sweep_requests),
        "p90_ms": p90,
        "points_per_s": timed_points / busy_s,
        "importance_p50_ms": rotation_median(report["importance"]),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    notes = {
        "sweep_samples": len(sweeps),
        "samples_beyond_p90": sum(1 for value in sweeps if value > p90),
        "importance_samples": len(report["importance"]),
        "setup_samples_s": setups,
    }
    return metrics, notes


def per_layer(report, served):
    """Per-layer metrics of a traced run (see README.md for definitions)."""
    trace = report["trace"]
    start, end = report["window"]
    requests = report["requests"]
    traced = [r for r in requests if r["traced"]]
    # one scale for the run, so the layer times still add up to request_ms
    unit = statistics.median(r["unit"] for r in traced)
    per = calibrate.scale(1e3, unit) / len(traced)
    window = layers.totals(trace["events"], start, end)
    before = layers.totals(trace["events"], 0.0, start)

    def seconds(table, names):
        return sum(table.get(name, (0.0, 0))[0] for name in names)

    metrics = {name: seconds(window, events) * per for name, events in LAYER_TIMES.items()}
    metrics["soc.problems"] = window.get("soc.problem", (0.0, 0))[1] / len(traced)
    structures = trace["structures"].values()
    metrics["bdd.nodes"] = sum(s["bdd_nodes"] for s in structures)
    metrics["bdd.allocated"] = sum(s["bdd_allocated"] for s in structures)
    hits = sum(s["bdd_cache_hits"] for s in structures)
    misses = sum(s["bdd_cache_misses"] for s in structures)
    metrics["bdd.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["mdd.nodes"] = sum(s.get("mdd_nodes", 0) for s in structures)
    metrics["batch.cells"] = window.get("batch.cells", (0.0, 0))[0] / len(requests)
    metrics["store.bytes"] = sum(trace["saved_bytes"].values())
    for name, value in report["counters"].items():
        metrics[name] = value / len(requests)
    metrics["server.tracebacks"] = report["tracebacks"]
    metrics["setup.build_ms"] = seconds(before, BUILD_LAYERS) * calibrate.scale(1e3, unit)
    metrics["setup.store_ms"] = seconds(before, ("store.save", "store.load")) * calibrate.scale(
        1e3, unit
    )
    request_ms = sum(r["seconds"] for r in traced) * per
    named = sum(metrics[name] for name in LAYER_TIMES)
    if served:
        # a pooled sweep's service time outside the named layers is the
        # dispatch; what the server process did not spend in any wrapped
        # call at all is the HTTP front end
        metrics["dispatch.ms"] = seconds(window, ("service.sweep",)) * per
        inside = named + metrics["dispatch.ms"] + seconds(window, ("service.importance",)) * per
        metrics["http.overhead_ms"] = request_ms - inside
    else:
        metrics["dispatch.ms"] = 0.0
        metrics["http.overhead_ms"] = 0.0
    metrics["request_ms"] = request_ms
    metrics["unattributed_ms"] = (
        request_ms - named - metrics["dispatch.ms"] - metrics["http.overhead_ms"]
    )
    untraced = [scaled_ms(r) for r in requests if not r["traced"] and r["kind"] == "sweep"]
    traced_sweeps = [scaled_ms(r) for r in traced if r["kind"] == "sweep"]
    metrics["trace_overhead_frac"] = statistics.fmean(traced_sweeps) / statistics.fmean(untraced) - 1.0
    return metrics


def check_exact(workload, metrics, drift):
    """Fail on counts that differ from an earlier traced run in this checkout."""
    path = os.path.join(".bench_build", "exact-%s.json" % workload)
    current = {name: metrics[name] for name in EXACT}
    problems = list(drift)
    if os.path.exists(path):
        with open(path) as fh:
            previous = json.load(fh)
        problems += [
            "%s drifted: %r -> %r" % (name, previous[name], current[name])
            for name in EXACT
            if previous.get(name) != current[name]
        ]
    else:
        with open(path, "w") as fh:
            json.dump(current, fh)
    return problems


def source_record():
    """Line count and content digest of ``src/``, plus the commit if known."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(glob.glob(os.path.join("src", "**", "*"), recursive=True)):
        if os.path.isfile(path) and path.endswith((".py", ".c")):
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(path.encode() + b"\0" + data)
            lines += data.count(b"\n")
    commit = None
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"src_lines": lines, "src_sha256": digest.hexdigest(), "commit": commit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(STRUCTURES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("error: run from the root of a checkout (src/repro is missing)", file=sys.stderr)
        return 2

    build = os.path.abspath(".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=os.path.abspath("src"),
        # one compiled kernel cache for every process of the run, filled
        # before any set-up is timed
        REPRO_NATIVE_CACHE=os.path.join(build, "native"),
    )
    env.pop("REPRO_KERNEL", None)
    subprocess.run(
        [sys.executable, "-c", "from repro.engine import native; native.available()"],
        env=env, check=True, timeout=600,
    )
    deadline = time.perf_counter() + RUN_TIMEOUT
    try:
        setups = [
            session(args, env, deadline, probe=True)[0]
            for _ in range(0 if args.trace else SETUP_REPEATS - 1)
        ]
        setup, report = session(args, env, deadline, probe=False)
    except SessionError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    setups.append(setup)

    served = args.workload == "served-mix"
    problems = report["failures"] + report["mismatches"]
    if args.trace:
        metrics = per_layer(report, served)
        units = PER_LAYER
        problems += check_exact(args.workload, metrics, report["trace"]["drift"])
        notes = {"kernels": report["trace"]["kernels"]}
    else:
        metrics, notes = end_to_end(report, setups)
        units = END_TO_END
    attempted = len(report["requests"]) + (0 if served else len(report["importance"]))
    failed = len(report["failures"]) + len(report["mismatches"])
    for name in units:
        print("%-24s %14.6g %s" % (name, metrics[name], units[name]))
    print("%-24s %14.6g %s" % ("fail_frac", failed / attempted, "ratio"))
    record = dict(
        source_record(),
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        nproc=os.cpu_count(),
        python=report["python"],
        numpy=report["numpy"],
        kernel=report["kernel"],
        pinned_sizes=report["pinned_sizes"],
        problems=problems,
        **notes,
    )
    print("record " + json.dumps(record, sort_keys=True))
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
