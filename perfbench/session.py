"""One benchmark session: set-up, the timed closed loop, verification.

``run.py`` starts this script as a subprocess from the root of a
checkout.  The session sets its workload up, prints ``READY`` and then
either stops (``--probe``: a set-up time sample) or runs the timed loop,
checks every result against an in-process reference and prints one JSON
line with its raw measurements.  Only ``run.py`` turns those into
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from http.client import HTTPConnection

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402  (the benchmark's own modules, next to this file)
import layers  # noqa: E402

SWEEP_POINTS = 96
DENSITY_RANGE = (0.5, 4.0)
CLUSTERING = 4.0
#: (benchmark, M) rotations of each workload.
STRUCTURES = {
    "cold-sweep": [("ESEN4x2", 5), ("MS4", 5)],
    "warm-sweep": [("ESEN4x2", 5), ("MS4", 5), ("MS2", 6), ("ESEN4x1", 6)],
    "served-mix": [("ESEN4x2", 5), ("MS4", 5)],
}
#: Coded-ROBDD / ROMDD node counts every build must reproduce.
PINNED_SIZES = {
    ("ESEN4x2", 5): (50994, 7735),
    ("MS4", 5): (43434, 4791),
    ("MS2", 6): (24101, 2034),
    ("ESEN4x1", 6): (10279, 1460),
}
#: In-process importance requests timed after the loop of a serial workload.
IMPORTANCE_PROBES = 96
#: Peak RSS is read once this many requests are done, so that it does not
#: depend on how many requests a run fits in (a warm service's result
#: cache grows with every fresh point).
RSS_AFTER_REQUESTS = 32
#: Seconds between the work units timed during a serial request.
UNIT_INTERVAL = 0.1
#: Work units timed between two serial requests.
UNITS_PER_GAP = 3
#: Seconds a served-mix client may wait for the other to finish its request.
SESSION_WAIT = 120.0
SERVED_WORKERS = 2
SERVED_CLIENTS = 2
#: One served-mix block of request pairs: 3 sweeps per importance request.
SERVED_BLOCK = ["sweep", "sweep", "sweep", "importance"]
#: Registry counters read from ``GET /stats`` around the timed window.
SERVER_COUNTERS = {
    "dispatch.payload_bytes": "repro_dispatch_payload_bytes",
    "dispatch.shm_bytes": "repro_dispatch_shm_bytes",
    "dispatch.shards": "repro_service_shards_dispatched",
    "dispatch.retries": "repro_retry_attempts",
    "server.coalesced_joins": "repro_server_coalesced_joins",
    "server.rejected": "repro_server_rejected",
}


def draws(seed, stream, index, count):
    """``count`` seeded defect densities; same arguments, same numbers."""
    rng = random.Random("%d/%s/%d" % (seed, stream, index))
    return [rng.uniform(*DENSITY_RANGE) for _ in range(count)]


def factory(name):
    from repro import soc

    # looked up per call so a traced run's wrapper sees every problem
    return lambda mean: soc.benchmark_problem(
        name, mean_defects=mean, clustering=CLUSTERING
    )


def peak_rss_mb(pids):
    """Sum of the peak resident set sizes (``VmHWM``) of ``pids``, in MB."""
    total = 0
    for pid in pids:
        try:
            with open("/proc/%d/status" % pid) as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            pass
    return total / 1024.0


def process_tree(pid):
    """``pid`` and every descendant of it."""
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        try:
            with open("/proc/%d/task/%d/children" % (current, current)) as fh:
                frontier.extend(int(child) for child in fh.read().split())
        except OSError:
            pass
    return tree


def ended(pid, timeout=5.0):
    """Wait up to ``timeout`` seconds for a process that is not our child
    to end (gone, or a zombie); return whether it did."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        try:
            with open("/proc/%d/stat" % pid) as fh:
                if fh.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return True
        except OSError:
            return True
        time.sleep(0.05)
    return False


def gap_unit(timer=calibrate.work_unit):
    """Median of the work units timed in one gap between requests.

    Serial workloads time them on their own thread, where the request
    ran; served-mix, whose work is spread over every core, on each core.
    """
    return statistics.median(timer() for _ in range(UNITS_PER_GAP))


def gradient_key(gradients):
    return [(name, value) for name, value in gradients.ranking()]


def reference_outputs(structure, items):
    """The reference for one structure, through the library route.

    One :class:`YieldAnalyzer` build, then one batched pass per request
    over problems made straight from the benchmark's fault tree and
    component model: no service, caches, keys, pool, store or HTTP.
    Every ``("sweep", densities)`` item yields ``(mean, yield, error bound,
    M)`` tuples and every ``("importance", mean)`` item its gradient
    ranking.  Returns the structure's ``(coded-ROBDD, ROMDD)`` sizes and
    the outputs in order.
    """
    from repro.core.method import YieldAnalyzer
    from repro.core.problem import YieldProblem
    from repro.distributions import NegativeBinomialDefectDistribution

    name, truncation = structure
    base = factory(name)(1.0)
    compiled = YieldAnalyzer().compile_for_truncation(base, truncation)

    def problem(mean):
        distribution = NegativeBinomialDefectDistribution(mean=mean, clustering=CLUSTERING)
        return YieldProblem(base.fault_tree, base.components, distribution, name=base.name)

    outputs = []
    for kind, values in items:
        if kind == "sweep":
            results = compiled.evaluate_many([problem(v) for v in values])
            outputs.append(
                [(v, r.yield_estimate, r.error_bound, r.truncation)
                 for v, r in zip(values, results)]
            )
        else:
            outputs.append(gradient_key(compiled.gradients_many([problem(values)])[0]))
    return (compiled.coded_robdd_size, compiled.romdd_size), outputs


def check_of(request, served):
    """A :func:`verify` item for one timed request."""
    structure = tuple(request["structure"])
    got = request.pop("output")
    if request["kind"] == "importance":
        return structure, "importance", request["densities"][0], got.__eq__
    if served:
        # HTTP floats arrive as shortest-repr JSON and compare exactly
        def compare(ref):
            return got == [(y, eb, m) for _, y, eb, m in ref]
    else:
        def compare(ref):
            return got == [(v, y, m) for v, y, _, m in ref]
    return structure, "sweep", request["densities"], compare


def verify(structures, checks):
    """Check ``(structure, kind, values, compare)`` items against the
    reference; ``compare(reference output)`` says whether the timed output
    matches.  Returns the mismatches, described."""
    by_structure = {tuple(structure): [] for structure in structures}
    for structure, kind, values, compare in checks:
        by_structure[structure].append((kind, values, compare))
    mismatches = []
    for structure, items in by_structure.items():
        sizes, outputs = reference_outputs(structure, [(kind, values) for kind, values, _ in items])
        label = "%s M=%d" % structure
        if sizes != PINNED_SIZES[structure]:
            mismatches.append("%s has %d/%d nodes" % ((label,) + sizes))
        for index, ((kind, _, compare), expected) in enumerate(zip(items, outputs)):
            if not compare(expected):
                mismatches.append("%s %d on %s differs" % (kind, index, label))
    return mismatches


class Session:
    def __init__(self, args):
        self.args = args
        self.structures = STRUCTURES[args.workload]
        self.tracer = None
        if args.trace and args.workload != "served-mix":
            # served-mix traces inside the server process (serve.py)
            self.tracer = layers.Tracer()
            self.tracer.install()
            self.tracer.enabled = self.tracer.counting = True

    # -- the serial, in-process workloads ------------------------------

    def setup_serial(self):
        from repro.engine import native
        from repro.engine.service import SweepService

        native.available()  # load the compiled kernel as part of set-up
        self.service = None
        self.cold_services = {}
        if self.args.workload == "warm-sweep":
            self.service = SweepService()
            for index, (name, truncation) in enumerate(self.structures):
                self.service.density_sweep(
                    factory(name),
                    draws(self.args.seed, "prime", index, SWEEP_POINTS),
                    max_defects=truncation,
                )

    def sweep_in_process(self, name, truncation, densities):
        from repro.engine.service import SweepService

        service = self.service
        if service is None:
            # cold: a fresh service per request; the newest one per
            # structure is kept for the importance probe after the loop
            service = self.cold_services[(name, truncation)] = SweepService()
        return service.density_sweep(factory(name), densities, max_defects=truncation)

    def run_serial(self):
        """Closed loop of whole rotations; traced runs alternate blocks."""
        requests = []
        block = 0
        window = [time.time(), None]
        deadline = time.perf_counter() + self.args.seconds
        on_tick = self.tracer.exclude if self.tracer is not None else None
        with calibrate.Interleaved(UNIT_INTERVAL, on_tick) as clock:
            before = gap_unit()
            while True:
                traced = self.tracer is not None and block % 2 == 1
                if self.tracer is not None:
                    self.tracer.enabled = traced
                for name, truncation in self.structures:
                    densities = draws(self.args.seed, "sweep", len(requests), SWEEP_POINTS)
                    output, seconds, during = clock.measure(
                        lambda: self.sweep_in_process(name, truncation, densities)
                    )
                    after = gap_unit()
                    requests.append(
                        {
                            "kind": "sweep",
                            "structure": [name, truncation],
                            "densities": densities,
                            "output": output,
                            "seconds": seconds,
                            "unit": statistics.median([before, after] + during),
                            "traced": traced,
                        }
                    )
                    before = after
                    if len(requests) == RSS_AFTER_REQUESTS:
                        rss = peak_rss_mb([os.getpid()])
                block += 1
                if time.perf_counter() >= deadline and (
                    self.tracer is None or block % 2 == 0
                ):
                    break
        window[1] = time.time()
        if self.tracer is not None:
            self.tracer.enabled = self.tracer.counting = False
        if len(requests) < RSS_AFTER_REQUESTS:
            rss = peak_rss_mb([os.getpid()])
        return requests, window, rss

    def importance_probe(self):
        """Time in-process importance requests on the loop's own services,
        after the timed loop; returns the timings and their checks."""
        timings, checks = [], []
        unit = gap_unit()
        for index in range(IMPORTANCE_PROBES):
            structure = self.structures[index % len(self.structures)]
            name, truncation = structure
            service = self.service or self.cold_services[structure]
            mean = draws(self.args.seed, "importance", index, 1)[0]
            started = time.perf_counter()
            gradients = service.gradients(factory(name)(mean), max_defects=truncation)
            finished = time.perf_counter()
            after = gap_unit()
            timings.append(
                {
                    "structure": [name, truncation],
                    "seconds": finished - started,
                    "unit": (unit + after) / 2.0,
                }
            )
            unit = after
            checks.append((structure, "importance", mean, gradient_key(gradients).__eq__))
        return timings, checks

    # -- served-mix: HTTP against a `repro serve` subprocess --------------

    def setup_served(self):
        os.makedirs(os.path.join(".bench_build", "tmp"), exist_ok=True)
        # a fixed-length name: the store path rides in every shard payload,
        # whose bytes are an exact count
        workdir = tempfile.mkdtemp(prefix="served-", dir=os.path.join(".bench_build", "tmp"))
        self.workdir = workdir
        self.log_path = os.path.join(workdir, "server.log")
        self.dump_path = os.path.join(workdir, "trace.json")
        serve_args = [
            "--port", "0",
            "--workers", str(SERVED_WORKERS),
            "--store-dir", os.path.join(workdir, "store"),
        ]
        if self.args.trace:
            command = [sys.executable, os.path.join(HERE, "serve.py"), self.dump_path]
        else:
            command = [sys.executable, "-m", "repro", "serve"]
        self.log = open(self.log_path, "wb")
        self.server = subprocess.Popen(
            command + serve_args, stdout=subprocess.PIPE, stderr=self.log
        )
        line = self.server.stdout.readline().decode()
        if "listening on http://" not in line:
            raise RuntimeError("server did not start: %r" % line)
        address = line.split("http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        for index, (name, truncation) in enumerate(self.structures):
            for repeat in range(2):
                densities = draws(self.args.seed, "prime", 2 * index + repeat, SWEEP_POINTS)
                self.http_sweep(name, truncation, densities)
            self.http_importance(name, truncation, draws(self.args.seed, "prime-importance", index, 1)[0])

    def http(self, method, path, payload=None):
        """One request, honouring 429 + ``Retry-After`` a few times."""
        for attempt in range(5):
            conn = HTTPConnection(self.host, self.port, timeout=120)
            try:
                body = None if payload is None else json.dumps(payload).encode()
                headers = {"Content-Type": "application/json"} if body else {}
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            finally:
                conn.close()
            if response.status != 429:
                return response.status, raw
            time.sleep(min(float(response.getheader("Retry-After") or 0.1), 2.0))
        return response.status, raw

    def http_sweep(self, name, truncation, densities):
        status, raw = self.http(
            "POST",
            "/v1/sweep",
            {"benchmark": name, "densities": densities, "clustering": CLUSTERING,
             "max_defects": truncation},
        )
        if status != 200:
            raise RuntimeError("sweep on %s returned HTTP %d" % (name, status))
        points = sorted(json.loads(raw)["points"], key=lambda p: p["index"])
        return [(p["yield"], p["error_bound"], p["truncation"]) for p in points]

    def http_importance(self, name, truncation, mean):
        status, raw = self.http(
            "POST",
            "/v1/importance",
            {"benchmark": name, "mean_defects": mean, "clustering": CLUSTERING,
             "max_defects": truncation},
        )
        if status != 200:
            raise RuntimeError("importance on %s returned HTTP %d" % (name, status))
        return [(e["component"], e["sensitivity"]) for e in json.loads(raw)["ranking"]]

    def server_counters(self):
        status, raw = self.http("GET", "/stats")
        if status != 200:
            raise RuntimeError("GET /stats returned HTTP %d" % status)
        values = {}
        for line in raw.decode().splitlines():
            if line and not line.startswith("#"):
                metric, _, value = line.rpartition(" ")
                values[metric] = float(value)
        return {name: values.get(metric, 0.0) for name, metric in SERVER_COUNTERS.items()}

    def run_served(self):
        """Two closed-loop clients in lock-step.

        The clients send each sweep together and the next pair once both
        replies are in: every pair is one kind of request, on the two
        structures, one each.  The two importance requests of a pair go one
        after the other: side by side, or next to a sweep, their few
        milliseconds depend on which request the server's threads happen to
        serve first.  Pairs come in blocks of four, three sweep pairs and
        one importance pair in a seeded order.  Between blocks,
        with the server idle, this thread times the work units that scale
        the block's requests, and a traced run switches the server's
        recording (odd blocks are traced).
        """
        requests = []
        failures = []
        rss = []
        lock = threading.Lock()
        start_gate = threading.Barrier(SERVED_CLIENTS + 1, timeout=SESSION_WAIT)
        end_gate = threading.Barrier(SERVED_CLIENTS + 1, timeout=SESSION_WAIT)
        state = {"kind": None, "pair": 0, "block": 0}

        def client(cid):
            stream = "client%d" % cid
            while True:
                try:
                    start_gate.wait()
                except threading.BrokenBarrierError:
                    return  # the driving thread gave up
                kind, pair = state["kind"], state["pair"]
                if kind is None:
                    return
                name, truncation = self.structures[(pair + cid) % 2]
                if kind == "importance" and cid:
                    state["turn"].wait(SESSION_WAIT)
                started = time.perf_counter()
                try:
                    if kind == "sweep":
                        densities = draws(self.args.seed, stream, pair, SWEEP_POINTS)
                        output = self.http_sweep(name, truncation, densities)
                    else:
                        densities = draws(self.args.seed, stream, pair, 1)
                        output = self.http_importance(name, truncation, densities[0])
                except Exception as exc:  # counted, reported, fails the run
                    with lock:
                        failures.append("%s on %s: %r" % (kind, name, exc))
                    output = None
                finished = time.perf_counter()
                if kind == "importance" and not cid:
                    state["turn"].set()
                with lock:
                    if len(requests) + 1 == RSS_AFTER_REQUESTS:
                        rss.append(peak_rss_mb(process_tree(self.server.pid)))
                    requests.append(
                        {
                            "kind": kind,
                            "structure": [name, truncation],
                            "densities": densities,
                            "output": output,
                            "seconds": finished - started,
                            "block": state["block"],
                        }
                    )
                try:
                    end_gate.wait()
                except threading.BrokenBarrierError:
                    return

        before = self.server_counters()
        threads = [threading.Thread(target=client, args=(cid,)) for cid in range(SERVED_CLIENTS)]
        for thread in threads:
            thread.start()
        blocks = []
        window = [time.time(), None]
        deadline = time.perf_counter() + self.args.seconds
        unit = gap_unit(calibrate.unit_per_core)
        try:
            while True:
                traced = bool(self.args.trace) and state["block"] % 2 == 1
                if self.args.trace:
                    os.kill(self.server.pid, signal.SIGUSR1 if traced else signal.SIGUSR2)
                kinds = list(SERVED_BLOCK)
                random.Random("%d/block%d" % (self.args.seed, state["block"])).shuffle(kinds)
                started = time.perf_counter()
                for kind in kinds:
                    state["kind"] = kind
                    state["turn"] = threading.Event()
                    start_gate.wait()
                    end_gate.wait()
                    state["pair"] += 1
                seconds = time.perf_counter() - started
                after = gap_unit(calibrate.unit_per_core)
                blocks.append(
                    {"seconds": seconds, "unit": (unit + after) / 2.0, "traced": traced}
                )
                unit = after
                state["block"] += 1
                if time.perf_counter() >= deadline and (
                    not self.args.trace or state["block"] % 2 == 0
                ):
                    break
            state["kind"] = None
            start_gate.wait()
        except BaseException:
            start_gate.abort()
            end_gate.abort()
            raise
        finally:
            for thread in threads:
                thread.join()
        window[1] = time.time()
        for request in requests:
            block = blocks[request.pop("block")]
            request["unit"] = block["unit"]
            request["traced"] = block["traced"]
        rss = rss[0] if rss else peak_rss_mb(process_tree(self.server.pid))
        after = self.server_counters()
        counters = {name: after[name] - before[name] for name in SERVER_COUNTERS}
        busy = [{"seconds": b["seconds"], "unit": b["unit"]} for b in blocks]
        return requests, window, busy, rss, counters, failures

    def stop_server(self):
        tree = process_tree(self.server.pid)
        self.server.send_signal(signal.SIGTERM)
        try:
            self.server.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            for pid in tree:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            self.server.communicate()
        self.log.close()
        # the pool workers are the server's children: none may outlive it
        for pid in tree[1:]:
            if not ended(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    continue
                ended(pid)
        with open(self.log_path, "rb") as fh:
            return fh.read().decode(errors="replace").count("Traceback (most recent call last)")

    # -- the whole session ------------------------------------------------

    def run(self):
        served = self.args.workload == "served-mix"
        setup = {}
        try:
            if served:
                self.setup_served()
            else:
                # the set-up of a serial workload is its own long request
                on_tick = self.tracer.exclude if self.tracer is not None else None
                with calibrate.Interleaved(UNIT_INTERVAL, on_tick) as clock:
                    _, _, units = clock.measure(self.setup_serial)
                setup = {"units": units, "spent": clock.spent}
        except BaseException:
            if served and getattr(self, "server", None) is not None:
                self.stop_server()
            raise
        print("READY " + json.dumps(setup), flush=True)
        if self.args.probe:
            if served:
                self.stop_server()
                shutil.rmtree(self.workdir, ignore_errors=True)
            return 0
        if served:
            try:
                requests, window, busy, rss, counters, failures = self.run_served()
            finally:
                tracebacks = self.stop_server()
            trace = None
            if self.args.trace:
                with open(self.dump_path) as fh:
                    trace = json.load(fh)
            shutil.rmtree(self.workdir, ignore_errors=True)
            importance = [r for r in requests if r["kind"] == "importance"]
            checks = []
        else:
            requests, window, rss = self.run_serial()
            busy = [{"seconds": r["seconds"], "unit": r["unit"]} for r in requests]
            # the serial workloads bypass dispatch and HTTP
            counters, failures, tracebacks = dict.fromkeys(SERVER_COUNTERS, 0.0), [], 0
            trace = self.tracer.dump() if self.tracer is not None else None
            importance, checks = self.importance_probe()
        checks += [check_of(r, served) for r in requests if r["output"] is not None]
        mismatches = verify(self.structures, checks)
        import numpy
        from repro.engine import native

        for request in requests:
            request.pop("densities", None)
            request.pop("output", None)
        report = {
            "requests": requests,
            "importance": importance,
            "window": window,
            "busy": busy,
            "peak_rss_mb": rss,
            "counters": counters,
            "tracebacks": tracebacks,
            "failures": failures,
            "mismatches": mismatches,
            "trace": trace,
            "kernel": "native" if native.available() else "fused",
            "numpy": numpy.__version__,
            "python": sys.version.split()[0],
            "pinned_sizes": {"%s M=%d" % key: value for key, value in PINNED_SIZES.items()},
        }
        print(json.dumps(report), flush=True)
        return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(STRUCTURES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    return Session(parser.parse_args(argv)).run()


if __name__ == "__main__":
    sys.exit(main())
