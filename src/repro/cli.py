"""Command-line interface.

``python -m repro <command>`` gives access to the library without writing
Python:

* ``evaluate FILE``     — yield of a fault tree in the textual format of
  :mod:`repro.faulttree.parser` under a negative-binomial defect model;
* ``benchmark NAME``    — run one of the paper's benchmarks end to end
  (optionally with a Monte-Carlo cross-check);
* ``sweep NAME``        — evaluate a defect-density sweep through the
  engine's batch service: one diagram build per truncation level, all defect
  models of a build evaluated in a single batched kernel pass, optional
  ``--workers``/``--jobs`` build threads (the structures of a batch that
  the service does not hold build side by side), a ``--store-dir``
  structure store and ``--stats`` engine diagnostics;
* ``importance NAME``   — rank the components of a benchmark by yield
  sensitivity (analytic reverse-mode gradients over the linearized ROMDD,
  or ``--fd`` for the legacy central finite difference) and by hardening
  potential (immune-component perturbations, batched through the sweep
  service with optional ``--jobs`` build threads);
* ``cache``             — inspect and manage the persistent structure store
  (``ls``/``info``/``warm``/``clear``): compiled decision-diagram
  structures serialized under ``--store-dir`` so later processes
  warm-start from disk instead of rebuilding;
* ``serve``             — long-lived asyncio HTTP front end over one shared
  sweep service (:mod:`repro.server`): JSON sweep/importance endpoints with
  per-structure-key request coalescing, NDJSON streaming, bounded admission
  control (429 + ``Retry-After``), ``/healthz`` and a Prometheus ``/stats``,
  graceful drain on SIGTERM;
* ``trace FILE``        — summarize a Chrome trace-event file exported with
  ``sweep/importance --trace`` as an indented span tree;
* ``table {1,2,3,4}``   — regenerate one of the paper's tables on the small
  benchmark set;
* ``list``              — list the available benchmark names.

Every command prints a plain-text report to stdout and returns a non-zero
exit code on user errors (unknown benchmark, malformed file...).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional, Sequence

from . import __version__
from .analysis import format_table, table1, table2, table3, table4
from .core.method import evaluate_yield
from .core.montecarlo import estimate_yield_montecarlo
from .core.problem import YieldProblem
from .distributions import DistributionError, NegativeBinomialDefectDistribution
from .faulttree.parser import FaultTreeParseError, load
from .ordering import OrderingSpec
from .ordering.grouped import OrderingError
from .soc import BENCHMARK_NAMES, benchmark_problem

#: Help text of ``--workers``/``--jobs`` on ``sweep`` and ``importance``.
WORKERS_HELP = (
    "build the structures of a batch that are not in memory on N threads "
    "(0 or 1: one at a time); every pass runs in this process"
)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for the test-suite and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Combinatorial yield evaluation of fault-tolerant systems-on-chip "
        "(DSN 2003 reproduction).",
    )
    parser.add_argument("--version", action="version", version="repro %s" % __version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    evaluate = subparsers.add_parser(
        "evaluate", help="evaluate the yield of a fault-tree file"
    )
    evaluate.add_argument("file", help="fault-tree file (see repro.faulttree.parser)")
    _add_defect_options(evaluate)
    _add_method_options(evaluate)
    evaluate.add_argument(
        "--montecarlo",
        type=int,
        metavar="SAMPLES",
        default=0,
        help="also run a Monte-Carlo cross-check with this many samples",
    )

    bench = subparsers.add_parser("benchmark", help="run one of the paper's benchmarks")
    bench.add_argument("name", help="benchmark name, e.g. MS2 or ESEN4x1")
    _add_defect_options(bench, include_lethality=False)
    _add_method_options(bench)
    bench.add_argument(
        "--montecarlo",
        type=int,
        metavar="SAMPLES",
        default=0,
        help="also run a Monte-Carlo cross-check with this many samples",
    )

    sweep = subparsers.add_parser(
        "sweep", help="defect-density sweep through the engine's batch service"
    )
    sweep.add_argument("name", help="benchmark name, e.g. MS2 or ESEN4x1")
    sweep.add_argument(
        "--densities",
        type=float,
        nargs="+",
        metavar="MEAN",
        default=[0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
        help="mean manufacturing defect counts to sweep (default 0.5..3.0)",
    )
    sweep.add_argument(
        "--clustering",
        type=float,
        default=4.0,
        help="negative-binomial clustering parameter alpha (default 4.0)",
    )
    _add_method_options(sweep)
    sweep.add_argument(
        "--workers",
        "--jobs",
        dest="workers",
        type=int,
        default=0,
        metavar="N",
        help=WORKERS_HELP,
    )
    sweep.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="persist compiled structures under DIR: later processes "
        "warm-start from disk instead of rebuilding",
    )
    sweep.add_argument(
        "--stats",
        action="store_true",
        help="print engine statistics (structure reuse, linearization reuse, "
        "kernel passes, store and fault counters, phase times)",
    )
    _add_telemetry_options(sweep)

    importance = subparsers.add_parser(
        "importance",
        help="rank components by yield sensitivity and hardening potential",
    )
    importance.add_argument("name", help="benchmark name, e.g. MS2 or ESEN4x1")
    importance.add_argument(
        "--mean-defects",
        type=float,
        default=2.0,
        help="expected number of manufacturing defects (default 2.0)",
    )
    importance.add_argument(
        "--clustering",
        type=float,
        default=4.0,
        help="negative-binomial clustering parameter alpha (default 4.0)",
    )
    _add_method_options(importance)
    importance.add_argument(
        "--components",
        nargs="+",
        default=None,
        metavar="NAME",
        help="restrict the ranking to these components (default: all)",
    )
    importance.add_argument(
        "--measure",
        choices=("sensitivity", "hardening", "both"),
        default="both",
        help="which importance measure(s) to report (default both)",
    )
    importance.add_argument(
        "--fd",
        action="store_true",
        help="use the legacy central finite-difference sensitivity route "
        "instead of analytic reverse-mode gradients",
    )
    importance.add_argument(
        "--relative-step",
        type=float,
        default=0.05,
        metavar="H",
        help="relative perturbation step of the --fd route, in (0, 1) "
        "(default 0.05)",
    )
    importance.add_argument(
        "--workers",
        "--jobs",
        dest="workers",
        type=int,
        default=0,
        metavar="N",
        help=WORKERS_HELP,
    )
    importance.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="persist compiled structures under DIR and warm-start from disk",
    )
    importance.add_argument(
        "--stats",
        action="store_true",
        help="print engine statistics (gradient passes, batched passes, "
        "structure reuse, phase times)",
    )
    _add_telemetry_options(importance)

    cache = subparsers.add_parser(
        "cache",
        help="inspect and manage the persistent structure store",
    )
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)

    cache_ls = cache_commands.add_parser("ls", help="list the stored structures")
    cache_ls.add_argument("store_dir", metavar="DIR", help="structure store directory")

    cache_info = cache_commands.add_parser(
        "info", help="print the metadata of one stored structure"
    )
    cache_info.add_argument("store_dir", metavar="DIR", help="structure store directory")
    cache_info.add_argument(
        "digest", help="entry digest (a unique prefix is enough, see `cache ls`)"
    )

    cache_warm = cache_commands.add_parser(
        "warm",
        help="compile a benchmark's structure into the store ahead of time",
    )
    cache_warm.add_argument("store_dir", metavar="DIR", help="structure store directory")
    cache_warm.add_argument("name", help="benchmark name, e.g. MS2 or ESEN4x1")
    cache_warm.add_argument(
        "--mean-defects",
        type=float,
        default=2.0,
        help="expected number of manufacturing defects (used to resolve M "
        "when --max-defects is not given; default 2.0)",
    )
    cache_warm.add_argument(
        "--clustering",
        type=float,
        default=4.0,
        help="negative-binomial clustering parameter alpha (default 4.0)",
    )
    _add_method_options(cache_warm)

    cache_clear = cache_commands.add_parser(
        "clear", help="remove stored structures"
    )
    cache_clear.add_argument("store_dir", metavar="DIR", help="structure store directory")
    cache_clear.add_argument(
        "digest",
        nargs="?",
        default=None,
        help="only remove entries matching this digest prefix (default: all)",
    )

    cache_verify = cache_commands.add_parser(
        "verify",
        help="deep-check every stored structure (checksums, shapes, restore)",
    )
    cache_verify.add_argument(
        "store_dir", metavar="DIR", help="structure store directory"
    )
    cache_verify.add_argument(
        "--repair",
        action="store_true",
        help="move corrupt entries into the store's quarantine/ directory "
        "(they are rebuilt on the next sweep that needs them)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve sweep/importance queries over HTTP from one shared engine",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default 127.0.0.1; 0.0.0.0 in containers)",
    )
    serve.add_argument(
        "--port", type=int, default=8000, help="TCP port to bind (default 8000)"
    )
    _add_method_options(serve)
    serve.add_argument(
        "--workers",
        "--jobs",
        dest="workers",
        type=int,
        default=0,
        metavar="N",
        help="has no effect: the server builds every structure of a request "
        "on its --http-threads executor before the batch reaches the "
        "service (accepted so existing command lines still parse)",
    )
    serve.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="persist compiled structures under DIR: restarts warm-start "
        "from disk instead of rebuilding",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        metavar="N",
        help="admit at most N concurrent sweep/importance requests; the "
        "next one gets 429 + Retry-After (default 64)",
    )
    serve.add_argument(
        "--http-threads",
        type=int,
        default=8,
        metavar="N",
        help="threads executing (blocking) engine calls for the event loop "
        "(default 8)",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="how long a SIGTERM drain waits for in-flight requests "
        "(default 10)",
    )

    table = subparsers.add_parser("table", help="regenerate one of the paper's tables")
    table.add_argument("number", type=int, choices=(1, 2, 3, 4))
    table.add_argument(
        "--benchmarks",
        nargs="+",
        default=None,
        metavar="NAME",
        help="benchmarks to include (default: the small set)",
    )
    table.add_argument("--max-defects", type=int, default=None, help="truncation override")

    trace = subparsers.add_parser(
        "trace",
        help="summarize a Chrome trace file exported with --trace as a span tree",
    )
    trace.add_argument("file", help="Chrome trace-event JSON file (from --trace)")
    trace.add_argument(
        "--min-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="hide spans shorter than MS milliseconds (default: show all)",
    )

    subparsers.add_parser("list", help="list the available benchmark names")
    return parser


def _add_telemetry_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="export a hierarchical span trace as Chrome trace-event JSON "
        "to FILE; inspect with chrome://tracing, Perfetto, or "
        "`repro trace FILE`",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="write the engine's metrics registry to FILE in Prometheus "
        "text exposition format",
    )


def _add_defect_options(parser: argparse.ArgumentParser, include_lethality: bool = True) -> None:
    parser.add_argument(
        "--mean-defects",
        type=float,
        default=2.0,
        help="expected number of manufacturing defects (default 2.0)",
    )
    parser.add_argument(
        "--clustering",
        type=float,
        default=4.0,
        help="negative-binomial clustering parameter alpha (default 4.0)",
    )
    if include_lethality:
        parser.add_argument(
            "--poisson",
            action="store_true",
            help="use a Poisson defect count instead of the negative binomial",
        )


def _add_method_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--epsilon",
        type=float,
        default=1e-4,
        help="guaranteed absolute error of the yield estimate (default 1e-4)",
    )
    parser.add_argument("--max-defects", type=int, default=None, help="truncation override")
    parser.add_argument(
        "--ordering",
        default="w",
        help="multiple-valued variable ordering: wv, wvr, vw, vrw, t, w, h (default w)",
    )
    parser.add_argument(
        "--bit-ordering",
        default="ml",
        help="bit-group ordering: ml, lm, t, w, h (default ml)",
    )


def _ordering_from(args) -> OrderingSpec:
    return OrderingSpec(args.ordering, args.bit_ordering)


def _report_result(result, montecarlo_result=None) -> None:
    print(result.summary())
    print("  guaranteed interval : [%.6f, %.6f]" % (result.yield_estimate, result.yield_upper_bound))
    print("  truncation level M  : %d" % result.truncation)
    print("  coded ROBDD nodes   : %d" % result.coded_robdd_size)
    print("  ROMDD nodes         : %d" % result.romdd_size)
    print("  variable ordering   : %s / %s" % result.ordering)
    print("  time (s)            : %.2f" % result.timings.total)
    if montecarlo_result is not None:
        print("  Monte-Carlo check   : %s" % montecarlo_result.summary())


def _run_evaluate(args) -> int:
    try:
        circuit, model = load(args.file)
    except OSError as exc:
        print("error: cannot read %s: %s" % (args.file, exc), file=sys.stderr)
        return 2
    except FaultTreeParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.poisson:
        from .distributions import PoissonDefectDistribution

        distribution = PoissonDefectDistribution(args.mean_defects)
    else:
        distribution = NegativeBinomialDefectDistribution(args.mean_defects, args.clustering)
    try:
        problem = YieldProblem(circuit, model, distribution)
        result = evaluate_yield(
            problem,
            epsilon=args.epsilon,
            max_defects=args.max_defects,
            ordering=_ordering_from(args),
        )
    except (DistributionError, OrderingError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    montecarlo_result = None
    if args.montecarlo:
        montecarlo_result = estimate_yield_montecarlo(problem, args.montecarlo, seed=0)
    _report_result(result, montecarlo_result)
    return 0


def _run_benchmark(args) -> int:
    try:
        problem = benchmark_problem(
            args.name, mean_defects=args.mean_defects, clustering=args.clustering
        )
    except KeyError as exc:
        print("error: %s" % exc.args[0], file=sys.stderr)
        return 2
    try:
        result = evaluate_yield(
            problem,
            epsilon=args.epsilon,
            max_defects=args.max_defects,
            ordering=_ordering_from(args),
        )
    except (OrderingError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    montecarlo_result = None
    if args.montecarlo:
        montecarlo_result = estimate_yield_montecarlo(problem, args.montecarlo, seed=0)
    _report_result(result, montecarlo_result)
    return 0


def _run_sweep(args) -> int:
    from .engine.service import SweepService
    from .obs import trace as obs_trace

    try:
        probe = benchmark_problem(
            args.name, mean_defects=args.densities[0], clustering=args.clustering
        )
    except KeyError as exc:
        print("error: %s" % exc.args[0], file=sys.stderr)
        return 2
    except (DistributionError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    tracer = obs_trace.start() if args.trace else None
    try:
        service = SweepService(
            ordering=_ordering_from(args),
            epsilon=args.epsilon,
            workers=args.workers,
            store_dir=args.store_dir,
        )
        started = time.perf_counter()
        with obs_trace.span(
            "cli.sweep",
            started=args.started,
            benchmark=args.name,
            points=len(args.densities),
        ):
            rows = service.density_sweep(
                lambda mean: benchmark_problem(
                    args.name, mean_defects=mean, clustering=args.clustering
                ),
                args.densities,
                max_defects=args.max_defects,
            )
        elapsed = time.perf_counter() - started
    except (OrderingError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            obs_trace.stop()
    print("Defect-density sweep for %s (%d points)" % (probe.name, len(rows)))
    print(
        format_table(
            ("mean defects", "M", "yield >="),
            [("%g" % mean, "%d" % m, "%.6f" % y) for mean, y, m in rows],
        )
    )
    counter = service.registry.counter
    print(
        "  structures built    : %d (%d reused)"
        % (counter("service.structures.built"), counter("service.structures.reused"))
    )
    print("  time (s)            : %.2f" % elapsed)
    _write_telemetry(args, service, tracer)
    if args.stats:
        _report_engine_stats(service)
    return 0


def _write_telemetry(args, service, tracer) -> None:
    """Write the ``--trace`` / ``--metrics`` files requested on the CLI."""
    if tracer is not None:
        spans = tracer.write_chrome(args.trace)
        print("  trace               : %d spans -> %s" % (spans, args.trace))
    if getattr(args, "metrics", None):
        with open(args.metrics, "w") as handle:
            handle.write(service.registry.expose_text())
        print("  metrics             : %s" % args.metrics)


def _format_metric_value(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return "%g" % value
    return "%d" % value


def _report_engine_stats(service) -> None:
    """Print the engine diagnostics behind ``repro sweep/importance --stats``.

    Every line is generated from the metrics registry, so the labels are
    the namespaced metric names — the same names used by the Prometheus
    exposition (``--metrics``) and by ``GET /stats``.
    """
    snapshot = service.registry.snapshot()
    print("Engine statistics")
    for name in sorted(snapshot["counters"]):
        print("  %-34s %s" % (name, _format_metric_value(snapshot["counters"][name])))
    for name in sorted(snapshot["gauges"]):
        print("  %-34s %s" % (name, snapshot["gauges"][name]))
    for name in sorted(snapshot["histograms"]):
        hist = snapshot["histograms"][name]
        count = hist["count"]
        mean = hist["sum"] / count if count else 0.0
        print(
            "  %-34s count=%d sum=%.3fs mean=%.3fs"
            % (name, count, hist["sum"], mean)
        )


def _run_importance(args) -> int:
    from .analysis.importance import hardening_potential, yield_sensitivity
    from .engine.service import SweepService
    from .obs import trace as obs_trace

    try:
        problem = benchmark_problem(
            args.name, mean_defects=args.mean_defects, clustering=args.clustering
        )
    except KeyError as exc:
        print("error: %s" % exc.args[0], file=sys.stderr)
        return 2
    tracer = obs_trace.start() if args.trace else None
    try:
        service = SweepService(
            ordering=_ordering_from(args),
            epsilon=args.epsilon,
            workers=args.workers,
            store_dir=args.store_dir,
        )
        started = time.perf_counter()
        rows = []
        with obs_trace.span(
            "cli.importance",
            started=args.started,
            benchmark=args.name,
            measure=args.measure,
        ):
            if args.measure in ("sensitivity", "both"):
                sensitivity = yield_sensitivity(
                    problem,
                    components=args.components,
                    relative_step=args.relative_step,
                    max_defects=args.max_defects,
                    epsilon=args.epsilon,
                    method="fd" if args.fd else "analytic",
                    service=service,
                )
                route = (
                    "central finite differences, h=%g" % args.relative_step
                    if args.fd
                    else "analytic reverse-mode gradients"
                )
                rows.append(
                    (
                        "Yield sensitivity (%s)" % route,
                        ("component", "dY / d(rel. P_i)"),
                        [(name, "%+.3e" % value) for name, value in sensitivity],
                    )
                )
            if args.measure in ("hardening", "both"):
                hardening = hardening_potential(
                    problem,
                    components=args.components,
                    max_defects=args.max_defects,
                    epsilon=args.epsilon,
                    service=service,
                )
                rows.append(
                    (
                        "Hardening potential (immune-component perturbation, batched)",
                        ("component", "yield gain"),
                        [(name, "%+.3e" % value) for name, value in hardening],
                    )
                )
        elapsed = time.perf_counter() - started
    except KeyError as exc:
        # importance-layer KeyErrors already carry "unknown component ..."
        print("error: %s" % exc.args[0], file=sys.stderr)
        return 2
    except (DistributionError, OrderingError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            obs_trace.stop()
    print(
        "Component importance for %s (C=%d, mean defects %g)"
        % (problem.name, problem.num_components, args.mean_defects)
    )
    for title, headers, table_rows in rows:
        print()
        print(title)
        print(format_table(headers, table_rows))
    print()
    print("  time (s)            : %.2f" % elapsed)
    _write_telemetry(args, service, tracer)
    if args.stats:
        _report_engine_stats(service)
    return 0


def _run_serve(args) -> int:
    import asyncio

    from .engine.service import SweepService
    from .server import YieldServer
    from .server.app import SERVE_NODE_BUDGET

    try:
        service = SweepService(
            ordering=_ordering_from(args),
            epsilon=args.epsilon,
            workers=args.workers,
            store_dir=args.store_dir,
            node_limit=SERVE_NODE_BUDGET,
        )
    except (OrderingError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    server = YieldServer(
        service,
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        http_threads=args.http_threads,
        drain_grace=args.drain_grace,
    )

    async def main() -> None:
        await server.start()
        print(
            "repro serve: listening on http://%s:%d (workers=%d, max-queue=%d)"
            % (server.host, server.port, args.workers, args.max_queue),
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - signal-timing dependent
        pass
    except OSError as exc:
        # bind failures (port in use, privileged port, bad interface)
        print("error: cannot listen on %s:%d: %s" % (args.host, args.port, exc),
              file=sys.stderr)
        return 2
    print("repro serve: drained, bye")
    return 0


def _run_trace(args) -> int:
    import json

    from .obs.trace import tree_from_chrome

    try:
        with open(args.file, "r") as handle:
            trace = json.load(handle)
    except (OSError, ValueError) as exc:
        print("error: cannot read trace %s: %s" % (args.file, exc), file=sys.stderr)
        return 2
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        print("error: %s is not a Chrome trace-event file" % args.file, file=sys.stderr)
        return 2
    rendered = tree_from_chrome(trace, min_us=args.min_ms * 1000.0)
    if not rendered:
        print("trace %s contains no complete spans" % args.file)
        return 0
    print(rendered)
    return 0


def _run_cache(args) -> int:
    import json

    from .engine.service import structure_key
    from .engine.store import StoreError, StructureStore

    store = StructureStore(args.store_dir)
    if args.cache_command == "ls":
        entries = store.entries()
        if not entries:
            print("structure store %s is empty" % args.store_dir)
            return 0
        print(
            "structure store %s: %d entries, %d bytes"
            % (args.store_dir, len(entries), sum(e.nbytes for e in entries))
        )
        for entry in entries:
            print("  %s" % entry.summary())
        return 0
    if args.cache_command == "info":
        try:
            meta = store.meta_of(args.digest)
        except StoreError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        if meta is None:
            print("error: no entry matches %r" % args.digest, file=sys.stderr)
            return 2
        meta = dict(meta)
        # the layer arrays are bulk payload, not metadata
        meta.get("linearized", {}).pop("layers", None)
        print(json.dumps(meta, indent=2, sort_keys=True))
        return 0
    if args.cache_command == "warm":
        from .core.method import YieldAnalyzer

        try:
            problem = benchmark_problem(
                args.name, mean_defects=args.mean_defects, clustering=args.clustering
            )
        except KeyError as exc:
            print("error: %s" % exc.args[0], file=sys.stderr)
            return 2
        try:
            ordering = _ordering_from(args)
            if args.max_defects is not None:
                truncation = int(args.max_defects)
            else:
                truncation = problem.lethal_defect_distribution().truncation_level(
                    args.epsilon
                )
            analyzer = YieldAnalyzer(ordering, epsilon=args.epsilon)
            compiled = analyzer.compile_for_truncation(problem, truncation)
            nbytes = store.save(
                structure_key(problem, truncation, ordering), compiled
            )
        except (DistributionError, OrderingError, OSError, ValueError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        from .engine.store import digest_of

        digest = digest_of(structure_key(problem, truncation, ordering))
        print(
            "warmed %s (M=%d, %d ROMDD nodes) -> %s (%d bytes)"
            % (problem.name, truncation, compiled.romdd_size, digest[:16], nbytes)
        )
        return 0
    if args.cache_command == "clear":
        removed = store.remove(args.digest) if args.digest else store.clear()
        print("removed %d entries from %s" % (removed, args.store_dir))
        return 0
    if args.cache_command == "verify":
        if not os.path.isdir(args.store_dir):
            # "verified 0 entries" on a typo'd path would read as a pass
            print(
                "error: %s is not a structure store directory" % args.store_dir,
                file=sys.stderr,
            )
            return 2
        rows = store.verify_all(repair=args.repair)
        corrupt = [(digest, problems) for digest, ok, problems in rows if not ok]
        print(
            "verified %d entries in %s: %d ok, %d corrupt"
            % (len(rows), args.store_dir, len(rows) - len(corrupt), len(corrupt))
        )
        for digest, problems in corrupt:
            print("  %s CORRUPT" % digest[:16])
            for problem in problems:
                print("    - %s" % problem)
            if args.repair:
                print("    -> quarantined")
        if corrupt and not args.repair:
            return 1
        return 0
    print("error: unknown cache command %r" % args.cache_command, file=sys.stderr)
    return 2  # pragma: no cover - argparse enforces the choices


def _run_table(args) -> int:
    kwargs = {}
    if args.benchmarks is not None:
        unknown = [name for name in args.benchmarks if name not in BENCHMARK_NAMES]
        if unknown:
            print("error: unknown benchmarks: %s" % ", ".join(unknown), file=sys.stderr)
            return 2
        kwargs["benchmarks"] = args.benchmarks
    if args.number == 1:
        headers, rows = table1()
    elif args.number == 2:
        headers, rows = table2(max_defects=args.max_defects, **kwargs)
    elif args.number == 3:
        headers, rows = table3(max_defects=args.max_defects, **kwargs)
    else:
        headers, rows = table4(max_defects=args.max_defects, **kwargs)
    print("Table %d" % args.number)
    print(format_table(headers, rows))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    # the root span of a traced command reaches back to here, so argument
    # parsing and set-up before tracing starts are covered too
    started = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = started
    try:
        return _dispatch(parser, args)
    except BrokenPipeError:  # pragma: no cover - needs a real closed pipe
        # the reader (head, a pager...) went away mid-report; silence the
        # interpreter's shutdown flush and exit the way a SIGPIPE'd tool does
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 141


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "evaluate":
        return _run_evaluate(args)
    if args.command == "benchmark":
        return _run_benchmark(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "importance":
        return _run_importance(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "cache":
        return _run_cache(args)
    if args.command == "table":
        return _run_table(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "list":
        for name in BENCHMARK_NAMES:
            print(name)
        return 0
    parser.error("unknown command %r" % args.command)  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
