"""The combinatorial yield-evaluation method (the paper's contribution).

:class:`YieldAnalyzer` wires the full pipeline of Section 2 together:

1. map the defect model to the lethal-defect model ``(Q'_k, P'_i)``;
2. pick the truncation level ``M`` from the error budget ``epsilon``
   (or accept an explicit ``M``);
3. build the generalized fault tree ``G(w, v_1 .. v_M)`` and its gate-level
   description in binary logic;
4. compute the grouped variable order with the requested heuristics;
5. build the coded ROBDD of ``G`` gate by gate under that fixed order;
6. convert the coded ROBDD into the ROMDD (bottom-up layer procedure);
7. evaluate ``P(G = 1)`` by the depth-first probability traversal and return
   ``Y_M = 1 - P(G = 1)`` together with the error bound and the size /
   timing statistics the paper reports.

Steps 3-6 only depend on the fault-tree *structure*, the truncation level
and the ordering — not on the defect densities.  :meth:`YieldAnalyzer.build`
runs steps 4-6 for any generalized fault tree (``G`` here, ``G_rel`` in
:mod:`repro.reliability`), and :meth:`YieldAnalyzer.compile` packages ``G``'s
as a reusable :class:`CompiledYield` so that sweeps over defect densities
re-run only step 7; the batch front-end for that reuse is
:class:`repro.engine.service.SweepService`.
"""

from __future__ import annotations

import functools
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..bdd.builder import BuildStats, CircuitBDDBuilder
from ..distributions import plain_sum
from ..engine import native
from ..engine.batch import LinearizedDiagram
from ..mdd.from_bdd import convert_bdd_to_mdd
from ..mdd.manager import MDDManager
from ..mdd.probability import (
    LevelProfile,
    columns_from_matrices,
    count_matrix,
    location_matrix,
    validate_model_columns,
)
from ..obs import trace as obs_trace
from ..ordering.grouped import GroupedVariableOrder
from ..ordering.strategies import OrderingSpec, compute_grouped_order
from .gfunction import GeneralizedFaultTree, GFunctionError
from .problem import YieldProblem
from .results import StageTimings, YieldGradients, YieldResult


class StructureRecord(NamedTuple):
    """What a :class:`YieldResult` takes from its structure, one per structure.

    The sizes, ordering and build diagnostics every result of one compiled
    structure shares (:attr:`CompiledYield.record`).  A defect model adds
    only its ``P(G = 1)`` and error bound, so the sweep service hands a
    group's columns back with this one record and packages results only
    where an API returns them.  ``extra`` is the template of
    :attr:`YieldResult.extra`; it is never mutated.
    """

    truncation: int
    coded_robdd_size: int
    robdd_peak: int
    romdd_size: int
    ordering: Tuple[str, str]
    variable_order: Tuple[str, ...]
    build_timings: Tuple[float, float, float]
    extra: Dict[str, float]

    def package(
        self,
        problems: Sequence[YieldProblem],
        error_bounds: Sequence[float],
        probabilities_failed: Sequence[float],
        *,
        reused: bool = False,
        per_point: float = 0.0,
    ) -> List[YieldResult]:
        """One :class:`YieldResult` per model of one pass over this structure.

        Unless ``reused``, the first result is the structure's fresh build:
        it carries the build timings and ``structure_reused = 0``.
        ``extra["batched_models"]`` is the pass's model count,
        ``len(problems)``.  Reused points share one frozen
        :class:`StageTimings`; every result gets its own copy of the
        ``extra`` template, because results are handed to many callers.
        """
        extra = dict(self.extra)
        extra["batched_models"] = float(len(problems))
        reused_timings = StageTimings(probability=per_point)
        results: List[YieldResult] = []
        for problem, error_bound, probability_failed in zip(
            problems, error_bounds, probabilities_failed
        ):
            timings = reused_timings
            point_extra = dict(extra)
            if not (reused or results):
                # the first point of a fresh build carries its timings
                timings = StageTimings(*self.build_timings, probability=per_point)
                point_extra["structure_reused"] = 0.0
            results.append(
                YieldResult(
                    name=problem.name,
                    yield_estimate=1.0 - probability_failed,
                    error_bound=error_bound,
                    truncation=self.truncation,
                    probability_not_functioning=probability_failed,
                    coded_robdd_size=self.coded_robdd_size,
                    robdd_peak=self.robdd_peak,
                    romdd_size=self.romdd_size,
                    ordering=self.ordering,
                    variable_order=self.variable_order,
                    timings=timings,
                    extra=point_extra,
                )
            )
        return results


class BuiltDiagram(NamedTuple):
    """What :meth:`YieldAnalyzer.build` makes of one generalized fault tree.

    The ROMDD with its manager, the grouped order it was built under, the
    coded ROBDD's build statistics, the ``(ordering, coded ROBDD, ROMDD)``
    stage times and both managers' computed-table totals.  The coded
    ROBDD's manager is not kept.
    """

    grouped_order: GroupedVariableOrder
    build_stats: BuildStats
    mdd_manager: MDDManager
    mdd_root: int
    romdd_size: int
    timings: Tuple[float, float, float]
    cache_totals: Dict[str, Dict[str, int]]


class CompiledYield:
    """The decision-diagram structure of one (problem, M, ordering) triple.

    Holds everything of the pipeline that is independent of the defect
    densities: the linearized ROMDD, its
    :class:`~repro.mdd.probability.LevelProfile`, the flat identity fields
    (component and variable names) and the build statistics.
    :meth:`evaluate` runs only the final probability traversal, so one
    compiled structure can serve a whole sweep of defect models over the
    same fault tree.

    A structure has one form whether :meth:`YieldAnalyzer.compile_for_truncation`
    built it or the persistent store (:mod:`repro.engine.store`) restored
    it: the diagram is linearized when it is compiled, and neither the
    decision-diagram managers nor the circuits of ``G`` outlive the build.
    """

    def __init__(
        self,
        *,
        truncation: int,
        coded_robdd_size: int,
        robdd_peak: int,
        robdd_allocated: int,
        gates_processed: int,
        romdd_size: int,
        ordering: OrderingSpec,
        build_timings: Tuple[float, float, float],
        component_names: Tuple[str, ...],
        count_variable_name: str,
        location_variable_names: Tuple[str, ...],
        variable_names: Tuple[str, ...],
        binary_variables: int,
        level_profile: LevelProfile,
        mdd_allocated: int,
        linearized: LinearizedDiagram,
        kernel_cache_stats: Dict[str, Dict[str, int]],
        from_store: bool = False,
    ) -> None:
        self.truncation = truncation
        self.coded_robdd_size = coded_robdd_size
        self.robdd_peak = robdd_peak
        self.robdd_allocated = robdd_allocated
        self.gates_processed = gates_processed
        self.romdd_size = romdd_size
        self.ordering = ordering
        self.build_timings = build_timings
        self.component_names = tuple(component_names)
        self.count_variable_name = count_variable_name
        self.location_variable_names = tuple(location_variable_names)
        self.variable_names = tuple(variable_names)
        self.binary_variables = int(binary_variables)
        self.level_profile = level_profile
        self.mdd_allocated = int(mdd_allocated)
        self._linearized = linearized
        #: Per-manager computed-table totals captured right after the build
        #: (``{"bdd": {...}, "mdd": {...}}``); empty for a restored structure.
        self.kernel_cache_stats = kernel_cache_stats
        #: Whether this structure was warm-started from the persistent store,
        #: and whether that load memory-mapped the fused arrays (store v2).
        self.from_store = from_store
        self.store_mmapped = False

    def linearized(self) -> LinearizedDiagram:
        """The flat arrays of the ROMDD, made when the structure was compiled."""
        return self._linearized

    def evaluate(self, problem: YieldProblem) -> YieldResult:
        """Run the probability traversal for ``problem`` on this structure.

        ``problem`` must share the fault-tree structure and component names
        the structure was compiled from; only its defect model (densities,
        lethality, count distribution) may differ.
        """
        return self.evaluate_many([problem])[0]

    def evaluate_many(self, problems: Sequence[YieldProblem]) -> List[YieldResult]:
        """Evaluate every defect model in one batched bottom-up pass.

        All ``problems`` must share the fault-tree structure and component
        names the structure was compiled from; only their defect models may
        differ.  The ROMDD is walked **once** for the whole batch (see
        :meth:`probabilities`), so K models cost one linearized pass
        instead of K traversals.  Each model's pmf is evaluated once, for
        its count column and its error bound.  The first result carries the
        build diagnostics (build timings, ``structure_reused = 0``); the
        rest are marked as structure reuses.
        """
        problems = list(problems)
        if not problems:
            return []
        counts = [problem.lethal_counts(self.truncation) for problem in problems]
        t0 = time.perf_counter()
        probabilities_failed = self.probabilities(problems, counts)
        elapsed = time.perf_counter() - t0
        return self.package_results(
            problems,
            [vector[-1] for vector in counts],
            probabilities_failed,
            per_point=elapsed / len(problems),
        )

    def probabilities(
        self,
        problems: Sequence[YieldProblem],
        counts: Sequence[Sequence[float]],
    ) -> List[float]:
        """``P(G = 1)`` of every defect model: the column of one kernel pass.

        ``counts`` holds each model's lethal count vector at this
        structure's ``M``.  The pass assembles the two model matrices
        (:meth:`model_matrices`), maps them onto the diagram's levels and
        walks the linearized ROMDD once for all K models.  Every
        evaluation route runs through here: :meth:`evaluate_many` and the
        sweep service, whose sweeps read this column and package no
        :class:`YieldResult`.
        """
        count_matrix, location_matrix = self.model_matrices(problems, counts)
        linearized = self.linearized()
        columns = columns_from_matrices(
            linearized, self.level_profile, count_matrix, location_matrix
        )
        return linearized.evaluate(columns, len(problems))

    def package_results(
        self,
        problems: Sequence[YieldProblem],
        error_bounds: Sequence[float],
        probabilities_failed: Sequence[float],
        *,
        reused: bool = False,
        per_point: float = 0.0,
    ) -> List[YieldResult]:
        """Turn raw traversal probabilities into :class:`YieldResult` records.

        ``error_bounds`` are the models' truncation error bounds, the tails
        of their lethal count vectors.  Split out of :meth:`evaluate_many`
        so packaging is timed apart from the kernel pass; the work is
        :meth:`StructureRecord.package` on this structure's :attr:`record`.
        """
        return self.record.package(
            problems,
            error_bounds,
            probabilities_failed,
            reused=reused,
            per_point=per_point,
        )

    @functools.cached_property
    def record(self) -> "StructureRecord":
        """This structure's share of every :class:`YieldResult`, made once."""
        extra = {
            "robdd_allocated": float(self.robdd_allocated),
            "mdd_allocated": float(self.mdd_allocated),
            "binary_variables": float(self.binary_variables),
            "gates_processed": float(self.gates_processed),
            "structure_reused": 1.0,
            "batched_models": 0.0,
        }
        if self.from_store:
            extra["structure_from_store"] = 1.0
        return StructureRecord(
            truncation=self.truncation,
            coded_robdd_size=self.coded_robdd_size,
            robdd_peak=self.robdd_peak,
            romdd_size=self.romdd_size,
            ordering=(self.ordering.mv, self.ordering.bits),
            variable_order=self.variable_names,
            build_timings=tuple(self.build_timings),
            extra=extra,
        )

    def model_matrices(
        self,
        problems: Sequence[YieldProblem],
        counts: Sequence[Sequence[float]],
    ):
        """Assemble the two shared ``cardinality x K`` model matrices.

        ``counts`` holds one vector of ``M + 2`` floats per model whose
        first ``M + 1`` entries are ``Q'_0 .. Q'_M``: a lethal count
        vector, or the ``pmf_vector(M + 1)`` of the gradient pass.  Its
        last entry is not read — the column's saturated entry is
        ``max(0, 1 - sum(Q'))`` with a plain left-to-right float sum
        (:func:`~repro.distributions.plain_sum`), the value the per-model
        dict route produced.  :func:`~repro.mdd.probability.count_matrix`
        builds and validates the count columns; each distinct component
        model's ``P'`` column is validated once and tiled to ``C x K``.

        Returns ``(count_matrix, location_matrix)``, the exact float64
        inputs of the linearized kernel.
        """
        counts_by_model = count_matrix(counts)
        location_columns: List[List[float]] = []
        slot_of: Dict[int, int] = {}
        location_slots: List[int] = []
        for problem in problems:
            components = problem.components
            slot = slot_of.get(id(components))
            if slot is None:
                slot = slot_of[id(components)] = len(location_columns)
                location_columns.append(self._location_column(problem))
            location_slots.append(slot)
        validate_model_columns(location_columns, what="location")
        return counts_by_model, location_matrix(location_columns, location_slots)

    def _location_column(self, problem: YieldProblem) -> List[float]:
        """The ``[P'_1 .. P'_C]`` column of one component model, checked."""
        probabilities = [float(p) for p in problem.lethal_component_probabilities()]
        expected = len(self.component_names)
        if len(probabilities) != expected:
            raise GFunctionError(
                "expected %d component probabilities, got %d"
                % (expected, len(probabilities))
            )
        total = plain_sum(probabilities)
        if abs(total - 1.0) > 1e-6:
            raise GFunctionError(
                "lethal component probabilities must sum to 1, got %g" % total
            )
        return probabilities

    def gradients_many(
        self,
        problems: Sequence[YieldProblem],
    ) -> List[YieldGradients]:
        """Differentiate ``Y_M`` for every defect model in one extra pass.

        Runs the linearized forward pass plus one reverse (adjoint) pass —
        K models at once — to obtain the exact diagram-level gradients
        ``dP(G=1)/dP(w=k)`` and ``dP(G=1)/dP(v_l=i)``, then closes the chain
        rule through the lethal-defect model:

        * the conditional hit probabilities ``P'_j = P_j / P_L`` give
          ``dP'_j / dP_i = (delta_ij - P'_j) / P_L``;
        * the thinned count distribution satisfies the exact identity
          ``dQ'_k / dP_L = (k Q'_k - (k+1) Q'_{k+1}) / P_L`` (differentiate
          ``Q'_k = sum_n Q_n C(n,k) p^k (1-p)^{n-k}`` and use
          ``(n-k) C(n,k) = (k+1) C(n,k+1)``), which holds for *any* count
          distribution under binomial thinning — so no per-family derivative
          code is needed;
        * the saturated entry ``P(w = M+1) = P(N' > M)`` telescopes to
          ``d/dP_L = (M+1) Q'_{M+1} / P_L``.

        The result is ``dY_M/dP_i`` for every component of every model — the
        quantity the finite-difference importance route needed two full
        evaluations per component to approximate.
        """
        problems = list(problems)
        if not problems:
            return []
        truncation = self.truncation
        # one pmf evaluation per model: Q'_0 .. Q'_M form the count column,
        # and Q'_{M+1} joins them in the chain rule below
        qprimes = [
            problem.lethal_defect_distribution().pmf_vector(truncation + 1)
            for problem in problems
        ]
        linearized = self.linearized()
        columns = columns_from_matrices(
            linearized, self.level_profile, *self.model_matrices(problems, qprimes)
        )
        probabilities_failed, level_gradients = linearized.backward(
            columns, len(problems)
        )

        names = self.component_names
        profile = self.level_profile
        # per-level gradient rows mapped back to the variables; levels the
        # diagram skips have identically-zero gradients (their probability
        # entries are never read), matching the old dict route's zero fill
        count_rows = level_gradients.get(profile.level_of(self.count_variable_name))
        location_row_sets = []
        for variable_name in self.location_variable_names:
            rows = level_gradients.get(profile.level_of(variable_name))
            if rows is not None:
                location_row_sets.append(rows)
        out: List[YieldGradients] = []
        for model, (problem, qprime, probability_failed) in enumerate(
            zip(problems, qprimes, probabilities_failed)
        ):
            lethality = problem.lethality
            conditional = problem.lethal_component_probabilities()
            raw = problem.components.raw_probabilities()

            # diagram-level gradients: the count variable and the per-defect
            # location variables (summed over defect positions l, in
            # v_1 .. v_M order so the float accumulation matches the
            # per-variable route bit for bit)
            if count_rows is not None:
                d_failure_d_count = tuple(
                    count_rows[value][model] for value in range(truncation + 2)
                )
            else:
                d_failure_d_count = (0.0,) * (truncation + 2)
            location_sums = [0.0] * len(names)
            for rows in location_row_sets:
                for index in range(len(names)):
                    location_sums[index] += rows[index][model]

            # chain rule through the thinned count distribution Q'_k(P_L)
            d_count_d_lethality = [
                (k * qprime[k] - (k + 1) * qprime[k + 1]) / lethality
                for k in range(truncation + 1)
            ]
            d_overflow_d_lethality = (truncation + 1) * qprime[truncation + 1] / lethality
            d_failure_d_lethality = plain_sum(
                g * d for g, d in zip(d_failure_d_count, d_count_d_lethality)
            ) + d_failure_d_count[truncation + 1] * d_overflow_d_lethality

            # chain rule through the conditional hit vector P'_j(P_1..P_C)
            location_dot = plain_sum(
                s * p for s, p in zip(location_sums, conditional)
            )
            d_yield_d_raw = {}
            sensitivity = {}
            for index, name in enumerate(names):
                d_failure = d_failure_d_lethality + (
                    location_sums[index] - location_dot
                ) / lethality
                d_yield_d_raw[name] = -d_failure
                sensitivity[name] = -d_failure * raw[index]
            out.append(
                YieldGradients(
                    name=problem.name,
                    truncation=truncation,
                    probability_not_functioning=probability_failed,
                    yield_estimate=1.0 - probability_failed,
                    d_yield_d_raw=d_yield_d_raw,
                    sensitivity=sensitivity,
                    d_failure_d_count=d_failure_d_count,
                    d_failure_d_location=dict(zip(names, location_sums)),
                )
            )
        return out


class YieldAnalyzer:
    """Evaluates the yield of a fault-tolerant SoC with the combinatorial method.

    Parameters
    ----------
    ordering:
        The variable-ordering strategy.  Defaults to the pair the paper found
        best: weight heuristic for the multiple-valued variables, most
        significant bit first inside each group.  The order is fixed
        before the coded ROBDD is built and never changes.
    epsilon:
        Absolute error budget used to select the truncation level ``M`` when
        :meth:`evaluate` is not given an explicit ``max_defects``.
    track_peak:
        Record the live ROBDD peak (the paper's "ROBDD peak" column).  Costs
        one reachability sweep every ``peak_stride`` gates.
    peak_stride:
        Stride for peak sampling.
    node_limit:
        Optional cap on allocated ROBDD nodes; exceeding it raises
        :class:`repro.bdd.builder.ResourceLimitExceeded` (the paper's
        "failed" entries).
    """

    def __init__(
        self,
        ordering: Optional[OrderingSpec] = None,
        *,
        epsilon: float = 1e-4,
        track_peak: bool = False,
        peak_stride: int = 1,
        node_limit: Optional[int] = None,
    ) -> None:
        self.ordering = ordering or OrderingSpec("w", "ml")
        self.epsilon = float(epsilon)
        self.track_peak = track_peak
        self.peak_stride = peak_stride
        self.node_limit = node_limit

    # ------------------------------------------------------------------ #
    # Main entry points
    # ------------------------------------------------------------------ #

    def evaluate(
        self,
        problem: YieldProblem,
        *,
        max_defects: Optional[int] = None,
        epsilon: Optional[float] = None,
    ) -> YieldResult:
        """Run the full method on ``problem`` and return a :class:`YieldResult`.

        ``max_defects`` overrides the error-driven choice of ``M``; when it is
        given, the reported error bound is still the exact tail mass beyond
        it, so the result remains a guaranteed lower bound on the yield.
        """
        compiled = self.compile(problem, max_defects=max_defects, epsilon=epsilon)
        return compiled.evaluate(problem)

    def compile(
        self,
        problem: YieldProblem,
        *,
        max_defects: Optional[int] = None,
        epsilon: Optional[float] = None,
    ) -> CompiledYield:
        """Build the reusable decision-diagram structure for ``problem``.

        Runs steps 3-6 of the pipeline (fault-tree generalization, ordering,
        coded ROBDD, ROMDD conversion).  The returned
        :class:`CompiledYield` evaluates any defect model over the same
        fault-tree structure without rebuilding.
        """
        truncation = self._resolve_truncation(problem, max_defects, epsilon)
        return self.compile_for_truncation(problem, truncation)

    def compile_for_truncation(
        self, problem: YieldProblem, truncation: int
    ) -> CompiledYield:
        """Build the structure for an explicit truncation level ``M``.

        Runs :meth:`build` on ``G`` and linearizes the ROMDD; the ROMDD's
        stage time includes the linearization.  The managers are not kept.
        """
        gfunction = GeneralizedFaultTree(
            problem.fault_tree, problem.component_names, int(truncation)
        )
        built = self.build(gfunction)
        started = time.perf_counter()
        with obs_trace.span("kernel.linearize", nodes=built.romdd_size):
            linearized = LinearizedDiagram.from_mdd(built.mdd_manager, built.mdd_root)
        ordering_time, robdd_time, romdd_time = built.timings
        stats = built.build_stats
        return CompiledYield(
            truncation=int(truncation),
            coded_robdd_size=stats.final_size,
            robdd_peak=stats.peak_live_nodes if self.track_peak else 0,
            robdd_allocated=stats.allocated_nodes,
            gates_processed=stats.gates_processed,
            romdd_size=built.romdd_size,
            ordering=self.ordering,
            build_timings=(
                ordering_time,
                robdd_time,
                romdd_time + time.perf_counter() - started,
            ),
            component_names=gfunction.component_names,
            count_variable_name=gfunction.count_variable.name,
            location_variable_names=tuple(v.name for v in gfunction.location_variables),
            variable_names=built.grouped_order.variable_names,
            binary_variables=len(built.grouped_order.flat_bit_order()),
            level_profile=LevelProfile.from_manager(
                built.mdd_manager, gfunction.count_variable.name
            ),
            mdd_allocated=built.mdd_manager.num_nodes_allocated,
            linearized=linearized,
            kernel_cache_stats=built.cache_totals,
        )

    def build(self, gfunction: GeneralizedFaultTree) -> BuiltDiagram:
        """Grouped order, coded ROBDD, then ROMDD of ``gfunction``.

        The one place a generalized fault tree becomes a ROMDD: steps 4-6 of
        the pipeline, each in its ``compile.*`` span.  Every structure of
        :meth:`compile_for_truncation` and every ``G_rel`` of
        :class:`repro.reliability.ReliabilityAnalyzer` is made here.
        """
        t0 = time.perf_counter()
        with obs_trace.span("compile.ordering", strategy=self.ordering.key()):
            grouped_order = self._grouped_order(gfunction)
        t1 = time.perf_counter()

        with obs_trace.span("compile.robdd", truncation=gfunction.max_defects) as robdd_span:
            builder = CircuitBDDBuilder(
                grouped_order.flat_bit_order(),
                track_peak=self.track_peak,
                peak_stride=self.peak_stride,
                node_limit=self.node_limit,
            )
            bdd_manager, bdd_root, build_stats = builder.build(gfunction.binary_circuit())
            build_cache = bdd_manager.cache_totals()
            robdd_span.set(
                nodes=build_stats.final_size,
                created=build_stats.allocated_nodes,
                lookups=build_cache["hits"] + build_cache["misses"],
                backend=build_stats.backend,
            )
        t2 = time.perf_counter()

        with obs_trace.span("compile.romdd") as romdd_span:
            # the converted root arrives referenced, and size() counts on the
            # loaded arrays: neither builds the manager's node lists
            mdd_manager, mdd_root = convert_bdd_to_mdd(
                bdd_manager, bdd_root, grouped_order.groups
            )
            romdd_size = mdd_manager.size(mdd_root)
            romdd_span.set(
                nodes=romdd_size, backend="native" if native.available() else "numpy"
            )
        t3 = time.perf_counter()

        return BuiltDiagram(
            grouped_order=grouped_order,
            build_stats=build_stats,
            mdd_manager=mdd_manager,
            mdd_root=mdd_root,
            romdd_size=romdd_size,
            timings=(t1 - t0, t2 - t1, t3 - t2),
            cache_totals={
                "bdd": bdd_manager.cache_totals(),
                "mdd": mdd_manager.cache_totals(),
            },
        )

    # ------------------------------------------------------------------ #
    # Partial pipelines (used by the size-comparison benchmarks)
    # ------------------------------------------------------------------ #

    def grouped_order_for(self, problem: YieldProblem, max_defects: int) -> GroupedVariableOrder:
        """Return the grouped variable order for the problem at truncation ``M``."""
        gfunction = GeneralizedFaultTree(
            problem.fault_tree, problem.component_names, max_defects
        )
        return self._grouped_order(gfunction)

    def diagram_sizes(
        self, problem: YieldProblem, *, max_defects: Optional[int] = None
    ) -> Tuple[int, int]:
        """Return ``(coded_robdd_size, romdd_size)`` without the probability pass.

        This is what Tables 2 and 3 of the paper compare across orderings.
        """
        truncation = self._resolve_truncation(problem, max_defects, None)
        built = self.build(
            GeneralizedFaultTree(problem.fault_tree, problem.component_names, truncation)
        )
        return built.build_stats.final_size, built.romdd_size

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _resolve_truncation(
        self,
        problem: YieldProblem,
        max_defects: Optional[int],
        epsilon: Optional[float],
    ) -> int:
        if max_defects is not None:
            return int(max_defects)
        budget = self.epsilon if epsilon is None else float(epsilon)
        return problem.lethal_defect_distribution().truncation_level(budget)

    def _grouped_order(self, gfunction: GeneralizedFaultTree) -> GroupedVariableOrder:
        """The strategy's order of ``w, v_1 .. v_M``; field variables below it."""
        binary_circuit = (
            gfunction.binary_circuit() if self.ordering.needs_circuit() else None
        )
        defect_order = compute_grouped_order(
            gfunction.count_variable,
            gfunction.location_variables,
            self.ordering,
            binary_circuit,
        )
        return GroupedVariableOrder(
            defect_order.groups
            + tuple((variable, variable.bit_names()) for variable in gfunction.field_variables)
        )


def evaluate_yield(
    problem: YieldProblem,
    *,
    epsilon: float = 1e-4,
    max_defects: Optional[int] = None,
    ordering: Optional[OrderingSpec] = None,
    track_peak: bool = False,
    node_limit: Optional[int] = None,
) -> YieldResult:
    """One-call convenience wrapper around :class:`YieldAnalyzer`."""
    analyzer = YieldAnalyzer(
        ordering,
        epsilon=epsilon,
        track_peak=track_peak,
        node_limit=node_limit,
    )
    return analyzer.evaluate(problem, max_defects=max_defects)
