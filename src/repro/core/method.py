"""The combinatorial yield-evaluation method (the paper's contribution).

:class:`YieldAnalyzer` wires the full pipeline of Section 2 together:

1. map the defect model to the lethal-defect model ``(Q'_k, P'_i)``;
2. pick the truncation level ``M`` from the error budget ``epsilon``
   (or accept an explicit ``M``);
3. build the generalized fault tree ``G(w, v_1 .. v_M)`` and its gate-level
   description in binary logic;
4. compute the grouped variable order with the requested heuristics;
5. build the coded ROBDD of ``G`` gate by gate (optionally improving the
   order in place by group-preserving sifting, see
   :mod:`repro.engine.reorder`);
6. convert the coded ROBDD into the ROMDD (bottom-up layer procedure);
7. evaluate ``P(G = 1)`` by the depth-first probability traversal and return
   ``Y_M = 1 - P(G = 1)`` together with the error bound and the size /
   timing statistics the paper reports.

Steps 3-6 only depend on the fault-tree *structure*, the truncation level
and the ordering — not on the defect densities.  :meth:`YieldAnalyzer.compile`
exposes them as a reusable :class:`CompiledYield` so that sweeps over defect
densities re-run only step 7; the batch front-end for that reuse is
:class:`repro.engine.service.SweepService`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..bdd.builder import CircuitBDDBuilder
from ..engine import native
from ..engine.batch import LinearizedDiagram
from ..mdd.from_bdd import convert_bdd_to_mdd
from ..mdd.probability import (
    LevelProfile,
    columns_from_matrices,
    model_matrices_from_columns,
    validate_model_columns,
)
from ..obs import trace as obs_trace
from ..ordering.grouped import GroupedVariableOrder
from ..ordering.strategies import OrderingSpec, compute_grouped_order
from .gfunction import GeneralizedFaultTree, GFunctionError
from .problem import YieldProblem
from .results import StageTimings, YieldGradients, YieldResult


class CompiledYield:
    """The decision-diagram structure of one (problem, M, ordering) triple.

    Holds everything of the pipeline that is independent of the defect
    densities: the generalized fault tree, the grouped variable order, the
    ROMDD and the build statistics.  :meth:`evaluate` runs only the final
    probability traversal, so one compiled structure can serve a whole sweep
    of defect models over the same fault tree.

    Evaluation and differentiation no longer touch the MDD node tables at
    all: they run over the linearized arrays plus the
    :class:`~repro.mdd.probability.LevelProfile` captured at compile time.
    A structure restored from the persistent store
    (:mod:`repro.engine.store`) therefore works with ``gfunction``,
    ``grouped_order`` and ``mdd_manager`` all ``None`` — it carries the
    linearized arrays, the profile and the flat identity fields instead.
    """

    def __init__(
        self,
        *,
        gfunction: Optional[GeneralizedFaultTree],
        grouped_order: Optional[GroupedVariableOrder],
        mdd_manager,
        mdd_root: Optional[int],
        truncation: int,
        coded_robdd_size: int,
        robdd_peak: int,
        robdd_allocated: int,
        gates_processed: int,
        romdd_size: int,
        ordering: OrderingSpec,
        build_timings: Tuple[float, float, float],
        sift_swaps: int = 0,
        reorder_seconds: float = 0.0,
        component_names: Optional[Tuple[str, ...]] = None,
        count_variable_name: Optional[str] = None,
        location_variable_names: Optional[Tuple[str, ...]] = None,
        variable_names: Optional[Tuple[str, ...]] = None,
        binary_variables: Optional[int] = None,
        level_profile: Optional[LevelProfile] = None,
        mdd_allocated: Optional[int] = None,
        linearized: Optional[LinearizedDiagram] = None,
        from_store: bool = False,
        kernel_cache_stats: Optional[Dict[str, Dict[str, int]]] = None,
    ) -> None:
        self.gfunction = gfunction
        self.grouped_order = grouped_order
        self.mdd_manager = mdd_manager
        self.mdd_root = mdd_root
        self.truncation = truncation
        self.coded_robdd_size = coded_robdd_size
        self.robdd_peak = robdd_peak
        self.robdd_allocated = robdd_allocated
        self.gates_processed = gates_processed
        self.romdd_size = romdd_size
        self.ordering = ordering
        self.build_timings = build_timings
        self.sift_swaps = sift_swaps
        #: Wall-clock seconds spent in dynamic reordering during the build.
        self.reorder_seconds = reorder_seconds
        #: Flat identity fields (derived from the heavyweight objects when
        #: they are present; supplied explicitly by the store's restore).
        if gfunction is not None:
            component_names = gfunction.component_names
            count_variable_name = gfunction.count_variable.name
            location_variable_names = tuple(
                v.name for v in gfunction.location_variables
            )
        self.component_names = tuple(component_names or ())
        self.count_variable_name = count_variable_name or "w"
        self.location_variable_names = tuple(location_variable_names or ())
        if grouped_order is not None:
            variable_names = grouped_order.variable_names
            binary_variables = len(grouped_order.flat_bit_order())
        self.variable_names = tuple(variable_names or ())
        self.binary_variables = int(binary_variables or 0)
        if mdd_manager is not None:
            if mdd_allocated is None:
                mdd_allocated = mdd_manager.num_nodes_allocated
            if level_profile is None:
                level_profile = LevelProfile.from_manager(
                    mdd_manager, self.count_variable_name
                )
        self.mdd_allocated = int(mdd_allocated or 0)
        self.level_profile = level_profile
        #: Per-manager computed-table totals captured right after the build
        #: (``{"bdd": {...}, "mdd": {...}}``); not persisted by the store.
        self.kernel_cache_stats = kernel_cache_stats
        #: Whether this structure was warm-started from the persistent store,
        #: and whether that load memory-mapped the fused arrays (store v2).
        self.from_store = from_store
        self.store_mmapped = False
        #: Linearized-array cache of the ROMDD plus its reuse counters.
        self._linearized: Optional[LinearizedDiagram] = linearized
        self.linearize_builds = 0
        self.linearize_reuses = 0

    def linearized(self) -> LinearizedDiagram:
        """Return the flat arrays of the ROMDD, linearizing at most once.

        The compiled diagram never mutates, so repeat sweeps over the same
        structure skip linearization entirely (``linearize_reuses`` counts
        the skips).  Store-restored structures arrive with the arrays
        pre-built (the store persists them), so they never linearize.
        """
        if self._linearized is None:
            if self.mdd_manager is None:
                raise RuntimeError(
                    "structure has neither an MDD manager nor linearized arrays"
                )
            with obs_trace.span("kernel.linearize", nodes=self.romdd_size):
                self._linearized = LinearizedDiagram.from_mdd(
                    self.mdd_manager, self.mdd_root
                )
            self.linearize_builds += 1
        else:
            self.linearize_reuses += 1
        return self._linearized

    def evaluate(self, problem: YieldProblem, *, reused: bool = False) -> YieldResult:
        """Run the probability traversal for ``problem`` on this structure.

        ``problem`` must share the fault-tree structure and component names
        the structure was compiled from; only its defect model (densities,
        lethality, count distribution) may differ.  ``reused`` marks the
        result's ``extra`` diagnostics so reports can tell a fresh build
        from a structure-cache hit.
        """
        return self.evaluate_many([problem], reused=reused)[0]

    def evaluate_many(
        self,
        problems: Sequence[YieldProblem],
        *,
        counts: Optional[Sequence[Sequence[float]]] = None,
        reused: bool = False,
    ) -> List[YieldResult]:
        """Evaluate every defect model in one batched bottom-up pass.

        All ``problems`` must share the fault-tree structure and component
        names the structure was compiled from; only their defect models may
        differ.  The ROMDD is walked **once** for the whole batch (see
        :mod:`repro.engine.batch`), so K models cost one linearized pass
        instead of K traversals.  The first result carries the build
        diagnostics (``reused`` flag and build timings); the rest are
        marked as structure reuses, mirroring the per-point route.

        ``counts`` are the models' lethal count vectors at this structure's
        ``M`` (:meth:`~repro.core.problem.YieldProblem.lethal_counts`).  A
        caller that holds them already — the sweep service computes them
        for its result keys — passes them in; otherwise they are computed
        here, so each model's pmf is evaluated once either way.
        """
        problems = list(problems)
        if not problems:
            return []
        if counts is None:
            counts = [problem.lethal_counts(self.truncation) for problem in problems]
        t0 = time.perf_counter()
        count_matrix, location_matrix = self.model_matrices(problems, counts)
        linearized = self.linearized()
        columns = columns_from_matrices(
            linearized, self.level_profile, count_matrix, location_matrix
        )
        probabilities_failed = linearized.evaluate(columns, len(problems))
        elapsed = time.perf_counter() - t0
        return self.package_results(
            problems,
            [vector[-1] for vector in counts],
            probabilities_failed,
            reused=reused,
            per_point=elapsed / len(problems),
        )

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
        so packaging is timed apart from the kernel pass.  Reused points
        share one frozen :class:`StageTimings`; every result gets its own
        copy of one ``extra`` template, because cached results are handed
        to many callers.
        """
        extra = {
            "robdd_allocated": float(self.robdd_allocated),
            "mdd_allocated": float(self.mdd_allocated),
            "binary_variables": float(self.binary_variables),
            "gates_processed": float(self.gates_processed),
            "structure_reused": 1.0,
            "batched_models": float(len(problems)),
        }
        if self.from_store:
            extra["structure_from_store"] = 1.0
        if self.ordering.sift:
            extra["sift_swaps"] = float(self.sift_swaps)
        reused_timings = StageTimings(probability=per_point)
        ordering = (self.ordering.mv, self.ordering.bits)
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
                    ordering=ordering,
                    variable_order=self.variable_names,
                    timings=timings,
                    extra=point_extra,
                )
            )
        return results

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
        ``max(0, 1 - sum(Q'))`` with a plain left-to-right float sum, the
        value the per-model dict route produced.  Every count column is
        validated; each distinct component model's ``P'`` column is
        validated once and tiled to ``C x K``.

        Returns ``(count_matrix, location_matrix)``, the exact float64
        inputs of the linearized kernel.
        """
        count_columns: List[List[float]] = []
        for vector in counts:
            head = vector[:-1]
            count_columns.append([*head, max(0.0, 1.0 - sum(head))])
        validate_model_columns(count_columns, what="count")
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
        return model_matrices_from_columns(
            count_columns, location_columns, location_slots
        )

    def _location_column(self, problem: YieldProblem) -> List[float]:
        """The ``[P'_1 .. P'_C]`` column of one component model, checked."""
        probabilities = [float(p) for p in problem.lethal_component_probabilities()]
        expected = len(self.component_names)
        if len(probabilities) != expected:
            raise GFunctionError(
                "expected %d component probabilities, got %d"
                % (expected, len(probabilities))
            )
        total = sum(probabilities)
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
        count_level = (
            profile.level_of(self.count_variable_name) if profile is not None else None
        )
        count_rows = (
            level_gradients.get(count_level) if count_level is not None else None
        )
        location_row_sets = []
        for variable_name in self.location_variable_names:
            level = profile.level_of(variable_name) if profile is not None else None
            rows = level_gradients.get(level) if level is not None else None
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
            d_failure_d_lethality = sum(
                g * d for g, d in zip(d_failure_d_count, d_count_d_lethality)
            ) + d_failure_d_count[truncation + 1] * d_overflow_d_lethality

            # chain rule through the conditional hit vector P'_j(P_1..P_C)
            location_dot = sum(
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
        significant bit first inside each group.  Pass a spec with
        ``sift=True`` to additionally run dynamic reordering on the coded
        ROBDD before conversion.
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
        coded ROBDD, optional sifting, ROMDD conversion).  The returned
        :class:`CompiledYield` evaluates any defect model over the same
        fault-tree structure without rebuilding.
        """
        truncation = self._resolve_truncation(problem, max_defects, epsilon)
        return self.compile_for_truncation(problem, truncation)

    def compile_for_truncation(
        self, problem: YieldProblem, truncation: int
    ) -> CompiledYield:
        """Build the structure for an explicit truncation level ``M``."""
        gfunction = GeneralizedFaultTree(
            problem.fault_tree, problem.component_names, int(truncation)
        )

        t0 = time.perf_counter()
        with obs_trace.span("compile.ordering", strategy=self.ordering.key()):
            grouped_order = self._grouped_order(gfunction)
        t1 = time.perf_counter()

        with obs_trace.span("compile.robdd", truncation=int(truncation)) as robdd_span:
            bdd_manager, bdd_root, build_stats = self._build_coded_robdd(
                gfunction, grouped_order
            )
            sift_swaps = 0
            reorder_seconds = 0.0
            if self.ordering.sift:
                t_sift = time.perf_counter()
                grouped_order, sift_swaps = self._sift(
                    bdd_manager, bdd_root, grouped_order
                )
                reorder_seconds = time.perf_counter() - t_sift
                build_stats.final_size = bdd_manager.size(bdd_root)
                if build_stats.final_size > build_stats.peak_live_nodes:
                    build_stats.peak_live_nodes = build_stats.final_size
            robdd_span.set(
                nodes=build_stats.final_size,
                sift_swaps=sift_swaps,
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

        return CompiledYield(
            gfunction=gfunction,
            grouped_order=grouped_order,
            mdd_manager=mdd_manager,
            mdd_root=mdd_root,
            truncation=int(truncation),
            coded_robdd_size=build_stats.final_size,
            robdd_peak=build_stats.peak_live_nodes if self.track_peak else 0,
            robdd_allocated=build_stats.allocated_nodes,
            gates_processed=build_stats.gates_processed,
            romdd_size=romdd_size,
            ordering=self.ordering,
            build_timings=(t1 - t0, t2 - t1, t3 - t2),
            sift_swaps=sift_swaps,
            reorder_seconds=reorder_seconds,
            kernel_cache_stats={
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
        compiled = self.compile_for_truncation(problem, truncation)
        return compiled.coded_robdd_size, compiled.romdd_size

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
        binary_circuit = (
            gfunction.binary_circuit() if self.ordering.needs_circuit() else None
        )
        return compute_grouped_order(
            gfunction.count_variable,
            gfunction.location_variables,
            self.ordering,
            binary_circuit,
        )

    def _build_coded_robdd(
        self, gfunction: GeneralizedFaultTree, grouped_order: GroupedVariableOrder
    ):
        builder = CircuitBDDBuilder(
            grouped_order.flat_bit_order(),
            track_peak=self.track_peak,
            peak_stride=self.peak_stride,
            node_limit=self.node_limit,
        )
        return builder.build(gfunction.binary_circuit())

    def _sift(self, bdd_manager, bdd_root: int, grouped_order: GroupedVariableOrder):
        from ..engine.reorder import sift_grouped

        bdd_manager.ref(bdd_root)
        try:
            new_groups, stats = sift_grouped(
                bdd_manager,
                grouped_order.groups,
                converge=self.ordering.sift_converge,
                window=3 if self.ordering.sift_converge else 0,
            )
        finally:
            bdd_manager.deref(bdd_root)
        return GroupedVariableOrder(new_groups), stats.swaps


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
