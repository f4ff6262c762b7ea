"""Building the ROBDD of a gate-level circuit.

This is the "processing of the generalized fault tree" step of the paper:
given the binary-encoded circuit of ``G(w, v_1 .. v_M)`` and a variable
order, build the coded ROBDD gate by gate.  The builder also records the
statistic the paper reports as *ROBDD peak* — the maximum total number of
nodes of the ROBDDs that have to be held simultaneously in memory while the
circuit is processed (the intermediate gate functions that are still needed
by unprocessed gates).

Two routes build the same diagram.  The native route hands the whole gate
list to the C builder of :mod:`repro.engine.native` in one call and
bulk-loads the reachable result into an ordinary :class:`BDDManager`.
The Python gate loop runs instead when the caller supplies the manager,
when the peak is tracked, or when the native library cannot be built on
this host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine import native
from ..engine.kernel import recursion_guard
from ..faulttree.circuit import Circuit
from ..faulttree.ops import GateOp
from .manager import FALSE, TRUE, BDDError, BDDManager


class ResourceLimitExceeded(RuntimeError):
    """Raised when a build exceeds its node budget (the paper's "failed" runs)."""


@dataclass
class BuildStats:
    """Statistics collected while building the ROBDD of a circuit."""

    #: Number of nodes of the final ROBDD (terminals included).
    final_size: int = 0
    #: Maximum over processing steps of the shared size of all live ROBDDs.
    peak_live_nodes: int = 0
    #: Total number of unique nodes ever allocated by the manager.
    allocated_nodes: int = 0
    #: Number of gates processed.
    gates_processed: int = 0
    #: Per-gate live size samples (only populated when peak tracking is on).
    live_samples: List[int] = field(default_factory=list)
    #: Which route built the diagram: ``"native"`` or ``"python"``.
    backend: str = "python"


class CircuitBDDBuilder:
    """Builds the ROBDD of a circuit's primary output under a given order.

    Parameters
    ----------
    variable_order:
        Names of the circuit inputs from the top of the ROBDD downwards.
        Every input in the support of the output must appear; inputs the
        function does not depend on may be omitted.
    track_peak:
        When true, the live shared node count is recomputed after every
        processed gate; this is the paper's "peak" column but costs a full
        reachability sweep per gate.  When false only the final size and the
        total allocation count are reported.
    peak_stride:
        Recompute the live size only every ``peak_stride`` gates (1 = every
        gate).  Larger strides under-estimate the peak slightly but make the
        sweep affordable for large circuits.
    node_limit:
        Abort the build with :class:`ResourceLimitExceeded` once the manager
        has allocated more than this many nodes.  This reproduces the
        "failed due to excessive memory requirements" entries of Table 2 in
        a controlled way.  ``None`` disables the check.  The limit counts
        nodes ever *created* (monotone) and is checked after every gate; the
        native route stops a gate as soon as the count passes the limit,
        which fails the same gate.  Outcomes near the limit depend on the
        route: the native route counts each distinct node once, exactly like
        the gate loop without ``collect_garbage``, while the collecting gate
        loop also counts nodes it reclaims and builds again, so a limit just
        above the distinct count can pass natively and fail on that loop.
    collect_garbage:
        Reference-count the intermediate gate functions and let the manager
        reclaim dead nodes at its :meth:`repro.engine.kernel.DDKernel.checkpoint`
        points between gates.  Keeps the live table bounded by what later
        gates still need instead of everything ever built.  The native
        route never collects: it allocates every distinct node once.
    """

    def __init__(
        self,
        variable_order: Sequence[str],
        *,
        track_peak: bool = True,
        peak_stride: int = 1,
        node_limit: Optional[int] = None,
        collect_garbage: bool = True,
    ) -> None:
        if peak_stride < 1:
            raise ValueError("peak_stride must be >= 1")
        if node_limit is not None and node_limit < 2:
            raise ValueError("node_limit must be at least 2")
        self._order = list(variable_order)
        self._track_peak = track_peak
        self._peak_stride = peak_stride
        self._node_limit = node_limit
        self._collect_garbage = collect_garbage

    def build(self, circuit: Circuit, manager: Optional[BDDManager] = None):
        """Return ``(manager, root, stats)`` for the circuit's primary output.

        A fresh :class:`BDDManager` is created unless one is supplied (it must
        then contain every needed variable).  A fresh manager without peak
        tracking is filled by the native builder when it is available.
        """
        output = circuit.primary_output
        cone = circuit.cone(output)
        support_names = {circuit.node(i).name for i in circuit.support(output)}
        missing = support_names.difference(self._order)
        if missing:
            raise BDDError(
                "variable order is missing circuit inputs: %s" % ", ".join(sorted(missing))
            )
        if manager is None:
            manager = BDDManager(self._order)
            if not self._track_peak and native.available():
                return self._build_native(circuit, manager, cone, output)

        # ITE recurses at most twice per level, so chain-shaped circuits
        # with thousands of variables need an explicit recursion budget
        with recursion_guard(2 * manager.num_variables + 200):
            return self._build_guarded(circuit, manager, cone, output)

    def _build_guarded(self, circuit: Circuit, manager: BDDManager, cone, output):
        stats = BuildStats()
        # every value is a (handle, complemented) pair: see _apply_gate
        node_bdd: Dict[int, Tuple[int, bool]] = {}

        # fanout counts restricted to the cone let us drop intermediate results
        # as soon as the last reader has been processed, which is what the
        # paper's peak statistic measures.
        remaining_readers: Dict[int, int] = {idx: 0 for idx in cone}
        for idx in cone:
            node = circuit.node(idx)
            if node.is_gate:
                for f in node.fanins:
                    remaining_readers[f] += 1

        gc = self._collect_garbage
        gates_since_sample = 0
        for idx in sorted(cone):
            node = circuit.node(idx)
            if node.is_input:
                handle = manager.var(node.name)
                node_bdd[idx] = (handle, False)
                if gc:
                    manager.ref(handle)
                continue
            if node.is_const:
                node_bdd[idx] = (TRUE if node.name == "1" else FALSE, False)
                continue

            handle, complemented = self._apply_gate(
                manager, node.op, [node_bdd[f] for f in node.fanins]
            )
            if complemented and idx == output:
                # the one NOT a complemented output costs, inside its gate
                handle, complemented = manager.not_(handle), False
            node_bdd[idx] = (handle, complemented)
            stats.gates_processed += 1
            if gc:
                manager.ref(handle)

            if (
                self._node_limit is not None
                and manager.num_nodes_allocated > self._node_limit
            ):
                raise ResourceLimitExceeded(
                    "ROBDD build exceeded the node limit (%d allocated > %d) after %d gates"
                    % (manager.num_nodes_allocated, self._node_limit, stats.gates_processed)
                )

            # release fanins whose last reader was this gate
            for f in node.fanins:
                remaining_readers[f] -= 1
                if remaining_readers[f] == 0 and f != output:
                    released = node_bdd.pop(f, None)
                    if gc and released is not None:
                        manager.deref(released[0])

            if gc:
                # every function still needed is ref-protected, so this is a
                # safe point for the kernel to reclaim dead intermediates
                manager.checkpoint()

            gates_since_sample += 1
            if self._track_peak and gates_since_sample >= self._peak_stride:
                gates_since_sample = 0
                live = manager.reachable_size(handle for handle, _ in node_bdd.values())
                stats.live_samples.append(live)
                if live > stats.peak_live_nodes:
                    stats.peak_live_nodes = live

        root = node_bdd[output][0]
        if gc:
            # keep the final diagram protected; release the other handles
            # (deref is a no-op for terminals, so const entries are safe)
            manager.ref(root)
            for handle, _ in node_bdd.values():
                manager.deref(handle)
        stats.final_size = manager.size(root)
        stats.allocated_nodes = manager.num_nodes_allocated
        if stats.final_size > stats.peak_live_nodes:
            stats.peak_live_nodes = stats.final_size
        return manager, root, stats

    def _build_native(self, circuit: Circuit, manager: BDDManager, cone, output):
        """Build through the C builder and bulk-load ``manager`` with it."""
        order = sorted(cone)
        position = {idx: pos for pos, idx in enumerate(order)}
        kinds: List[int] = []
        args: List[int] = []
        starts = [0]
        fanins: List[int] = []
        for idx in order:
            node = circuit.node(idx)
            if node.is_input:
                kinds.append(native.NODE_INPUT)
                args.append(manager.level_of(node.name))
            else:
                if node.is_const:
                    kinds.append(native.NODE_CONST1 if node.name == "1" else native.NODE_CONST0)
                else:
                    kinds.append(native.NODE_GATE_KINDS[node.op.name])
                    fanins.extend(position[f] for f in node.fanins)
                args.append(0)
            starts.append(len(fanins))
        status, info, arrays = native.build_bdd(
            *(np.asarray(values, dtype=np.int64) for values in (kinds, args, starts, fanins)),
            position[output],
            manager.num_variables,
            self._node_limit,
        )
        if status == native.BUILD_NODE_LIMIT:
            raise ResourceLimitExceeded(
                "ROBDD build exceeded the node limit (%d allocated > %d) after %d gates"
                % (max(info["created"], self._node_limit + 1), self._node_limit, info["gates"])
            )
        root = manager.load_diagram(
            *arrays, info["root"], created=info["created"], cache_stats=info
        )
        # a non-constant reduced diagram reaches both terminals
        size = info["nodes"] + 2 if root > TRUE else 1
        stats = BuildStats(
            final_size=size,
            peak_live_nodes=size,
            allocated_nodes=info["created"],
            gates_processed=info["gates"],
            backend="native",
        )
        return manager, root, stats

    @staticmethod
    def _apply_gate(
        manager: BDDManager, op: GateOp, fanins: List[Tuple[int, bool]]
    ) -> Tuple[int, bool]:
        """Evaluate one gate on ``(handle, complemented)`` operands.

        Returns the gate's ``(handle, complemented)`` value.  NOT flips the
        polarity and BUF copies it, so neither applies anything.  AND, OR,
        NAND and NOR fold the dual operator (De Morgan) when no operand is
        a plain non-terminal node, and their own operator otherwise; an
        operand of the other polarity is complemented just before its fold
        step (the complement of a terminal is the other terminal, which
        costs nothing).  XOR and XNOR fold the handles and keep the parity
        of the complemented operands.  The C builder applies the same rule.
        """
        if op is GateOp.NOT or op is GateOp.BUF:
            handle, complemented = fanins[0]
            return handle, complemented != (op is GateOp.NOT)
        if op is GateOp.XOR or op is GateOp.XNOR:
            result = fanins[0][0]
            for handle, _ in fanins[1:]:
                result = manager.xor_(result, handle)
            parity = sum(complemented for _, complemented in fanins) % 2
            return result, bool(parity) != (op is GateOp.XNOR)
        dual = all(complemented or handle <= TRUE for handle, complemented in fanins)
        conjunctive = (op is GateOp.AND or op is GateOp.NAND) != dual
        fold = manager.and_many if conjunctive else manager.or_many
        # a generator: and_many/or_many stop at their absorbing constant,
        # before the complements of the operands they never reach
        result = fold(
            manager.not_(handle) if complemented != dual else handle
            for handle, complemented in fanins
        )
        return result, dual != (op is GateOp.NAND or op is GateOp.NOR)


def build_circuit_bdd(
    circuit: Circuit,
    variable_order: Sequence[str],
    *,
    track_peak: bool = False,
    peak_stride: int = 1,
    node_limit: Optional[int] = None,
    manager: Optional[BDDManager] = None,
):
    """Convenience wrapper around :class:`CircuitBDDBuilder`.

    Returns ``(manager, root, stats)``.
    """
    builder = CircuitBDDBuilder(
        variable_order,
        track_peak=track_peak,
        peak_stride=peak_stride,
        node_limit=node_limit,
    )
    return builder.build(circuit, manager)
