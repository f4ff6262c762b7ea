"""Direct ROMDD construction from a filter-gate circuit.

The paper argues (following the multiple-valued decision diagram community)
that it is more efficient to build a coded ROBDD first and convert it at the
end than to manipulate ROMDDs directly.  To be able to *check* that claim,
this module provides the direct route: every filter gate becomes a ROMDD
literal and the binary gates of the circuit are applied with the ROMDD
``apply`` operations.  The result is canonical, so it must be identical (same
manager size from the same order) to what the conversion route produces —
which is also a powerful cross-validation of both implementations.

Gates are evaluated with the coded-ROBDD builder's polarity rule
(:meth:`repro.bdd.builder.CircuitBDDBuilder._apply_gate`): every gate value
is a ``(handle, complemented)`` pair, so a NOT flips a bit instead of
copying its operand, and a complemented output costs one NOT at the end.
Both managers number their terminals ``FALSE = 0`` and ``TRUE = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..bdd.builder import CircuitBDDBuilder
from ..faulttree.circuit import Circuit
from ..faulttree.multivalued import MVCircuit, MultiValuedVariable
from .manager import FALSE, TRUE, MDDError, MDDManager


@dataclass
class DirectBuildStats:
    """Statistics of a direct ROMDD construction."""

    final_size: int = 0
    allocated_nodes: int = 0
    gates_processed: int = 0
    peak_live_nodes: int = 0


def build_mdd_from_mvcircuit(
    mv_circuit: MVCircuit,
    variable_order: Sequence[MultiValuedVariable],
    *,
    track_peak: bool = False,
    manager: Optional[MDDManager] = None,
) -> Tuple[MDDManager, int, DirectBuildStats]:
    """Build the ROMDD of ``mv_circuit`` directly, without the coded ROBDD.

    Parameters
    ----------
    mv_circuit:
        The filter-gate circuit of the function (e.g. the generalized fault
        tree ``G``).
    variable_order:
        The multiple-valued variables from the top of the ROMDD downwards;
        must cover every variable used by the circuit's filters.
    track_peak:
        When true the live shared node count is sampled after every gate.
    """
    known = {v.name for v in variable_order}
    for gate in mv_circuit.filters.values():
        if gate.variable.name not in known:
            raise MDDError(
                "variable %r used by a filter is missing from the order" % (gate.variable.name,)
            )
    if manager is None:
        manager = MDDManager(variable_order)

    circuit: Circuit = mv_circuit.circuit
    output = circuit.primary_output
    cone = circuit.cone(output)
    filters = mv_circuit.filters
    stats = DirectBuildStats()

    remaining_readers: Dict[int, int] = {idx: 0 for idx in cone}
    for idx in cone:
        node = circuit.node(idx)
        if node.is_gate:
            for fanin in node.fanins:
                remaining_readers[fanin] += 1

    from ..engine.kernel import recursion_guard

    # every value is a (handle, complemented) pair, as in the coded build
    node_mdd: Dict[int, Tuple[int, bool]] = {}
    apply_gate = CircuitBDDBuilder._apply_gate
    # the binary apply recurses once per multiple-valued level; guard for
    # chain-shaped circuits over many variables
    with recursion_guard(2 * manager.num_variables + 200):
        for idx in sorted(cone):
            node = circuit.node(idx)
            if node.is_input:
                gate = filters[node.name]
                accepted = [v for v in gate.variable.values if gate.evaluate(v)]
                node_mdd[idx] = (manager.literal(gate.variable.name, accepted), False)
                continue
            if node.is_const:
                node_mdd[idx] = (TRUE if node.name == "1" else FALSE, False)
                continue

            handle, complemented = apply_gate(
                manager, node.op, [node_mdd[f] for f in node.fanins]
            )
            if complemented and idx == output:
                handle, complemented = manager.not_(handle), False
            node_mdd[idx] = (handle, complemented)
            stats.gates_processed += 1

            for fanin in node.fanins:
                remaining_readers[fanin] -= 1
                if remaining_readers[fanin] == 0 and fanin != output:
                    node_mdd.pop(fanin, None)

            if track_peak:
                live = len(
                    set().union(*(manager.reachable(h) for h, _ in node_mdd.values()))
                )
                if live > stats.peak_live_nodes:
                    stats.peak_live_nodes = live

    root = node_mdd[output][0]
    stats.final_size = manager.size(root)
    stats.allocated_nodes = manager.num_nodes_allocated
    if stats.final_size > stats.peak_live_nodes:
        stats.peak_live_nodes = stats.final_size
    return manager, root, stats

