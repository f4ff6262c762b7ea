"""The list-based ROMDD conversion and linearization, kept as oracles.

The production routes work on arrays, in the native library or on numpy:
:func:`repro.mdd.from_bdd.convert_bdd_to_mdd` deduplicates each layer's
rows and bulk-loads the manager, and
:meth:`repro.engine.batch.LinearizedDiagram.from_mdd` walks the manager's
CSR node arrays.  The two functions here are the routes they replaced:
every converted row hash-consed one at a time through
:meth:`repro.mdd.manager.MDDManager._mk_raw`, and a dict-memoized stack
walk over the manager's node tuples.  The array routes must agree with them node
for node and byte for byte.
"""

import numpy as np

from repro.bdd.manager import FALSE as BDD_FALSE
from repro.bdd.manager import TRUE as BDD_TRUE
from repro.engine.batch import LinearizedDiagram
from repro.mdd.from_bdd import _bit_positions, _validate_grouping
from repro.mdd.manager import FALSE, TRUE, MDDManager


def node_state(manager):
    """Every node table of an ROMDD manager (building a loaded one's lists)."""
    return (
        manager._level,
        manager._children,
        manager._refs,
        manager._unique,
        manager._free,
        manager.num_nodes_allocated,
    )


def convert_by_rows(bdd, root, groups):
    """Convert the coded ROBDD, making every ROMDD node with ``_mk_raw``.

    Every (entry node, codeword) pair walks its layer on its own, and every
    row is reduced and hash-consed one at a time.  The root gets one
    reference, as the bulk load gives it.
    """
    mdd = MDDManager([variable for variable, _ in groups])
    per_level = _validate_grouping(bdd, groups, _bit_positions(groups))
    if root <= BDD_TRUE:
        return mdd, TRUE if root == BDD_TRUE else FALSE

    levels, lows, highs = bdd.node_arrays()
    num_levels = len(per_level)
    levels = np.where((levels >= 0) & (levels < num_levels), levels, num_levels)
    per_level.append((len(groups), 0))
    layer_of, bit_of = (np.asarray(column, dtype=np.int64)[levels] for column in zip(*per_level))

    reachable = np.zeros(len(levels), dtype=bool)
    reachable[root] = True
    by_level = np.argsort(levels)
    starts = np.searchsorted(levels[by_level], np.arange(num_levels + 1))
    for level in range(int(levels[root]), num_levels):
        nodes = by_level[starts[level] : starts[level + 1]]
        nodes = nodes[reachable[nodes]]
        reachable[lows[nodes]] = True
        reachable[highs[nodes]] = True

    parents = np.flatnonzero(reachable & (levels < num_levels))
    children = np.concatenate((lows[parents], highs[parents]))
    crossing = (children > BDD_TRUE) & (layer_of[children] != np.tile(layer_of[parents], 2))
    is_entry = np.zeros(len(levels), dtype=bool)
    is_entry[children[crossing]] = True
    is_entry[root] = True
    entries = np.flatnonzero(is_entry)
    entry_layers = layer_of[entries]

    kids = np.stack((lows, highs), axis=1).ravel()
    image = np.full(len(levels), -1, dtype=np.int64)
    image[BDD_FALSE] = FALSE
    image[BDD_TRUE] = TRUE
    for layer in np.unique(entry_layers)[::-1].tolist():
        variable, bit_names = groups[layer]
        nodes = entries[entry_layers == layer]
        codes = np.array([variable.code.codeword(v) for v in variable.values], dtype=np.int64)
        cardinality, width = codes.shape
        current = np.repeat(nodes, cardinality)
        walking = np.arange(len(current))
        code_rows = np.tile(np.arange(0, cardinality * width, width), len(nodes))
        codes = codes.ravel()
        for _ in bit_names:
            at = current[walking]
            at = kids[2 * at + codes[code_rows[walking] + bit_of[at]]]
            current[walking] = at
            walking = walking[layer_of[at] == layer]
            if not len(walking):
                break
        rows = image[current].reshape(len(nodes), cardinality)
        image[nodes] = [mdd._mk_raw(layer, row) for row in map(tuple, rows.tolist())]

    root = int(image[root])
    return mdd, mdd.ref(root)


def linearize_by_walk(manager, root):
    """Linearize through a dict-memoized stack walk over node tuples."""
    if root <= 1:
        return LinearizedDiagram(root, 2, ())

    by_level = {}
    seen = {root}
    stack = [root]
    while stack:
        node = stack.pop()
        by_level.setdefault(manager.level(node), []).append(node)
        for child in manager.children(node):
            if child > 1 and child not in seen:
                seen.add(child)
                stack.append(child)

    slot_of = {0: 0, 1: 1}
    next_slot = 2
    ordered_levels = sorted(by_level, reverse=True)
    for level in ordered_levels:
        for node in by_level[level]:
            slot_of[node] = next_slot
            next_slot += 1

    layers = []
    for level in ordered_levels:
        nodes = by_level[level]
        slots = tuple(slot_of[node] for node in nodes)
        kid_rows = tuple(
            tuple(slot_of[child] for child in manager.children(node)) for node in nodes
        )
        layers.append((level, slots, kid_rows))
    return LinearizedDiagram(slot_of[root], next_slot, layers)
