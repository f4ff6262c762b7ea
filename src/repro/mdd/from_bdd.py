"""Conversion of a coded ROBDD into the ROMDD required by the yield method.

The paper's implementation strategy (Section 2, Fig. 3): it is most efficient
to *build* the decision diagram as a coded ROBDD — an ROBDD over binary
variables that encode the multiple-valued variables — and only at the end
convert it into the ROMDD on which the probability traversal runs.  The
conversion requires the binary variables of each multiple-valued variable to
be kept grouped in the ROBDD order, with the groups following the chosen
multiple-valued variable order.

The conversion processes the coded ROBDD layer by layer, bottom-up.  A
*layer* is the set of ROBDD nodes whose binary variable encodes a given
multiple-valued variable; its *entry nodes* are the nodes reached by edges
coming from other (higher) layers, plus the root.  For every entry node and
every value of the layer's variable, the group's code bits are "simulated"
downward through the layer to find the node reached; the ROMDD node for the
entry node has the (already converted) images of those reached nodes as
children.  Rows whose children are all equal collapse to that child, and
equal rows share one node — the two reductions the paper describes.  The
distinct rows are numbered as hash-consing them one by one would number
them, and the finished layers are bulk-loaded into a fresh
:class:`repro.mdd.manager.MDDManager` (:meth:`~repro.mdd.manager.MDDManager.load_layers`),
which builds its node lists only if an operation needs them.  Nodes created
through unused codewords are simply never hit by the final
size/probability traversals.

The walk runs in the native library (:func:`repro.engine.native.convert_bdd`)
whenever it loads, and otherwise on numpy (:func:`_convert_numpy`): each
layer is one vectorized pass in which all entry nodes walk the tree of
codeword prefixes at once with array gathers, one ROBDD level per step.
Both routes produce the same layers, handle for handle.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from ..bdd.manager import FALSE as BDD_FALSE
from ..bdd.manager import TRUE as BDD_TRUE
from ..bdd.manager import BDDManager
from ..engine import native as _native
from ..faulttree.multivalued import MultiValuedVariable
from .manager import FALSE as MDD_FALSE
from .manager import TRUE as MDD_TRUE
from .manager import MDDError, MDDManager

#: A grouped order: each entry is ``(variable, bit_names_top_to_bottom)``.
GroupSpec = Sequence[Tuple[MultiValuedVariable, Sequence[str]]]


def _bit_positions(groups: GroupSpec) -> Dict[str, Tuple[int, int]]:
    """Map each bit name to ``(layer_index, msb_first_bit_position)``."""
    info: Dict[str, Tuple[int, int]] = {}
    for layer, (variable, bit_names) in enumerate(groups):
        canonical = {name: pos for pos, name in enumerate(variable.bit_names())}
        for name in bit_names:
            if name not in canonical:
                raise MDDError(
                    "bit %r does not belong to variable %r" % (name, variable.name)
                )
            if name in info:
                raise MDDError("bit %r appears in more than one group" % (name,))
            info[name] = (layer, canonical[name])
    return info


def _validate_grouping(bdd: BDDManager, groups: GroupSpec, bit_info) -> List[Tuple[int, int]]:
    """Check the ROBDD order keeps groups contiguous and in the group order.

    Returns, for every ROBDD level, the ``(layer, bit_position)`` pair.
    """
    per_level: List[Tuple[int, int]] = []
    previous_layer = -1
    seen_layers: Set[int] = set()
    for name in bdd.variable_order:
        if name not in bit_info:
            raise MDDError("ROBDD variable %r is not a bit of any group" % (name,))
        layer, bitpos = bit_info[name]
        if layer != previous_layer:
            if layer in seen_layers:
                raise MDDError(
                    "bits of variable %r are not contiguous in the ROBDD order"
                    % (groups[layer][0].name,)
                )
            if layer < previous_layer:
                raise MDDError(
                    "groups appear out of order in the ROBDD order (layer %d after %d)"
                    % (layer, previous_layer)
                )
            seen_layers.add(layer)
            previous_layer = layer
        per_level.append((layer, bitpos))
    expected_bits = sum(len(bits) for _, bits in groups)
    if len(per_level) != expected_bits:
        raise MDDError(
            "ROBDD order has %d variables but the groups define %d bits"
            % (len(per_level), expected_bits)
        )
    return per_level


def convert_bdd_to_mdd(
    bdd: BDDManager,
    root: int,
    groups: GroupSpec,
) -> Tuple[MDDManager, int]:
    """Convert the coded ROBDD rooted at ``root`` into a ROMDD.

    Parameters
    ----------
    bdd:
        The manager holding the coded ROBDD.  Its variable order must consist
        exactly of the bits listed in ``groups``, contiguous per group and
        with the groups in order.
    root:
        Handle of the coded ROBDD to convert.
    groups:
        The multiple-valued variables (top to bottom) together with the names
        of their encoding bits in the order they appear in the ROBDD.

    Returns
    -------
    (MDDManager, int)
        A fresh ROMDD manager, bulk-loaded with the converted nodes (the
        root holds one reference), and the handle of the converted function.
    """
    return _convert(bdd, root, groups, native=_native.available())


def _convert(bdd: BDDManager, root: int, groups: GroupSpec, *, native: bool):
    """:func:`convert_bdd_to_mdd` on the native library or on numpy."""
    mdd = MDDManager([variable for variable, _ in groups])
    per_level = _validate_grouping(bdd, groups, _bit_positions(groups))
    if root <= BDD_TRUE:
        return mdd, MDD_TRUE if root == BDD_TRUE else MDD_FALSE
    level_layers, level_bits = (np.array(column, dtype=np.int64) for column in zip(*per_level))
    codes = [
        np.array([variable.code.codeword(v) for v in variable.values], dtype=np.int64)
        for variable, _ in groups
    ]
    convert = _native.convert_bdd if native else _convert_numpy
    layers, root = convert(*bdd.node_arrays(), root, level_layers, level_bits, codes)
    return mdd, mdd.load_layers(layers, root)


def _convert_numpy(levels, lows, highs, root, level_layers, level_bits, codes):
    """The numpy conversion: ``(layer, rows)`` pairs and the root's image.

    Takes the arguments of :func:`repro.engine.native.convert_bdd` and
    returns what it returns.
    """
    # per-handle layer; terminals and free slots sit in the pseudo-layer
    # len(codes), below every real layer
    num_levels = len(level_layers)
    levels = np.where((levels >= 0) & (levels < num_levels), levels, num_levels)
    level_layers = level_layers.tolist()
    layer_of = np.asarray(level_layers + [len(codes)], dtype=np.int64)[levels]

    # reachable nodes, one ROBDD level at a time from the root down
    reachable = np.zeros(len(levels), dtype=bool)
    reachable[root] = True
    by_level = np.argsort(levels)
    starts = np.searchsorted(levels[by_level], np.arange(num_levels + 1))
    for level in range(int(levels[root]), num_levels):
        nodes = by_level[starts[level] : starts[level + 1]]
        nodes = nodes[reachable[nodes]]
        reachable[lows[nodes]] = True
        reachable[highs[nodes]] = True

    # entry nodes: the root plus every child across a layer boundary
    parents = np.flatnonzero(reachable & (levels < num_levels))
    children = np.concatenate((lows[parents], highs[parents]))
    crossing = (children > BDD_TRUE) & (layer_of[children] != np.tile(layer_of[parents], 2))
    is_entry = np.zeros(len(levels), dtype=bool)
    is_entry[children[crossing]] = True
    is_entry[root] = True
    entries = np.flatnonzero(is_entry)
    entry_layers = layer_of[entries]

    # the low child of handle h at 2 * h, the high child at 2 * h + 1
    kids = np.stack((lows, highs), axis=1).ravel()
    image = np.full(len(levels), -1, dtype=np.int64)
    image[BDD_FALSE] = MDD_FALSE
    image[BDD_TRUE] = MDD_TRUE
    layers = []
    created = MDD_TRUE + 1
    for layer in np.unique(entry_layers)[::-1].tolist():
        nodes = entries[entry_layers == layer]
        top = level_layers.index(layer)
        # the codeword bits in ROBDD level order
        bits = codes[layer][:, level_bits[top : top + level_layers.count(layer)]]
        # walk every entry node down the tree of codeword prefixes: after k
        # steps, column j of `at` holds each entry's first node below level
        # top + k on the path of prefix j, and codeword v ends in column
        # prefix[v]; a node steps only when it tests the next level's bit
        at = nodes[:, None]
        prefix = np.zeros(len(bits), dtype=np.int64)
        for step in range(bits.shape[1]):
            extended, prefix = np.unique(2 * prefix + bits[:, step], return_inverse=True)
            at = at[:, extended // 2]
            at = np.where(levels[at] == top + step, kids[2 * at + extended % 2], at)
        rows = image[at[:, prefix]]
        same = (rows == rows[:, :1]).all(axis=1)
        image[nodes[same]] = rows[same, 0]
        rows = rows[~same]
        if not len(rows):
            continue
        # equal rows share one node (compared as raw bytes); distinct rows
        # become nodes numbered in order of first occurrence, as hash-consing
        # them one by one in the entry order (children before parents) would
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        handles = np.empty(len(order), dtype=np.int64)
        handles[order] = np.arange(created, created + len(order))
        image[nodes[~same]] = handles[inverse]
        layers.append((layer, rows[first[order]]))
        created += len(order)
    return layers, int(image[root])
