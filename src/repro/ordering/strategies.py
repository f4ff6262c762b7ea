"""The multiple-valued and bit-group ordering strategies of the paper.

Section 2 experiments with seven orderings for the multiple-valued variables
``w, v_1, ..., v_M``:

==========  =============================================================
``wv``      ``w, v_1, ..., v_M``
``wvr``     ``w, v_M, ..., v_1``
``vw``      ``v_1, ..., v_M, w``
``vrw``     ``v_M, ..., v_1, w``
``t``       binary *topology* heuristic on the gate-level description of
            ``G`` in binary logic; the multiple-valued variables are sorted
            by the average index of their code bits
``w``       same with the *weight* heuristic
``h``       same with the *H4* heuristic
==========  =============================================================

and five orderings for the bits within each group:

==========  =============================================================
``ml``      most significant to least significant bit
``lm``      least significant to most significant bit
``t``       bits sorted by increasing index in the *topology* order
``w``       same with the *weight* heuristic
``h``       same with the *H4* heuristic
==========  =============================================================

As in the paper, the heuristic bit orders are only allowed together with the
matching multiple-valued heuristic (``t`` with ``t``, ``w`` with ``w``,
``h`` with ``h``); ``ml`` and ``lm`` combine with every multiple-valued
order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..faulttree.circuit import Circuit
from ..faulttree.multivalued import MultiValuedVariable
from .grouped import GroupedVariableOrder, OrderingError
from .heuristics import HEURISTICS

#: Multiple-valued variable orderings recognized by :func:`compute_grouped_order`.
MV_ORDERINGS = ("wv", "wvr", "vw", "vrw", "t", "w", "h")

#: Bit-group orderings recognized by :func:`compute_grouped_order`.
BIT_ORDERINGS = ("ml", "lm", "t", "w", "h")

_HEURISTIC_NAMES = ("t", "w", "h")


class OrderingSpec:
    """A validated pair of (multiple-valued order, bit-group order).

    Parameters
    ----------
    mv:
        One of :data:`MV_ORDERINGS`.  The paper's best performer (and our
        default) is the weight heuristic ``"w"``.
    bits:
        One of :data:`BIT_ORDERINGS`.  The paper's best performer (and our
        default) is most-significant-first, ``"ml"``.
    strict:
        Enforce the paper's combination rule (heuristic bit orders only with
        the matching multiple-valued heuristic).  Set to ``False`` to explore
        other combinations.
    sift:
        Improve the static order dynamically: after the coded ROBDD is
        built, run group-preserving Rudell sifting
        (:func:`repro.engine.reorder.sift_grouped`) before converting to the
        ROMDD.  The static ``mv``/``bits`` pair still provides the starting
        point, so ``OrderingSpec("w", "ml", sift=True)`` means "the paper's
        best static order, then sift".
    sift_converge:
        Instead of a single sifting pass, repeat group-preserving passes
        (plus a group-aware window permutation) until the node count stops
        improving (:func:`repro.engine.reorder.sift_grouped` with
        ``converge=True``).  Implies ``sift``.
    """

    def __init__(
        self,
        mv: str = "w",
        bits: str = "ml",
        *,
        strict: bool = True,
        sift: bool = False,
        sift_converge: bool = False,
    ) -> None:
        if mv not in MV_ORDERINGS:
            raise OrderingError("unknown multiple-valued ordering %r" % (mv,))
        if bits not in BIT_ORDERINGS:
            raise OrderingError("unknown bit-group ordering %r" % (bits,))
        if strict and bits in _HEURISTIC_NAMES and bits != mv:
            raise OrderingError(
                "bit ordering %r may only be combined with multiple-valued ordering %r"
                % (bits, bits)
            )
        self.mv = mv
        self.bits = bits
        self.sift_converge = bool(sift_converge)
        self.sift = bool(sift) or self.sift_converge

    def needs_circuit(self) -> bool:
        """Return whether this spec requires the binary gate-level description."""
        return self.mv in _HEURISTIC_NAMES or self.bits in _HEURISTIC_NAMES

    def key(self) -> Tuple[str, str, object]:
        """Return a hashable identity (used by the engine's caches).

        The third element encodes the dynamic-reordering mode: ``False``
        (static), ``True`` (one sifting pass) or ``"converge"``
        (sift-to-convergence) — still truthy exactly when sifting runs, so
        existing ``(mv, bits, sift)`` unpacking keeps working.
        """
        mode: object = "converge" if self.sift_converge else self.sift
        return (self.mv, self.bits, mode)

    @classmethod
    def from_key(cls, key: Tuple[str, str, object], *, strict: bool = False) -> "OrderingSpec":
        """Rebuild a spec from :meth:`key` (used by the structure store)."""
        mv, bits, mode = key
        return cls(
            mv,
            bits,
            strict=strict,
            sift=bool(mode),
            sift_converge=(mode == "converge"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.sift_converge:
            return "OrderingSpec(mv=%r, bits=%r, sift_converge=True)" % (self.mv, self.bits)
        if self.sift:
            return "OrderingSpec(mv=%r, bits=%r, sift=True)" % (self.mv, self.bits)
        return "OrderingSpec(mv=%r, bits=%r)" % (self.mv, self.bits)


def compute_grouped_order(
    count_variable: MultiValuedVariable,
    location_variables: Sequence[MultiValuedVariable],
    spec: OrderingSpec,
    binary_circuit: Optional[Circuit] = None,
) -> GroupedVariableOrder:
    """Compute the grouped variable order for the generalized fault tree.

    Parameters
    ----------
    count_variable:
        The defect-count variable ``w``.
    location_variables:
        The defect-location variables ``v_1 .. v_M`` in index order.
    spec:
        The ordering strategy.
    binary_circuit:
        The gate-level description of ``G`` in binary logic (required for the
        heuristic strategies ``t``, ``w``, ``h``); its inputs must be the
        canonical bit names ``"var[b]"`` of the variables.
    """
    location_variables = list(location_variables)
    all_variables = [count_variable] + location_variables

    heuristic_positions: Optional[Dict[str, int]] = None
    if spec.needs_circuit():
        if binary_circuit is None:
            raise OrderingError(
                "ordering %r requires the binary gate-level description of G" % (spec.mv,)
            )
        heuristic = HEURISTICS[spec.mv if spec.mv in _HEURISTIC_NAMES else spec.bits]
        ordered_bits = heuristic(binary_circuit)
        heuristic_positions = {name: i for i, name in enumerate(ordered_bits)}
        missing = [
            bit
            for variable in all_variables
            for bit in variable.bit_names()
            if bit not in heuristic_positions
        ]
        if missing:
            raise OrderingError(
                "binary circuit is missing code bits: %s" % ", ".join(missing[:5])
            )

    mv_order = _multi_valued_order(
        spec, count_variable, location_variables, heuristic_positions
    )
    groups: List[Tuple[MultiValuedVariable, Tuple[str, ...]]] = []
    for variable in mv_order:
        groups.append((variable, _bit_group(spec, variable, heuristic_positions)))
    return GroupedVariableOrder(groups)


def _multi_valued_order(
    spec: OrderingSpec,
    count_variable: MultiValuedVariable,
    location_variables: List[MultiValuedVariable],
    heuristic_positions: Optional[Dict[str, int]],
) -> List[MultiValuedVariable]:
    if spec.mv == "wv":
        return [count_variable] + location_variables
    if spec.mv == "wvr":
        return [count_variable] + list(reversed(location_variables))
    if spec.mv == "vw":
        return location_variables + [count_variable]
    if spec.mv == "vrw":
        return list(reversed(location_variables)) + [count_variable]
    # heuristic orders: sort by the average position of the variable's bits
    assert heuristic_positions is not None
    variables = [count_variable] + location_variables

    def average_index(variable: MultiValuedVariable) -> float:
        positions = [heuristic_positions[bit] for bit in variable.bit_names()]
        return sum(positions) / float(len(positions))

    return sorted(variables, key=average_index)


def _bit_group(
    spec: OrderingSpec,
    variable: MultiValuedVariable,
    heuristic_positions: Optional[Dict[str, int]],
) -> Tuple[str, ...]:
    canonical = variable.bit_names()  # most significant bit first
    if spec.bits == "ml":
        return tuple(canonical)
    if spec.bits == "lm":
        return tuple(reversed(canonical))
    assert heuristic_positions is not None
    return tuple(sorted(canonical, key=lambda bit: heuristic_positions[bit]))
