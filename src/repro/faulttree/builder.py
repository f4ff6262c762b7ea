"""Expression-style construction of gate-level fault trees.

:class:`FaultTreeBuilder` wraps a :class:`repro.faulttree.circuit.Circuit`
with a small expression DSL so that structure functions can be written the
way reliability engineers think about them::

    ft = FaultTreeBuilder("duplex")
    a, b = ft.failed("A"), ft.failed("B")
    ft.set_top(ft.and_(a, b))          # system fails when both modules fail
    circuit = ft.build()               # frozen: safe to share between problems

Variables created with :meth:`FaultTreeBuilder.failed` are the ``x_i`` of the
paper (1 = component failed); :meth:`FaultTreeBuilder.set_top` declares the
fault-tree top event (1 = system not functioning).  Helpers are provided for
the patterns fault-tolerant SoCs need constantly: k-out-of-n survival /
failure, voting and series/parallel composition.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .circuit import Circuit
from .ops import CircuitError, GateOp


class Expr:
    """A handle to a node of the builder's underlying circuit."""

    __slots__ = ("builder", "index")

    def __init__(self, builder: "FaultTreeBuilder", index: int) -> None:
        self.builder = builder
        self.index = index

    # Operator sugar -- the paper's fault trees are small enough that the
    # readability gain is worth the indirection.
    def __and__(self, other: "Expr") -> "Expr":
        return self.builder.and_(self, other)

    def __or__(self, other: "Expr") -> "Expr":
        return self.builder.or_(self, other)

    def __invert__(self) -> "Expr":
        return self.builder.not_(self)

    def __xor__(self, other: "Expr") -> "Expr":
        return self.builder.xor_(self, other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Expr(node=%d)" % self.index


class FaultTreeBuilder:
    """Incrementally builds the gate-level description of a fault tree."""

    def __init__(self, name: str = "fault-tree") -> None:
        self._circuit = Circuit(name)
        self._top: Optional[int] = None
        self._component_order: List[str] = []

    # ------------------------------------------------------------------ #
    # Leaves
    # ------------------------------------------------------------------ #

    def failed(self, component: str) -> Expr:
        """Return the basic event "component ``component`` is failed" (``x_i``)."""
        known = self._circuit.has_input(component)
        index = self._circuit.add_input(component)
        if not known:
            self._component_order.append(component)
        return Expr(self, index)

    def working(self, component: str) -> Expr:
        """Return the complement event "component ``component`` is working"."""
        return self.not_(self.failed(component))

    def const(self, value: bool) -> Expr:
        """Return a constant expression."""
        return Expr(self, self._circuit.add_const(value))

    # ------------------------------------------------------------------ #
    # Gates
    # ------------------------------------------------------------------ #

    def _gate(self, op: GateOp, operands: Sequence[Expr]) -> Expr:
        for operand in operands:
            if operand.builder is not self:
                raise CircuitError("expression belongs to a different builder")
        if len(operands) == 1 and op in (GateOp.AND, GateOp.OR):
            return operands[0]
        index = self._circuit.add_gate(op, [o.index for o in operands])
        return Expr(self, index)

    def and_(self, *operands: Expr) -> Expr:
        """Return the conjunction of the operands (accepts 1..n operands)."""
        return self._gate(GateOp.AND, self._flatten(operands))

    def or_(self, *operands: Expr) -> Expr:
        """Return the disjunction of the operands (accepts 1..n operands)."""
        return self._gate(GateOp.OR, self._flatten(operands))

    def not_(self, operand: Expr) -> Expr:
        """Return the complement of the operand."""
        return self._gate(GateOp.NOT, [operand])

    def xor_(self, *operands: Expr) -> Expr:
        """Return the exclusive-or of the operands."""
        return self._gate(GateOp.XOR, self._flatten(operands))

    @staticmethod
    def _flatten(operands: Sequence) -> List[Expr]:
        flat: List[Expr] = []
        for operand in operands:
            if isinstance(operand, Expr):
                flat.append(operand)
            else:
                flat.extend(operand)
        if not flat:
            raise CircuitError("gate requires at least one operand")
        return flat

    # ------------------------------------------------------------------ #
    # Reliability-structure helpers
    # ------------------------------------------------------------------ #

    def at_least(self, k: int, operands: Sequence[Expr]) -> Expr:
        """Return the event "at least ``k`` of the operands are true".

        The expansion is the standard recursive two-way split
        ``atleast(k, x::rest) = x & atleast(k-1, rest)  |  atleast(k, rest)``
        with memoization on (position, k), which produces a DAG of size
        ``O(k * n)`` rather than the exponential sum-of-products form.
        """
        operands = list(operands)
        n = len(operands)
        if k <= 0:
            return self.const(True)
        if k > n:
            return self.const(False)
        memo: Dict[Tuple[int, int], Expr] = {}

        def build(pos: int, need: int) -> Expr:
            if need <= 0:
                return self.const(True)
            remaining = n - pos
            if need > remaining:
                return self.const(False)
            if need == remaining:
                return self.and_(*operands[pos:])
            if need == 1:
                return self.or_(*operands[pos:])
            key = (pos, need)
            if key in memo:
                return memo[key]
            with_this = self.and_(operands[pos], build(pos + 1, need - 1))
            without_this = build(pos + 1, need)
            result = self.or_(with_this, without_this)
            memo[key] = result
            return result

        return build(0, k)

    def at_most(self, k: int, operands: Sequence[Expr]) -> Expr:
        """Return the event "at most ``k`` of the operands are true"."""
        return self.not_(self.at_least(k + 1, list(operands)))

    def exactly(self, k: int, operands: Sequence[Expr]) -> Expr:
        """Return the event "exactly ``k`` of the operands are true"."""
        operands = list(operands)
        return self.and_(self.at_least(k, operands), self.at_most(k, operands))

    def k_out_of_n_failed(self, k: int, components: Sequence[str]) -> Expr:
        """Return the event "at least ``k`` of the named components are failed"."""
        return self.at_least(k, [self.failed(c) for c in components])

    def series_fails(self, components: Sequence[str]) -> Expr:
        """Series structure: fails when *any* of the named components fails."""
        return self.or_(*[self.failed(c) for c in components])

    def parallel_fails(self, components: Sequence[str]) -> Expr:
        """Parallel structure: fails only when *all* named components fail."""
        return self.and_(*[self.failed(c) for c in components])

    # ------------------------------------------------------------------ #
    # Output management
    # ------------------------------------------------------------------ #

    def set_top(self, expr: Expr) -> None:
        """Declare ``expr`` as the fault-tree top event (1 = system failed)."""
        if expr.builder is not self:
            raise CircuitError("expression belongs to a different builder")
        if self._circuit.frozen:
            raise CircuitError("fault tree %r is already built" % (self._circuit.name,))
        self._top = expr.index

    def set_top_from_functioning(self, expr: Expr) -> None:
        """Declare the top event as the complement of a "system works" expression."""
        self.set_top(self.not_(expr))

    @property
    def component_names(self) -> Tuple[str, ...]:
        """Component names in the order they were introduced."""
        return tuple(self._component_order)

    def build(self) -> Circuit:
        """Finalize and return the frozen circuit (single output named ``"F"``).

        Idempotent: later calls return the same circuit.  The builder
        cannot grow the circuit any further once it is built.
        """
        if not self._circuit.frozen:
            if self._top is None:
                raise CircuitError("fault tree has no top event; call set_top() first")
            self._circuit.set_output(self._top, "F")
            self._circuit.freeze()
        return self._circuit

    @property
    def circuit(self) -> Circuit:
        """The underlying circuit (also available before :meth:`build`)."""
        return self._circuit
