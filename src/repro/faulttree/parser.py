"""A small textual format for fault trees and component defect probabilities.

The format is line-oriented and modeled on the classic Galileo / OpenFTA
style so that structure functions can live next to the design instead of in
Python code::

    # MS-like toy system
    toplevel SYSTEM;
    SYSTEM   and MASTERS CLUSTER1;
    MASTERS  and IPM_1 IPM_2;
    CLUSTER1 2of3 IPS_1 IPS_2 IPS_3;
    IPM_1 prob 0.1;
    IPM_2 prob 0.1;
    IPS_1 prob 0.05;
    IPS_2 prob 0.05;
    IPS_3 prob 0.05;

Rules
-----
* every statement ends with ``;``; ``#`` starts a comment;
* ``toplevel NAME;`` declares the top event (exactly once);
* ``NAME <op> CHILD...;`` declares a gate; ``op`` is ``and``, ``or``,
  ``not``, ``xor`` or ``<k>of<n>`` (at-least-k);
* ``NAME prob P;`` declares a basic event (a component) with its per-defect
  lethal-hit probability ``P_i``;
* the top event is the *failure* of the system, exactly as in the paper
  (gate inputs are failures, so an ``and`` gate is a parallel/redundant
  structure and an ``or`` gate a series structure).

:func:`loads` returns ``(circuit, component_model)`` with a frozen circuit;
:func:`dumps` writes a circuit and model back in the same format (gates are
emitted in topological order, so a dump/parse round trip preserves the
function).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from ..distributions import ComponentDefectModel
from .builder import Expr, FaultTreeBuilder
from .circuit import Circuit
from .ops import CircuitError, GateOp

_KOFN_PATTERN = re.compile(r"^(\d+)of(\d+)$")


class FaultTreeParseError(ValueError):
    """Raised on malformed fault-tree text."""

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


def _statements(text: str):
    """Yield ``(line_number, tokens)`` for every ``;``-terminated statement."""
    buffer: List[str] = []
    start_line = None
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if start_line is None:
            start_line = line_number
        buffer.append(line)
        while ";" in " ".join(buffer):
            joined = " ".join(buffer)
            statement, _, rest = joined.partition(";")
            tokens = statement.split()
            if tokens:
                yield start_line, tokens
            buffer = [rest.strip()] if rest.strip() else []
            start_line = line_number if buffer else None
    if buffer and " ".join(buffer).strip():
        raise FaultTreeParseError("unterminated statement: %r" % " ".join(buffer))


def loads(text: str, *, name: str = "fault-tree") -> Tuple[Circuit, ComponentDefectModel]:
    """Parse fault-tree text into ``(frozen circuit, component_model)``."""
    toplevel: Optional[str] = None
    gates: Dict[str, Tuple[str, List[str], int]] = {}
    probabilities: Dict[str, float] = {}
    declaration_order: List[str] = []

    for line, tokens in _statements(text):
        head = tokens[0]
        if head == "toplevel":
            if len(tokens) != 2:
                raise FaultTreeParseError("toplevel takes exactly one name", line)
            if toplevel is not None:
                raise FaultTreeParseError("toplevel declared twice", line)
            toplevel = tokens[1]
            continue
        if len(tokens) >= 3 and tokens[1] == "prob":
            if len(tokens) != 3:
                raise FaultTreeParseError("prob takes exactly one value", line)
            try:
                value = float(tokens[2])
            except ValueError:
                raise FaultTreeParseError("invalid probability %r" % tokens[2], line)
            if head in probabilities or head in gates:
                raise FaultTreeParseError("duplicate declaration of %r" % head, line)
            probabilities[head] = value
            declaration_order.append(head)
            continue
        if len(tokens) < 3:
            raise FaultTreeParseError("gate %r needs an operator and children" % head, line)
        if head in gates or head in probabilities:
            raise FaultTreeParseError("duplicate declaration of %r" % head, line)
        gates[head] = (tokens[1].lower(), tokens[2:], line)
        declaration_order.append(head)

    if toplevel is None:
        raise FaultTreeParseError("missing 'toplevel' declaration")
    if not probabilities:
        raise FaultTreeParseError("no basic events ('NAME prob P;') declared")
    if toplevel not in gates and toplevel not in probabilities:
        raise FaultTreeParseError("toplevel %r is never declared" % toplevel)

    builder = FaultTreeBuilder(name)
    cache: Dict[str, Expr] = {}
    building: List[str] = []

    def resolve(node_name: str, line: Optional[int] = None) -> Expr:
        if node_name in cache:
            return cache[node_name]
        if node_name in building:
            raise FaultTreeParseError(
                "cycle through %r" % " -> ".join(building + [node_name]), line
            )
        if node_name in probabilities:
            expr = builder.failed(node_name)
        elif node_name in gates:
            operator, children, gate_line = gates[node_name]
            building.append(node_name)
            child_exprs = [resolve(child, gate_line) for child in children]
            building.pop()
            expr = _apply_operator(builder, operator, child_exprs, gate_line)
        else:
            raise FaultTreeParseError("undeclared node %r" % node_name, line)
        cache[node_name] = expr
        return expr

    builder.set_top(resolve(toplevel))
    circuit = builder.build()

    unused_gates = [g for g in gates if g not in cache]
    if unused_gates:
        # gates that are declared but unreachable from the top are almost
        # always an authoring error
        raise FaultTreeParseError(
            "gates not reachable from the toplevel: %s" % ", ".join(sorted(unused_gates))
        )

    ordered_probabilities = {
        component: probabilities[component]
        for component in declaration_order
        if component in probabilities
    }
    model = ComponentDefectModel(ordered_probabilities)
    return circuit, model


def _apply_operator(
    builder: FaultTreeBuilder, operator: str, children: List[Expr], line: int
) -> Expr:
    if operator == "and":
        return builder.and_(*children)
    if operator == "or":
        return builder.or_(*children)
    if operator == "xor":
        return builder.xor_(*children)
    if operator == "not":
        if len(children) != 1:
            raise FaultTreeParseError("'not' takes exactly one child", line)
        return builder.not_(children[0])
    match = _KOFN_PATTERN.match(operator)
    if match:
        k, n = int(match.group(1)), int(match.group(2))
        if n != len(children):
            raise FaultTreeParseError(
                "%s gate declares %d children but has %d" % (operator, n, len(children)),
                line,
            )
        return builder.at_least(k, children)
    raise FaultTreeParseError("unknown operator %r" % operator, line)


def load(path: str, *, name: Optional[str] = None) -> Tuple[Circuit, ComponentDefectModel]:
    """Parse a fault-tree file; the file stem becomes the circuit name."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if name is None:
        import os

        name = os.path.splitext(os.path.basename(path))[0]
    return loads(text, name=name)


def dumps(circuit: Circuit, model: ComponentDefectModel) -> str:
    """Serialize a fault tree and its component probabilities to text.

    Gates are emitted as ``g<N>`` in topological order; the special gate
    operators used internally (``nand``/``nor``/``xnor``/``buf``) are
    expressed through ``not`` so that the output stays within the documented
    grammar.
    """
    output = circuit.primary_output
    cone = sorted(circuit.cone(output))
    lines: List[str] = []
    node_names: Dict[int, str] = {}
    gate_counter = 0
    pending: List[str] = []

    for index in cone:
        node = circuit.node(index)
        if node.is_input:
            node_names[index] = node.name
            continue
        if node.is_const:
            raise CircuitError("constant nodes cannot be serialized in this format")
        gate_counter += 1
        gate_name = "g%d" % gate_counter
        node_names[index] = gate_name
        children = [node_names[f] for f in node.fanins]
        op = node.op
        if op in (GateOp.AND, GateOp.OR, GateOp.XOR):
            pending.append("%s %s %s;" % (gate_name, op.value, " ".join(children)))
        elif op is GateOp.NOT:
            pending.append("%s not %s;" % (gate_name, children[0]))
        elif op is GateOp.BUF:
            pending.append("%s or %s %s;" % (gate_name, children[0], children[0]))
        elif op in (GateOp.NAND, GateOp.NOR, GateOp.XNOR):
            inner = {"nand": "and", "nor": "or", "xnor": "xor"}[op.value]
            gate_counter += 1
            inner_name = "g%d" % gate_counter
            pending.append("%s %s %s;" % (inner_name, inner, " ".join(children)))
            pending.append("%s not %s;" % (gate_name, inner_name))
        else:  # pragma: no cover - exhaustiveness guard
            raise CircuitError("cannot serialize operator %r" % (op,))

    lines.append("# fault tree %s" % circuit.name)
    lines.append("toplevel %s;" % node_names[output])
    lines.extend(pending)
    for component in model.names:
        lines.append("%s prob %.12g;" % (component, model.raw_probability(component)))
    return "\n".join(lines) + "\n"


def dump(circuit: Circuit, model: ComponentDefectModel, path: str) -> None:
    """Serialize to a file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(circuit, model))
