"""Gate-level circuits (netlists) over binary variables.

A :class:`Circuit` is the library's representation of the gate-level
description of a fault-tree function the paper assumes as input: a DAG of
gates over named binary input variables with one or more named outputs.
Nodes are stored in construction order, and fanins must already exist when a
gate is added, so the node list is always a valid topological order.

The class is deliberately small: the ordering heuristics
(:mod:`repro.ordering`) and the ROBDD builder (:mod:`repro.bdd.builder`)
operate on it only through indices, ordered fanins and fanout information.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .ops import CircuitError, GateOp, evaluate_gate, validate_arity


class Node:
    """A node of a :class:`Circuit`: an input, a constant or a gate."""

    __slots__ = ("index", "kind", "op", "fanins", "name")

    KIND_INPUT = "input"
    KIND_CONST = "const"
    KIND_GATE = "gate"

    def __init__(
        self,
        index: int,
        kind: str,
        op: Optional[GateOp],
        fanins: Tuple[int, ...],
        name: Optional[str],
    ) -> None:
        self.index = index
        self.kind = kind
        self.op = op
        self.fanins = fanins
        self.name = name

    @property
    def is_input(self) -> bool:
        return self.kind == Node.KIND_INPUT

    @property
    def is_const(self) -> bool:
        return self.kind == Node.KIND_CONST

    @property
    def is_gate(self) -> bool:
        return self.kind == Node.KIND_GATE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_input:
            return "Node(%d, input %r)" % (self.index, self.name)
        if self.is_const:
            return "Node(%d, const %r)" % (self.index, self.name)
        return "Node(%d, %s%r)" % (self.index, self.op.name, tuple(self.fanins))


class Circuit:
    """A combinational netlist over named binary inputs.

    Notes
    -----
    * Node indices are dense, 0-based and topologically ordered (every gate's
      fanins have smaller indices).
    * The two constants are created lazily and are shared.
    * Outputs are named; :attr:`primary_output` returns the single output when
      there is exactly one (the usual fault-tree case).
    * A frozen circuit (:meth:`freeze`; builders and the parser return
      frozen circuits) rejects the four mutators and a new :attr:`name`, so
      problems can share it, and computes its :meth:`digest` and
      :attr:`input_names` only once.
    """

    def __init__(self, name: str = "circuit") -> None:
        self._frozen = False
        self._digest: Optional[str] = None
        self._input_names: Tuple[str, ...] = ()
        self.name = name
        self._nodes: List[Node] = []
        self._inputs: List[int] = []
        self._input_index: Dict[str, int] = {}
        self._outputs: Dict[str, int] = {}
        self._const_index: Dict[bool, int] = {}
        self._gate_cache: Dict[Tuple[GateOp, Tuple[int, ...]], int] = {}

    @property
    def name(self) -> str:
        """The circuit's label (part of its :meth:`digest`)."""
        return self._name

    @name.setter
    def name(self, value: str) -> None:
        self._check_mutable()
        self._name = value

    # ------------------------------------------------------------------ #
    # Freezing
    # ------------------------------------------------------------------ #

    def freeze(self) -> "Circuit":
        """Make the circuit immutable (idempotent) and return it."""
        self._input_names = tuple(self._nodes[i].name for i in self._inputs)
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` was called."""
        return self._frozen

    def _check_mutable(self) -> None:
        if self._frozen:
            raise CircuitError("circuit %r is frozen" % (self._name,))

    def digest(self) -> str:
        """Return a stable SHA-256 hex digest of the name, nodes and outputs.

        Equal digests mean equal structure, so the digest keys reusable
        decision diagrams.  A frozen circuit hashes once and caches the
        value (a pickled copy carries it along); a mutable one hashes on
        every call.
        """
        if self._digest is not None:
            return self._digest
        h = hashlib.sha256()
        h.update(repr(self._name).encode())
        for node in self._nodes:
            op = getattr(node.op, "name", node.op)
            h.update(("%s|%s|%s;" % (node.name, op, node.fanins)).encode())
        h.update(repr(sorted(self._outputs.items())).encode())
        digest = h.hexdigest()
        if self._frozen:
            self._digest = digest
        return digest

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_input(self, name: str) -> int:
        """Create (or return) the input variable called ``name``."""
        self._check_mutable()
        if name in self._input_index:
            return self._input_index[name]
        index = len(self._nodes)
        self._nodes.append(Node(index, Node.KIND_INPUT, None, (), name))
        self._inputs.append(index)
        self._input_index[name] = index
        return index

    def add_const(self, value: bool) -> int:
        """Create (or return) the constant node for ``value``."""
        self._check_mutable()
        value = bool(value)
        if value in self._const_index:
            return self._const_index[value]
        index = len(self._nodes)
        self._nodes.append(Node(index, Node.KIND_CONST, None, (), "1" if value else "0"))
        self._const_index[value] = index
        return index

    def add_gate(self, op: GateOp, fanins: Sequence[int], *, share: bool = True) -> int:
        """Create a gate node.

        Parameters
        ----------
        op:
            The gate operator.
        fanins:
            Indices of existing nodes, in order (fanin order is significant
            for the ordering heuristics).
        share:
            When true (default) structurally identical gates are shared.
        """
        self._check_mutable()
        fanins = tuple(int(f) for f in fanins)
        validate_arity(op, len(fanins))
        for f in fanins:
            if not 0 <= f < len(self._nodes):
                raise CircuitError("fanin index %d out of range" % f)
        if share:
            key = (op, fanins)
            cached = self._gate_cache.get(key)
            if cached is not None:
                return cached
        index = len(self._nodes)
        self._nodes.append(Node(index, Node.KIND_GATE, op, fanins, None))
        if share:
            self._gate_cache[(op, fanins)] = index
        return index

    def set_output(self, index: int, name: str = "out") -> None:
        """Declare node ``index`` as the output called ``name``."""
        self._check_mutable()
        if not 0 <= index < len(self._nodes):
            raise CircuitError("output index %d out of range" % index)
        self._outputs[name] = index

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> Sequence[Node]:
        """All nodes in topological order."""
        return self._nodes

    @property
    def input_indices(self) -> Sequence[int]:
        """Indices of the input nodes in creation order."""
        return tuple(self._inputs)

    @property
    def input_names(self) -> Tuple[str, ...]:
        """Names of the input variables in creation order (cached once frozen)."""
        if self._frozen:
            return self._input_names
        return tuple(self._nodes[i].name for i in self._inputs)

    @property
    def outputs(self) -> Mapping[str, int]:
        """Mapping of output name to node index."""
        return dict(self._outputs)

    @property
    def primary_output(self) -> int:
        """The node index of the unique output (error if not exactly one)."""
        if len(self._outputs) != 1:
            raise CircuitError(
                "circuit %r has %d outputs; primary_output requires exactly one"
                % (self.name, len(self._outputs))
            )
        return next(iter(self._outputs.values()))

    def node(self, index: int) -> Node:
        """Return the node with the given index."""
        return self._nodes[index]

    def has_input(self, name: str) -> bool:
        """Whether an input called ``name`` exists (constant time)."""
        return name in self._input_index

    def input_index(self, name: str) -> int:
        """Return the node index of the input called ``name``."""
        try:
            return self._input_index[name]
        except KeyError:
            raise CircuitError("unknown input %r" % (name,)) from None

    @property
    def num_inputs(self) -> int:
        return len(self._inputs)

    @property
    def num_gates(self) -> int:
        """Number of gate nodes (inputs and constants excluded)."""
        return sum(1 for n in self._nodes if n.is_gate)

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------ #
    # Structural queries
    # ------------------------------------------------------------------ #

    def fanouts(self) -> List[List[int]]:
        """Return, for every node, the list of gates that read it (in order)."""
        outs: List[List[int]] = [[] for _ in self._nodes]
        for node in self._nodes:
            for f in node.fanins:
                outs[f].append(node.index)
        return outs

    def cone(self, root: int) -> Set[int]:
        """Return the set of node indices in the transitive fanin cone of ``root``."""
        seen: Set[int] = set()
        stack = [root]
        while stack:
            idx = stack.pop()
            if idx in seen:
                continue
            seen.add(idx)
            stack.extend(self._nodes[idx].fanins)
        return seen

    def support(self, root: Optional[int] = None) -> List[int]:
        """Return input node indices the ``root`` output depends on, in input order."""
        if root is None:
            root = self.primary_output
        cone = self.cone(root)
        return [i for i in self._inputs if i in cone]

    def depth(self, root: Optional[int] = None) -> int:
        """Return the maximum number of gates on any input-to-``root`` path."""
        if root is None:
            root = self.primary_output
        memo: Dict[int, int] = {}
        order = sorted(self.cone(root))
        for idx in order:
            node = self._nodes[idx]
            if not node.is_gate:
                memo[idx] = 0
            else:
                memo[idx] = 1 + max(memo[f] for f in node.fanins)
        return memo[root]

    def dfs_leftmost(self, root: Optional[int] = None) -> Iterator[int]:
        """Yield node indices in depth-first, left-most pre-order from ``root``.

        Each node is yielded at most once (the first time it is reached),
        which matches the traversal the ordering heuristics of the paper
        [25, 26, 4] are defined on.
        """
        if root is None:
            root = self.primary_output
        seen: Set[int] = set()
        stack: List[int] = [root]
        while stack:
            idx = stack.pop()
            if idx in seen:
                continue
            seen.add(idx)
            yield idx
            node = self._nodes[idx]
            # push fanins right-to-left so the left-most fanin is visited first
            for f in reversed(node.fanins):
                if f not in seen:
                    stack.append(f)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def evaluate(self, assignment: Mapping[str, bool]) -> Dict[str, bool]:
        """Evaluate all outputs under a complete input assignment.

        ``assignment`` maps input names to boolean values; missing inputs
        raise :class:`CircuitError`.
        """
        values: List[Optional[bool]] = [None] * len(self._nodes)
        for name, idx in self._input_index.items():
            if name not in assignment:
                raise CircuitError("missing value for input %r" % (name,))
            values[idx] = bool(assignment[name])
        for value, idx in self._const_index.items():
            values[idx] = value
        for node in self._nodes:
            if node.is_gate:
                values[node.index] = evaluate_gate(
                    node.op, [values[f] for f in node.fanins]
                )
        return {name: bool(values[idx]) for name, idx in self._outputs.items()}

    def evaluate_output(self, assignment: Mapping[str, bool], name: Optional[str] = None) -> bool:
        """Evaluate a single output (the primary one when ``name`` is omitted)."""
        results = self.evaluate(assignment)
        if name is None:
            if len(results) != 1:
                raise CircuitError("circuit has multiple outputs; specify a name")
            return next(iter(results.values()))
        if name not in results:
            raise CircuitError("unknown output %r" % (name,))
        return results[name]

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, int]:
        """Return a small summary dictionary (inputs, gates, depth)."""
        try:
            depth = self.depth()
        except CircuitError:
            depth = 0
        return {
            "inputs": self.num_inputs,
            "gates": self.num_gates,
            "nodes": len(self._nodes),
            "depth": depth,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Circuit(%r, inputs=%d, gates=%d)" % (self.name, self.num_inputs, self.num_gates)
