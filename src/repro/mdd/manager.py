"""A reduced ordered multiple-valued decision diagram (ROMDD) engine.

ROMDDs extend ROBDDs by letting every non-terminal node branch on a
multiple-valued variable: a node labeled with variable ``x`` has one
outgoing edge per value of ``x``'s domain.  The paper evaluates the yield by
a single depth-first traversal of the ROMDD of the generalized fault tree
``G(w, v_1 .. v_M)``, so this engine keeps exactly the machinery that
traversal (and the construction routes feeding it) needs:

* hash-consed node creation with the usual reduction rule (a node whose
  children are all identical collapses to that child), which makes the
  representation canonical for a fixed variable order;
* generic ``apply`` for building ROMDDs directly from a filter-gate circuit
  (used by the ablation baseline in :mod:`repro.mdd.direct`);
* bulk loading of the layers the coded-ROBDD conversion produces
  (:meth:`MDDManager.load_layers`): the manager then holds CSR arrays
  (:meth:`MDDManager.node_arrays`) and builds its node tuples only if an
  operation needs them;
* traversal, evaluation and size queries.

Like the ROBDD manager, this manager plugs into the shared kernel of
:mod:`repro.engine.kernel`: nodes are reference counted, dead nodes are
reclaimed on demand with slot reuse, the apply computed table is
size-bounded with statistics, and the variable order can be changed in
place with :meth:`MDDManager.swap_adjacent_levels` /
:meth:`MDDManager.reorder` (Rudell sifting over multiple-valued variables).

The function itself is boolean (terminals 0/1); only the variables are
multiple-valued, which is all the yield method requires.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..engine.kernel import (
    DEFAULT_CACHE_BOUND,
    DEFAULT_GC_THRESHOLD,
    FALSE,
    FREE_LEVEL,
    TERMINAL_LEVEL,
    TRUE,
    DDKernel,
)
from ..faulttree.multivalued import MultiValuedVariable


class MDDError(ValueError):
    """Raised on invalid ROMDD operations."""


_TERMINAL_LEVEL = TERMINAL_LEVEL


class MDDManager(DDKernel):
    """Manager holding ROMDD nodes for a multiple-valued variable order.

    Parameters
    ----------
    variables:
        The multiple-valued variables from the top of the diagrams (level 0)
        downwards.
    cache_bound:
        Maximum number of entries of the apply computed table (``None`` for
        unbounded).
    gc_threshold:
        Node-table growth that makes :meth:`~repro.engine.kernel.DDKernel.checkpoint`
        trigger an automatic garbage collection.
    """

    _NODE_TABLES = ("_level", "_children", "_refs", "_unique")

    def __init__(
        self,
        variables: Sequence[MultiValuedVariable],
        *,
        cache_bound: Optional[int] = DEFAULT_CACHE_BOUND,
        gc_threshold: int = DEFAULT_GC_THRESHOLD,
    ) -> None:
        if not variables:
            raise MDDError("at least one variable is required")
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise MDDError("variable names must be unique")
        self._variables: List[MultiValuedVariable] = list(variables)
        self._level_of: Dict[str, int] = {v.name: i for i, v in enumerate(variables)}

        self._level: List[int] = [TERMINAL_LEVEL, TERMINAL_LEVEL]
        self._children: List[Tuple[int, ...]] = [(), ()]

        self._unique: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        self._init_kernel(cache_bound=cache_bound, gc_threshold=gc_threshold)
        self._apply_cache = self._new_computed_table("apply")
        self._reorder_index: Optional[List[Set[int]]] = None

    # ------------------------------------------------------------------ #
    # Kernel hooks
    # ------------------------------------------------------------------ #

    def _node_children(self, handle: int) -> Iterable[int]:
        return self._children[handle]

    def _node_key(self, handle: int) -> Hashable:
        return (self._level[handle], self._children[handle])

    def _release_slot(self, handle: int) -> None:
        self._children[handle] = ()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def variables(self) -> Tuple[MultiValuedVariable, ...]:
        """The variables from level 0 (top) downwards."""
        return tuple(self._variables)

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def num_nodes_allocated(self) -> int:
        """Total number of nodes ever created, terminals included (monotone)."""
        return self._created

    def level_of(self, name: str) -> int:
        """Return the level of variable ``name``."""
        try:
            return self._level_of[name]
        except KeyError:
            raise MDDError("unknown variable %r" % (name,)) from None

    def variable_at_level(self, level: int) -> MultiValuedVariable:
        """Return the variable at ``level``."""
        if not 0 <= level < len(self._variables):
            raise MDDError("level %d out of range" % level)
        return self._variables[level]

    def level(self, node: int) -> int:
        """Return the level of ``node`` (terminals report a sentinel large level)."""
        return self._level[node]

    def children(self, node: int) -> Tuple[int, ...]:
        """Return the children of ``node``, aligned with the variable's value order."""
        return self._children[node]

    def is_terminal(self, node: int) -> bool:
        """Return whether ``node`` is one of the two terminals."""
        return node <= TRUE

    def node_arrays(self):
        """Return ``(level, offsets, children)`` int64 arrays indexed by handle.

        The children of handle ``h`` are ``children[offsets[h]:offsets[h + 1]]``
        (terminals and reclaimed slots have none).  Terminals report
        :data:`~repro.engine.kernel.TERMINAL_LEVEL` and reclaimed slots
        :data:`~repro.engine.kernel.FREE_LEVEL`.  A loaded manager whose
        lists are not built yet returns the loaded arrays themselves, which
        callers must not modify.
        """
        loaded = self.__dict__.get("_loaded")
        if loaded is not None:
            return loaded[:3]
        counts = np.fromiter(map(len, self._children), np.int64, len(self._children))
        offsets = np.concatenate(([0], np.cumsum(counts)))
        children = np.fromiter(chain.from_iterable(self._children), np.int64, int(offsets[-1]))
        return np.array(self._level, dtype=np.int64), offsets, children

    # ------------------------------------------------------------------ #
    # Node construction
    # ------------------------------------------------------------------ #

    def constant(self, value: bool) -> int:
        """Return the terminal for ``value``."""
        return TRUE if value else FALSE

    def _mk_raw(self, level: int, children: Tuple[int, ...]) -> int:
        """Reduce, hash-cons and reference-count a node (no domain checks)."""
        first = children[0]
        for c in children:
            if c != first:
                break
        else:
            return first
        key = (level, children)
        found = self._unique.get(key)
        if found is not None:
            return found
        if self._free:
            handle = self._free.pop()
            self._level[handle] = level
            self._children[handle] = children
            self._refs[handle] = 0
        else:
            handle = len(self._level)
            self._level.append(level)
            self._children.append(children)
            self._refs.append(0)
        refs = self._refs
        for c in children:
            if c > TRUE:
                refs[c] += 1
        self._created += 1
        self._unique[key] = handle
        return handle

    def load_layers(self, layers, root: int) -> int:
        """Bulk-load converted layers into this empty manager; return ``root``.

        ``layers`` holds ``(level, rows)`` pairs, where ``rows`` is an
        ``n x cardinality`` int array of child handles.  The rows of all
        layers become handles ``2 ..`` in order, exactly the nodes making
        them one by one with :meth:`mk` would create: children come before
        their parents, and no row repeats within its level or has all its
        children equal.  The created count is set, and the child-edge
        reference counts plus one reference held by ``root`` are set as
        :meth:`repro.bdd.BDDManager.load_diagram` sets them, when the node
        lists and unique table are built on first use (see
        :meth:`~repro.engine.kernel.DDKernel._load_lazily`).
        """
        if len(self._level) != 2:
            raise MDDError("load_layers needs an empty manager")
        level = np.concatenate(
            [[TERMINAL_LEVEL, TERMINAL_LEVEL]] + [np.full(len(rows), lv) for lv, rows in layers]
        )
        counts = np.concatenate(
            [[0, 0]] + [np.full(len(rows), rows.shape[1]) for _, rows in layers]
        )
        offsets = np.concatenate(([0], np.cumsum(counts)))
        children = np.concatenate(
            [np.empty(0, dtype=np.int64)] + [rows.ravel() for _, rows in layers]
        )
        self._load_lazily((level, offsets, children, root))
        self._created = len(level)
        self._live_at_last_gc = len(level)
        return root

    def _materialise(self, loaded):
        level, offsets, children, root = loaded
        refs = np.bincount(children, minlength=len(level))
        refs[:2] = 1  # terminals are pinned
        if root > TRUE:
            refs[root] += 1
        flat = children.tolist()
        bounds = offsets.tolist()
        kids = [tuple(flat[start:stop]) for start, stop in zip(bounds, bounds[1:])]
        level = level.tolist()
        unique = dict(zip(zip(level[2:], kids[2:]), range(2, len(level))))
        return {"_level": level, "_children": kids, "_refs": refs.tolist(), "_unique": unique}

    def mk(self, level: int, children: Sequence[int]) -> int:
        """Return the (reduced, hash-consed) node at ``level`` with ``children``.

        ``children`` must have one entry per value of the level's variable, in
        the variable's value order.
        """
        var = self.variable_at_level(level)
        children = tuple(int(c) for c in children)
        if len(children) != var.cardinality:
            raise MDDError(
                "variable %r expects %d children, got %d"
                % (var.name, var.cardinality, len(children))
            )
        return self._mk_raw(level, children)

    def literal(self, name: str, accepted_values: Iterable[int]) -> int:
        """Return the ROMDD of the filter "variable ``name`` takes a value in the set"."""
        level = self.level_of(name)
        var = self._variables[level]
        accepted = set(int(v) for v in accepted_values)
        unknown = accepted.difference(var.values)
        if unknown:
            raise MDDError(
                "values %s are outside the domain of %r" % (sorted(unknown), name)
            )
        children = [TRUE if value in accepted else FALSE for value in var.values]
        return self.mk(level, children)

    # ------------------------------------------------------------------ #
    # Apply-style boolean operations
    # ------------------------------------------------------------------ #

    def not_(self, f: int) -> int:
        """Return the complement of ``f``."""
        return self._apply_unary(f)

    def _apply_unary(self, f: int) -> int:
        if f == TRUE:
            return FALSE
        if f == FALSE:
            return TRUE
        # iterative post-order complementation: deep (chain-shaped) diagrams
        # must not hit the interpreter recursion limit.  Results collect in a
        # local map (complete for the walk even if the bounded shared cache
        # evicts mid-traversal) and are published to the cache at the end.
        cache = self._apply_cache
        local: Dict[int, int] = {FALSE: TRUE, TRUE: FALSE}
        stack = [(f, False)]
        while stack:
            n, expanded = stack.pop()
            if n in local:
                continue
            if expanded:
                kids = tuple(local[c] for c in self._children[n])
                result = self._mk_raw(self._level[n], kids)
                local[n] = result
                cache.put(("not", n, -1), result)
                continue
            cached = cache.get(("not", n, -1))
            if cached is not None:
                local[n] = cached
                continue
            stack.append((n, True))
            for child in self._children[n]:
                if child not in local:
                    stack.append((child, False))
        return local[f]

    def and_(self, f: int, g: int) -> int:
        """Return ``f AND g``."""
        return self._apply(f, g, "and")

    def or_(self, f: int, g: int) -> int:
        """Return ``f OR g``."""
        return self._apply(f, g, "or")

    def xor_(self, f: int, g: int) -> int:
        """Return ``f XOR g``."""
        return self._apply(f, g, "xor")

    def and_many(self, operands: Iterable[int]) -> int:
        """Return the conjunction of all operands (TRUE for an empty list)."""
        result = TRUE
        for op in operands:
            result = self.and_(result, op)
            if result == FALSE:
                return FALSE
        return result

    def or_many(self, operands: Iterable[int]) -> int:
        """Return the disjunction of all operands (FALSE for an empty list)."""
        result = FALSE
        for op in operands:
            result = self.or_(result, op)
            if result == TRUE:
                return TRUE
        return result

    def _apply(self, f: int, g: int, op: str) -> int:
        # terminal shortcuts
        if op == "and":
            if f == FALSE or g == FALSE:
                return FALSE
            if f == TRUE:
                return g
            if g == TRUE:
                return f
            if f == g:
                return f
        elif op == "or":
            if f == TRUE or g == TRUE:
                return TRUE
            if f == FALSE:
                return g
            if g == FALSE:
                return f
            if f == g:
                return f
        elif op == "xor":
            if f == g:
                return FALSE
            if f == FALSE:
                return g
            if g == FALSE:
                return f
            if f == TRUE:
                return self.not_(g)
            if g == TRUE:
                return self.not_(f)
        else:  # pragma: no cover - exhaustiveness guard
            raise MDDError("unknown apply operator %r" % (op,))

        if f > g:
            # the operators are commutative; normalize for better cache hits
            f, g = g, f
        key = (op, f, g)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached

        level = min(self._level[f], self._level[g])
        cardinality = self._variables[level].cardinality
        f_children = self._expand(f, level, cardinality)
        g_children = self._expand(g, level, cardinality)
        children = tuple(
            self._apply(fc, gc, op) for fc, gc in zip(f_children, g_children)
        )
        result = self._mk_raw(level, children)
        self._apply_cache.put(key, result)
        return result

    def _expand(self, node: int, level: int, cardinality: int) -> Sequence[int]:
        if node > TRUE and self._level[node] == level:
            return self._children[node]
        return (node,) * cardinality

    # ------------------------------------------------------------------ #
    # Dynamic reordering
    # ------------------------------------------------------------------ #

    def begin_reorder(self) -> None:
        """Enter a reordering session (see :meth:`repro.bdd.BDDManager.begin_reorder`)."""
        if self._reorder_index is not None:
            raise MDDError("a reordering session is already active")
        self.garbage_collect()
        index: List[Set[int]] = [set() for _ in self._variables]
        level = self._level
        for h in self.iter_live_handles():
            index[level[h]].add(h)
        self._reorder_index = index

    def end_reorder(self) -> None:
        """Leave the reordering session and flush the computed tables."""
        self._reorder_index = None
        for table in self._computed_tables.values():
            table.clear()

    @property
    def in_reorder(self) -> bool:
        return self._reorder_index is not None

    def nodes_at_level(self, level: int) -> int:
        """Return the number of allocated nodes labelled with ``level``."""
        if self._reorder_index is not None:
            return len(self._reorder_index[level])
        levels = self._level
        return sum(1 for h in self.iter_live_handles() if levels[h] == level)

    def swap_adjacent_levels(self, level: int) -> None:
        """Exchange the variables at ``level`` and ``level + 1`` in place.

        The multiple-valued generalization of the ROBDD swap: a node that
        depends on both variables is rewritten to branch on the lower
        variable first, with one fresh upper-variable node per value of the
        lower variable's domain.  Handles keep denoting the same functions.
        """
        i = level
        j = level + 1
        if not 0 <= i < len(self._variables) - 1:
            raise MDDError("cannot swap level %d with %d" % (i, j))
        index = self._reorder_index
        if index is not None:
            ui, vi = index[i], index[j]
        else:
            levels = self._level
            ui, vi = set(), set()
            for h in self.iter_live_handles():
                lv = levels[h]
                if lv == i:
                    ui.add(h)
                elif lv == j:
                    vi.add(h)

        u_var = self._variables[i]
        v_var = self._variables[j]
        u_card = u_var.cardinality
        v_card = v_var.cardinality

        # swap the variable metadata first so _mk_raw levels stay meaningful
        self._variables[i] = v_var
        self._variables[j] = u_var
        self._level_of[v_var.name] = i
        self._level_of[u_var.name] = j

        levels = self._level
        children = self._children
        refs = self._refs
        unique = self._unique

        for h in ui:
            del unique[(i, children[h])]
        for h in vi:
            del unique[(j, children[h])]

        new_i: Set[int] = set()
        new_j: Set[int] = set()
        dependent: List[int] = []
        for h in ui:
            if any(levels[c] == j for c in children[h]):
                dependent.append(h)
            else:
                levels[h] = j
                unique[(j, children[h])] = h
                new_j.add(h)

        for h in dependent:
            kids = children[h]
            grand = [
                children[c] if levels[c] == j else (c,) * v_card for c in kids
            ]
            for c in kids:
                if c > TRUE:
                    refs[c] -= 1
            new_kids: List[int] = []
            for b in range(v_card):
                column = tuple(grand[a][b] for a in range(u_card))
                node = self._mk_raw(j, column)
                if node > TRUE:
                    refs[node] += 1
                    if levels[node] == j:
                        new_j.add(node)
                new_kids.append(node)
            new_tuple = tuple(new_kids)
            children[h] = new_tuple
            levels[h] = i
            unique[(i, new_tuple)] = h
            new_i.add(h)

        dead: List[int] = []
        for h in vi:
            if index is not None and refs[h] == 0:
                dead.append(h)
            else:
                levels[h] = i
                unique[(i, children[h])] = h
                new_i.add(h)

        while dead:
            h = dead.pop()
            if refs[h] != 0 or levels[h] == FREE_LEVEL:
                continue
            lv = levels[h]
            if lv != j:
                unique.pop((lv, children[h]), None)
                index[lv].discard(h)  # type: ignore[index]
            for c in children[h]:
                if c > TRUE:
                    refs[c] -= 1
                    if refs[c] == 0:
                        dead.append(c)
            children[h] = ()
            levels[h] = FREE_LEVEL
            self._free.append(h)

        if index is not None:
            index[i] = new_i
            index[j] = new_j

    def reorder(self, roots: Iterable[int] = (), **kwargs):
        """Minimise the diagram sizes by sifting; returns the reorder stats.

        ``roots`` are protected for the duration.  Keyword arguments are
        forwarded to :func:`repro.engine.reorder.sift`.
        """
        from ..engine.reorder import sift

        roots = [r for r in roots if r > TRUE]
        for r in roots:
            self.ref(r)
        try:
            return sift(self, **kwargs)
        finally:
            for r in roots:
                self.deref(r)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def evaluate(self, node: int, assignment: Mapping[str, int]) -> bool:
        """Evaluate the function rooted at ``node`` on a complete assignment."""
        current = node
        while current > TRUE:
            var = self._variables[self._level[current]]
            if var.name not in assignment:
                raise MDDError("missing value for variable %r" % (var.name,))
            value = int(assignment[var.name])
            try:
                position = var.values.index(value)
            except ValueError:
                raise MDDError(
                    "value %r outside the domain of %r" % (value, var.name)
                ) from None
            current = self._children[current][position]
        return current == TRUE

    def reachable(self, node: int) -> Set[int]:
        """Return all node handles reachable from ``node`` (terminals included)."""
        # breadth-first, so each node's children join the reached set in
        # one C-level update
        children = self._children
        seen: Set[int] = {node}
        frontier: Set[int] = {node}
        while frontier:
            reached: Set[int] = set()
            for n in frontier:
                reached.update(children[n])
            frontier = reached - seen
            seen |= frontier
        return seen

    def size(self, node: int) -> int:
        """Return the number of nodes reachable from ``node`` (terminals included).

        Counted one level at a time on :meth:`node_arrays`, so a loaded
        manager answers without building its node lists.
        """
        if node <= TRUE:
            return 1
        level, offsets, children = self.node_arrays()
        reached = np.zeros(len(level), dtype=bool)
        reached[node] = True
        by_level = np.argsort(level)
        starts = np.searchsorted(level[by_level], np.arange(self.num_variables + 1))
        for lv in range(int(level[node]), self.num_variables):
            nodes = by_level[starts[lv] : starts[lv + 1]]
            nodes = nodes[reached[nodes]]
            edges = offsets[nodes, None] + np.arange(self._variables[lv].cardinality)
            reached[children[edges]] = True
        return int(reached.sum())

    def support(self, node: int) -> List[str]:
        """Return the names of the variables the function depends on."""
        levels = {self._level[n] for n in self.reachable(node) if n > TRUE}
        return [self._variables[lvl].name for lvl in sorted(levels)]

    def iter_nodes(self, node: int):
        """Yield ``(handle, level, children)`` for every reachable non-terminal node."""
        for n in sorted(self.reachable(node)):
            if n > TRUE:
                yield n, self._level[n], self._children[n]

    def clear_operation_cache(self) -> None:
        """Drop the apply computed table."""
        self._apply_cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "MDDManager(vars=%d, nodes=%d)" % (self.num_variables, self.num_nodes_allocated)
