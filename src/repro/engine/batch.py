"""Batched bottom-up probability evaluation over linearized ROMDDs.

The paper's final step — the probability traversal of the ROMDD — is cheap
per point, but density/truncation sweeps (Tables 2/3) re-run it once per
defect model over the *same* diagram.  The recursive, dict-memoized
traversal of :func:`repro.mdd.probability.probability_of_one_reference`
then pays K times for graph walking, memo-dict churn and Python call
frames, and its recursion depth is bounded only by the diagram depth.

This module removes all three costs:

* :class:`LinearizedDiagram` flattens a ROMDD once into parallel arrays —
  node slots grouped by level, deepest level first, each node carrying the
  slot indices of its children.  Because children always sit on strictly
  deeper levels, a single bottom-up pass over the layers is a valid
  topological schedule, with no recursion and no per-node dict lookups.
* :meth:`LinearizedDiagram.evaluate` runs that pass for **all K defect
  models at once**: every slot holds a length-K value row and every level
  contributes a ``cardinality x K`` probability matrix.
* :meth:`LinearizedDiagram.backward` adds reverse-mode differentiation on
  the same arrays: the root probability is **multilinear** in the per-level
  value probabilities (every root-to-terminal path crosses a level at most
  once), so one bottom-up value pass followed by one top-down adjoint pass
  yields the *exact* gradient ``d P(root = 1) / d p(level, value)`` for
  every level, every value and every one of the K models.

Two kernels execute the pass, **bit-for-bit identical** (they perform the
same IEEE operations in the same child order per node):

* ``fused`` — the numpy kernel.  The diagram is compiled once into a
  :class:`FusedSchedule` (one concatenated child-slot index array in
  evaluation order, one CSR segment-offset array, a per-slot level mapping
  and a layer boundary table), and the pass walks precomputed array views:
  cache-blocked accumulation into a reused workspace (no per-step
  temporaries) and — the big win — **model-uniform level collapse**: a
  level whose probability columns are bitwise identical across all K
  models (every location level of a density sweep) is evaluated at width
  1 and broadcast, instead of recomputing the same floats K times;
* ``native`` — the same schedule walked by compiled C
  (:mod:`repro.engine.native`): the in-repo ``_native_kernel.c`` is built
  on demand with the system ``cc``, cached content-addressed next to the
  structure store, and called through ``ctypes`` on the FusedSchedule
  arrays zero-copy.  It keeps the collapse and accumulation semantics of
  the fused kernel (forward *and* backward are bit-for-bit identical) and
  removes the per-layer interpreter dispatch entirely.

Every pass runs ``native`` when the compiled library loads on this host
and ``fused`` otherwise (each such pass counts one ``native.fallbacks``);
a pass can never mix kernels mid-traversal.  The recursive
:func:`~repro.mdd.probability.probability_of_one_reference` stays as the
oracle both kernels are pinned to.  The arrays depend only on the diagram
structure, so one linearization serves every sweep point of a structure
group (see :meth:`repro.core.method.CompiledYield.linearized`), and the
fused arrays are exactly what :mod:`repro.engine.store` persists and what
pool workers consume zero-copy through ``mmap``.
"""

from __future__ import annotations

import threading as _threading
import time as _time
from contextlib import contextmanager as _contextmanager
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as _np

from . import native as _native
from ..obs import trace as _obs_trace

#: Node-block size of the fused kernel, in (node, model) cells: blocks are
#: sized so the gather workspace stays cache-resident across the child loop.
_FUSED_BLOCK_CELLS = 49152


class BatchEvalError(ValueError):
    """Raised on invalid batched-evaluation requests."""


class DeadlineExceeded(RuntimeError):
    """Raised when a pass outlives the shard deadline of the dispatch layer."""


#: Thread-local shard deadline (absolute epoch seconds, or None).  Epoch
#: time, not a monotonic clock, so a deadline computed in the parent can
#: ride a shard payload into a worker process and stay comparable there.
_SHARD_DEADLINE = _threading.local()


@_contextmanager
def shard_deadline(deadline: Optional[float]):
    """Install an absolute (epoch-seconds) pass deadline for this thread.

    The supervised dispatch wraps each worker-side shard evaluation in
    this context; :func:`check_deadline` then aborts passes that outlive
    it — a shard that sat queued behind a hung sibling past its deadline
    fails fast with :class:`DeadlineExceeded` instead of wasting a full
    evaluation the parent has already given up on.  ``None`` disables the
    checks (their cost is then a single thread-local read per pass).
    """
    previous = getattr(_SHARD_DEADLINE, "value", None)
    _SHARD_DEADLINE.value = deadline
    try:
        yield
    finally:
        _SHARD_DEADLINE.value = previous


def check_deadline() -> None:
    """Raise :class:`DeadlineExceeded` once the installed deadline passed."""
    deadline = getattr(_SHARD_DEADLINE, "value", None)
    if deadline is not None and _time.time() > deadline:
        raise DeadlineExceeded("shard deadline exceeded mid-pass")


class FusedSchedule:
    """The fused CSR form of one linearized diagram.

    Everything the kernels walk, precomputed once per structure:

    ``kids``
        One concatenated child-slot index array covering every edge of the
        diagram, layer by layer (deepest first).  Within a layer the edges
        are stored in **evaluation order** — child-position major: all the
        nodes' 0th children, then all their 1st children, and so on — so
        each accumulation step of the kernel is one contiguous view.
    ``seg``
        The CSR segment-offset array: ``seg[i]`` is the offset of slot
        ``i + 2``'s children in the *node-major* edge ordering
        (``seg[i + 1] - seg[i]`` is its branching factor).  The node-major
        view of a layer is a transpose view of its ``kids`` span, so both
        orderings share the same backing array.
    ``slot_levels``
        Per-slot level mapping: ``slot_levels[i]`` is the level of slot
        ``i + 2`` (terminals excluded).  Together with the per-layer value
        row index (the child position), this maps every edge to its
        probability entry ``p(level, value)``.
    ``bounds``
        The layer boundary table: one ``(level, slot_start, slot_stop,
        edge_start, edge_stop, cardinality)`` row per layer, deepest level
        first.  Slot ranges are contiguous and partition ``2 .. num_slots``;
        edge ranges partition ``kids``.

    The arrays are plain ``int64``/``intp`` ndarrays — or memory-mapped
    views straight out of a store entry (:mod:`repro.engine.store`),
    which the kernels consume without copying.
    """

    __slots__ = ("kids", "seg", "slot_levels", "bounds", "_walk", "_native_ctx")

    def __init__(self, kids, seg, slot_levels, bounds) -> None:
        self.kids = kids
        self.seg = seg
        self.slot_levels = slot_levels
        self.bounds = tuple(
            (int(lv), int(s0), int(s1), int(e0), int(e1), int(card))
            for lv, s0, s1, e0, e1, card in bounds
        )
        self._walk = None
        # per-schedule arrays prepared by repro.engine.native, at most once
        self._native_ctx = None

    @classmethod
    def from_layers(cls, layers) -> "FusedSchedule":
        """Compile ``(level, slots, kid_rows)`` layers into the fused form.

        Requires each layer's slots to be one contiguous ascending range,
        the first starting at slot 2 (which :meth:`LinearizedDiagram.from_mdd`
        guarantees); raises :class:`BatchEvalError` otherwise.
        """
        parts = []
        bounds = []
        slot_levels = []
        counts = [0]
        edge = 0
        expected = 2
        for level, slots, kid_rows in layers:
            n = len(slots)
            card = len(kid_rows[0])
            if tuple(slots) != tuple(range(expected, expected + n)):
                raise BatchEvalError(
                    "layer at level %d has non-contiguous slots" % level
                )
            # child-position-major: kids[j * n + i] = j-th child of node i
            jm = _np.ascontiguousarray(_np.asarray(kid_rows, dtype=_np.intp).T)
            parts.append(jm.reshape(-1))
            bounds.append((level, expected, expected + n, edge, edge + n * card, card))
            slot_levels.extend([level] * n)
            counts.extend([card] * n)
            edge += n * card
            expected += n
        kids = (
            _np.concatenate(parts) if parts else _np.empty(0, dtype=_np.intp)
        )
        seg = _np.cumsum(_np.asarray(counts, dtype=_np.int64))
        return cls(kids, seg, _np.asarray(slot_levels, dtype=_np.int64), bounds)

    def validate(self, num_slots: int) -> None:
        """Check every structural invariant (store loads call this).

        A corrupt or bit-rotted entry must load as a **miss**, never as a
        structure that evaluates to garbage — so beyond the boundary-table
        checks this verifies ``seg`` and ``slot_levels`` against the
        bounds layer by layer and scans ``kids`` for out-of-range children
        (each layer's children must point strictly deeper: ``0 <= kid <
        slot_start``).  The edge scan reads the (possibly memory-mapped)
        array once — the same pages the first evaluation pass would fault
        in anyway.
        """
        expected_slot = 2
        expected_edge = 0
        last_level = None
        for level, s0, s1, e0, e1, card in self.bounds:
            if s0 != expected_slot or s1 <= s0:
                raise BatchEvalError("fused bounds have a slot gap at %d" % s0)
            if e0 != expected_edge or e1 - e0 != (s1 - s0) * card or card < 1:
                raise BatchEvalError("fused bounds have an edge gap at %d" % e0)
            if last_level is not None and level >= last_level:
                raise BatchEvalError("fused layers are not deepest-first")
            last_level = level
            expected_slot = s1
            expected_edge = e1
        if expected_slot != num_slots:
            raise BatchEvalError(
                "fused bounds cover %d slots, diagram has %d"
                % (expected_slot, num_slots)
            )
        if len(self.kids) != expected_edge:
            raise BatchEvalError(
                "fused edge array has %d entries, bounds describe %d"
                % (len(self.kids), expected_edge)
            )
        if len(self.slot_levels) != num_slots - 2:
            raise BatchEvalError("per-slot level mapping has the wrong length")
        if len(self.seg) != num_slots - 1 or int(self.seg[0]) != 0:
            raise BatchEvalError("CSR segment offsets are inconsistent")
        node_offset = 0
        for level, s0, s1, e0, e1, card in self.bounds:
            n = s1 - s0
            span = self.kids[e0:e1]
            if len(span) and (int(span.min()) < 0 or int(span.max()) >= s0):
                raise BatchEvalError(
                    "fused edges at level %d point outside the deeper slots"
                    % level
                )
            seg_slice = self.seg[node_offset : node_offset + n + 1]
            # node-major edge offsets coincide with the layer edge starts
            # (layers are contiguous), so seg[first node of layer] == e0
            if int(seg_slice[0]) != e0:
                raise BatchEvalError(
                    "CSR segment offsets disagree with the bounds at level %d"
                    % level
                )
            widths = _np.diff(seg_slice)
            if not bool((widths == card).all()):
                raise BatchEvalError(
                    "CSR segment widths at level %d disagree with the bounds"
                    % level
                )
            levels_slice = self.slot_levels[node_offset : node_offset + n]
            if not bool((_np.asarray(levels_slice) == level).all()):
                raise BatchEvalError(
                    "per-slot level mapping disagrees with the bounds at "
                    "level %d" % level
                )
            node_offset += n
        if int(self.seg[-1]) != expected_edge:
            raise BatchEvalError("CSR segment offsets are inconsistent")

    @property
    def walk(self):
        """Per-layer ``(level, s0, s1, kid_views, card)`` tuples.

        ``kid_views[j]`` is the contiguous view of the layer's ``j``-th
        child column inside :attr:`kids` — the exact index array each
        accumulation step of the fused kernel gathers with.
        """
        if self._walk is None:
            walk = []
            for level, s0, s1, e0, e1, card in self.bounds:
                n = s1 - s0
                span = self.kids[e0:e1]
                views = tuple(span[j * n : (j + 1) * n] for j in range(card))
                walk.append((level, s0, s1, views, card))
            self._walk = tuple(walk)
        return self._walk


class LinearizedDiagram:
    """Flat, topologically ordered arrays of one ROMDD function.

    The diagram rooted at ``root`` is held as one :class:`FusedSchedule`:
    one layer per level that actually occurs, deepest level first.  Slots
    ``0`` and ``1`` are the FALSE/TRUE terminals; the remaining slots are
    assigned contiguously, layer by layer, so that evaluation can use a
    single dense value array instead of a memo dict.

    Instances are immutable snapshots: rebuilding after a manager-side
    reordering or GC is the caller's responsibility (compiled structures
    never mutate their diagram, so they linearize exactly once).  The
    constructor compiles ``(level, slots, kid_rows)`` layer tuples into
    the schedule once (each layer's slots must be one contiguous ascending
    range, else :class:`BatchEvalError`); :meth:`from_mdd` linearizes a
    manager's diagram and :meth:`from_fused_arrays` adopts the fused
    arrays of a store entry (possibly memory-mapped) as they are.
    """

    __slots__ = (
        "root_slot",
        "num_slots",
        "node_count",
        "_fused",
        "fused_passes",
        "native_passes",
        "collapsed_layers",
        "models_evaluated",
        "gradient_passes",
        "models_differentiated",
        "last_kernel",
    )

    def __init__(
        self,
        root_slot: int,
        num_slots: int,
        layers: Sequence[Tuple[int, Sequence[int], Sequence[Sequence[int]]]],
    ) -> None:
        self._adopt(root_slot, num_slots, FusedSchedule.from_layers(layers))

    def _adopt(self, root_slot: int, num_slots: int, schedule: FusedSchedule) -> None:
        self.root_slot = root_slot
        self.num_slots = num_slots
        self.node_count = num_slots - 2
        self._fused = schedule
        #: Monotone counters describing how this linearization was used.
        self.fused_passes = 0
        self.native_passes = 0
        self.collapsed_layers = 0
        self.models_evaluated = 0
        self.gradient_passes = 0
        self.models_differentiated = 0
        #: The kernel the most recent pass resolved to (``None`` before
        #: any pass); surfaced in service spans so traces show which
        #: backend actually ran.
        self.last_kernel: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_mdd(cls, manager, root: int) -> "LinearizedDiagram":
        """Linearize the ROMDD rooted at ``root`` (iterative, no recursion).

        Works on the manager's CSR :meth:`~repro.mdd.MDDManager.node_arrays`,
        so a bulk-loaded manager never builds its node tuples.  Slots follow
        a stack depth-first walk from the root: layers deepest level first,
        and within a layer the order the walk pops the nodes.  The walk runs
        in the native library (:func:`repro.engine.native.linearize_mdd`)
        whenever it loads, and otherwise in :func:`_linearize_numpy`; both
        give the same slots and arrays.
        """
        return cls._linearize(manager, root, native=_native.available())

    @classmethod
    def _linearize(cls, manager, root: int, *, native: bool) -> "LinearizedDiagram":
        """:meth:`from_mdd` on the native library or on numpy."""
        if root <= 1:
            return cls(root, 2, ())
        arrays = manager.node_arrays()
        if native:
            root_slot, num_slots, fused = _native.linearize_mdd(
                *arrays, root, manager.num_variables
            )
            schedule = FusedSchedule(*fused)
        else:
            root_slot, num_slots, schedule = _linearize_numpy(*arrays, root)
        diagram = cls.__new__(cls)
        diagram._adopt(root_slot, num_slots, schedule)
        return diagram

    @classmethod
    def from_fused_arrays(
        cls, root_slot: int, num_slots: int, kids, seg, slot_levels, bounds
    ) -> "LinearizedDiagram":
        """Build a diagram directly from fused arrays (a store entry).

        The arrays may be memory-mapped; they are validated structurally
        (:meth:`FusedSchedule.validate`) and consumed without copying.
        """
        schedule = FusedSchedule(kids, seg, slot_levels, bounds)
        schedule.validate(num_slots)
        diagram = cls.__new__(cls)
        diagram._adopt(root_slot, num_slots, schedule)
        return diagram

    def fused(self) -> FusedSchedule:
        """Return the fused CSR schedule of the diagram."""
        return self._fused

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def levels(self) -> Tuple[int, ...]:
        """The levels present in the diagram, deepest first."""
        return tuple(bound[0] for bound in self._fused.bounds)

    def cardinality_at(self, level: int) -> int:
        """Return the branching factor of the nodes at ``level``."""
        for lv, _, _, _, _, card in self._fused.bounds:
            if lv == level:
                return card
        raise BatchEvalError("level %d does not occur in the diagram" % level)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def evaluate(
        self,
        level_columns: Mapping[int, Sequence[Sequence[float]]],
        num_models: int,
        *,
        kernel: Optional[str] = None,
    ) -> List[float]:
        """Evaluate all ``num_models`` models in one bottom-up pass.

        Parameters
        ----------
        level_columns:
            For every level present in the diagram, a ``cardinality x K``
            probability matrix (a float64 ndarray, or nested sequences
            converted once): row ``j`` is the probability of value ``j``
            under each model.
        num_models:
            The number of models ``K`` (every matrix must have exactly this
            many columns).  ``K = 0`` short-circuits to an empty result.
        kernel:
            ``None`` (the default: native when the compiled library loads,
            else fused), or ``"fused"``/``"native"`` to pin one — the seam
            the equivalence tests compare the kernels through.  A native
            pass on a host whose library cannot load runs fused.  The
            results are bit-for-bit identical either way.

        Returns
        -------
        list of float
            ``P(function == 1)`` under each model, in model order.
        """
        if num_models < 0:
            raise BatchEvalError("the number of models cannot be negative")
        if num_models == 0:
            return []
        if self.root_slot <= 1:
            value = float(self.root_slot)
            return [value] * num_models
        check_deadline()
        columns = self._columns(level_columns, num_models)
        kernel = self._resolve(kernel)
        self.models_evaluated += num_models
        if kernel == "native":
            self.native_passes += 1
            runner = lambda: self._evaluate_native(columns, num_models)
        else:
            self.fused_passes += 1
            runner = lambda: self._evaluate_fused(columns, num_models)
        return self._run_pass("evaluate", kernel, num_models, runner)

    def backward(
        self,
        level_columns: Mapping[int, Sequence[Sequence[float]]],
        num_models: int,
        *,
        kernel: Optional[str] = None,
    ) -> Tuple[List[float], Dict[int, Tuple[Tuple[float, ...], ...]]]:
        """One forward plus one reverse pass: probabilities *and* gradients.

        The root probability is a multilinear function of the per-level value
        probabilities — every root-to-terminal path crosses each level at
        most once — so reverse-mode differentiation is exact: after the
        bottom-up value pass, the top-down pass propagates the adjoint
        ``a(n) = d P(root = 1) / d value(n)`` from the root (adjoint 1)
        towards the terminals,

        * ``a(child_j(n)) += p(level(n), j) * a(n)`` and
        * ``d P / d p(level(n), j) += value(child_j(n)) * a(n)``,

        for **all** ``num_models`` models in the same pass.  Parents always
        sit on strictly shallower levels than their children, so walking the
        layers shallowest level first is a valid reverse topological
        schedule.  ``kernel`` is resolved as in :meth:`evaluate`.

        Returns
        -------
        (probabilities, gradients)
            ``probabilities`` matches :meth:`evaluate`.  ``gradients`` maps
            every level present in the diagram to one length-``K`` gradient
            row per variable value: ``gradients[level][j][k]`` is the exact
            derivative of model ``k``'s root probability with respect to the
            probability of value ``j`` at ``level``.  Levels the diagram
            skips do not appear (their gradients are identically zero).
            ``K = 0`` short-circuits to ``([], {})``.
        """
        if num_models < 0:
            raise BatchEvalError("the number of models cannot be negative")
        if num_models == 0:
            return [], {}
        if self.root_slot <= 1:
            value = float(self.root_slot)
            return [value] * num_models, {}
        check_deadline()
        columns = self._columns(level_columns, num_models)
        kernel = self._resolve(kernel)
        self.gradient_passes += 1
        self.models_differentiated += num_models
        if kernel == "native":
            self.native_passes += 1
            runner = lambda: self._backward_native(columns, num_models)
        else:
            self.fused_passes += 1
            runner = lambda: self._backward_fused(columns, num_models)
        return self._run_pass("backward", kernel, num_models, runner)

    def _run_pass(self, op, kernel, num_models, runner):
        """Execute one pass, in a ``kernel.<op>`` span when tracing is on.

        The disabled path costs one module-attribute read.
        """
        if _obs_trace.active() is None:
            return runner()
        with _obs_trace.span(
            "kernel." + op, kernel=kernel, models=num_models, nodes=self.node_count
        ):
            return runner()

    def _columns(self, level_columns, num_models: int) -> Dict[int, "object"]:
        """Every level's columns as one ``(cardinality, K)`` float64 matrix.

        The one conversion point of a pass, shared by both kernels: float64
        ndarrays pass through untouched, anything else converts once, and
        each matrix must have exactly the level's cardinality in rows and
        ``num_models`` columns — a narrower matrix would otherwise broadcast
        silently in the fused kernel.
        """
        normalized = {}
        for level, _, _, _, _, card in self._fused.bounds:
            columns = level_columns.get(level)
            if columns is None:
                raise BatchEvalError("missing probabilities for level %d" % level)
            try:
                columns = _np.asarray(columns, dtype=_np.float64)
            except ValueError as exc:
                raise BatchEvalError(
                    "level %d probabilities are not a matrix: %s" % (level, exc)
                ) from None
            if columns.shape != (card, num_models):
                raise BatchEvalError(
                    "level %d expects a %d x %d probability matrix, got shape %r"
                    % (level, card, num_models, columns.shape)
                )
            normalized[level] = columns
        return normalized

    def _resolve(self, kernel: Optional[str]) -> str:
        """Resolve the kernel a pass runs on — one decision per pass.

        Native whenever the compiled backend loads, else fused: a host
        without a compiler (or with a failed compile or a corrupt cache
        entry) completes the pass bit-identically on the fused kernel, and
        each such pass is recorded in the ``native.fallbacks`` counter.
        ``kernel="fused"`` pins the fused kernel.
        """
        if kernel not in (None, "fused", "native"):
            raise BatchEvalError(
                "unknown kernel %r (expected None, 'fused' or 'native')" % (kernel,)
            )
        if kernel != "fused":
            if _native.available():
                kernel = "native"
            else:
                _native.note_fallback()
                kernel = "fused"
        self.last_kernel = kernel
        return kernel

    # ------------------------------------------------------------------ #
    # Fused kernel
    # ------------------------------------------------------------------ #

    def _forward_fused(self, columns_by_level, num_models: int):
        """The fused bottom-up pass over the precompiled schedule.

        Two mechanisms on top of a plain per-layer gather/multiply/add,
        both bit-for-bit neutral (the per-node child-ordered IEEE
        accumulation is unchanged):

        * **model-uniform level collapse** — a layer whose probability
          columns are identical across all K models *and* whose children
          all carry model-uniform values is evaluated once at width 1 and
          broadcast into the value table.  In a density sweep every
          location level qualifies (the conditional hit vector does not
          depend on the defect density), which collapses almost the whole
          diagram to a single-model pass.
        * **blocked accumulation** — wide layers accumulate through a
          reused, cache-sized workspace (``np.take(..., out=...)``)
          instead of allocating per-step temporaries.
        """
        schedule = self._fused
        walk = schedule.walk
        values = _np.empty((self.num_slots, num_models), dtype=_np.float64)
        values[0] = 0.0
        values[1] = 1.0
        # width-1 companion table + per-slot uniformity map for the collapse
        narrow_values = _np.empty(self.num_slots, dtype=_np.float64)
        narrow_values[0] = 0.0
        narrow_values[1] = 1.0
        narrow = _np.zeros(self.num_slots, dtype=bool)
        narrow[0] = narrow[1] = True
        block = max(64, _FUSED_BLOCK_CELLS // num_models)
        ws = None
        ws1 = None
        for level, s0, s1, kid_views, card in walk:
            columns = columns_by_level[level]
            n = s1 - s0
            uniform = num_models == 1 or bool(
                (columns[:, 1:] == columns[:, :1]).all()
            )
            if uniform and all(narrow[kv].all() for kv in kid_views):
                # width-1 evaluation: all K models see identical inputs,
                # so one pass produces every model's (identical) floats
                if ws1 is None:
                    ws1 = _np.empty(
                        max(b[2] - b[1] for b in schedule.bounds),
                        dtype=_np.float64,
                    )
                row = ws1[:n]
                _np.take(narrow_values, kid_views[0], out=row)
                row *= columns[0, 0]
                for j in range(1, card):
                    g = _np.take(narrow_values, kid_views[j])
                    g *= columns[j, 0]
                    row += g
                narrow_values[s0:s1] = row
                values[s0:s1] = row[:, None]
                narrow[s0:s1] = True
                self.collapsed_layers += 1
                continue
            if ws is None:
                ws = _np.empty((block, num_models), dtype=_np.float64)
            for b0 in range(0, n, block):
                b1 = min(b0 + block, n)
                g = ws[: b1 - b0]
                out = values[s0 + b0 : s0 + b1]
                _np.take(values, kid_views[0][b0:b1], axis=0, out=g)
                g *= columns[0]
                out[:] = g
                for j in range(1, card):
                    _np.take(values, kid_views[j][b0:b1], axis=0, out=g)
                    g *= columns[j]
                    out += g
        return values

    def _evaluate_fused(self, columns_by_level, num_models: int) -> List[float]:
        values = self._forward_fused(columns_by_level, num_models)
        return values[self.root_slot].tolist()

    def _backward_fused(self, columns_by_level, num_models: int):
        """Fused forward pass plus the adjoint sweep over the schedule.

        The adjoint accumulation cannot collapse (the count level injects
        per-model adjoints above the uniform levels), so the reverse sweep
        gathers the layer's adjoints, scatters them to the children with
        ``np.add.at`` (which handles shared children) and reduces each
        child position's gradient row over the layer's nodes.
        """
        values = self._forward_fused(columns_by_level, num_models)
        adjoint = _np.zeros((self.num_slots, num_models), dtype=_np.float64)
        adjoint[self.root_slot] = 1.0
        gradients: Dict[int, Tuple[Tuple[float, ...], ...]] = {}
        for level, s0, s1, kid_views, card in reversed(self._fused.walk):
            columns = columns_by_level[level]
            # nodes of a layer never parent each other (children sit
            # strictly deeper), so the scatters below never touch this view
            a = adjoint[s0:s1]
            grad_rows = []
            for j in range(card):
                kid_view = kid_views[j]
                _np.add.at(adjoint, kid_view, columns[j] * a)
                grad_rows.append(
                    tuple((values[kid_view] * a).sum(axis=0).tolist())
                )
            gradients[level] = tuple(grad_rows)
        return values[self.root_slot].tolist(), gradients

    # ------------------------------------------------------------------ #
    # Native (compiled C) kernel
    # ------------------------------------------------------------------ #

    def _evaluate_native(self, columns_by_level, num_models: int) -> List[float]:
        """One compiled forward pass over the fused schedule.

        The C side (:func:`repro.engine.native.forward`) reproduces the
        fused kernel's collapse and accumulation semantics exactly, so the
        floats match ``fused`` bit for bit.
        """
        values, collapsed = _native.forward(self, columns_by_level, num_models)
        self.collapsed_layers += collapsed
        return values[self.root_slot].tolist()

    def _backward_native(self, columns_by_level, num_models: int):
        """Compiled forward plus adjoint sweep (gradients included)."""
        values, gradients, collapsed = _native.backward(
            self, columns_by_level, num_models
        )
        self.collapsed_layers += collapsed
        return values[self.root_slot].tolist(), gradients

    # ------------------------------------------------------------------ #
    # Pickle support: the fused arrays travel as they are
    # ------------------------------------------------------------------ #

    def __getstate__(self):
        schedule = self._fused
        return {
            "root_slot": self.root_slot,
            "num_slots": self.num_slots,
            "fused": (schedule.kids, schedule.seg, schedule.slot_levels, schedule.bounds),
            "fused_passes": self.fused_passes,
            "native_passes": self.native_passes,
            "collapsed_layers": self.collapsed_layers,
            "models_evaluated": self.models_evaluated,
            "gradient_passes": self.gradient_passes,
            "models_differentiated": self.models_differentiated,
        }

    def __setstate__(self, state):
        self._adopt(state["root_slot"], state["num_slots"], FusedSchedule(*state["fused"]))
        self.fused_passes = state["fused_passes"]
        self.native_passes = state["native_passes"]
        self.collapsed_layers = state["collapsed_layers"]
        self.models_evaluated = state["models_evaluated"]
        self.gradient_passes = state["gradient_passes"]
        self.models_differentiated = state["models_differentiated"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "LinearizedDiagram(nodes=%d, levels=%d)" % (
            self.node_count,
            len(self._fused.bounds),
        )


def _linearize_numpy(level, offsets, children, root: int):
    """The numpy linearization: ``(root_slot, num_slots, schedule)``.

    The stack walk is the one Python loop; it visits each node once and
    looks only at non-terminal children that differ from their left
    neighbour.  The layers' child-slot rows are numpy gathers.
    """
    counts = _np.diff(offsets)

    # the walk skips terminal children and a child repeating its left
    # neighbour; any other repeat is caught by the seen check
    keep = children > 1
    keep[1:] &= children[1:] != children[:-1]
    firsts = offsets[:-1][counts > 0]
    keep[firsts] = children[firsts] > 1
    starts = _np.concatenate(([0], _np.cumsum(keep)))[offsets].tolist()
    kept = children[keep].tolist()

    walked = []
    seen = bytearray(len(level))
    seen[root] = 1
    stack = [root]
    while stack:
        node = stack.pop()
        walked.append(node)
        for child in kept[starts[node] : starts[node + 1]]:
            if not seen[child]:
                seen[child] = 1
                stack.append(child)

    # deepest level first; slots 0/1 are the terminals
    walked = _np.array(walked, dtype=_np.int64)
    order = walked[_np.argsort(-level[walked], kind="stable")]
    slot_of = _np.arange(len(level), dtype=_np.int64)  # terminals keep 0/1
    slot_of[order] = _np.arange(2, len(order) + 2)
    order_levels = level[order]
    cuts = _np.flatnonzero(order_levels[1:] != order_levels[:-1]) + 1
    layers = []
    for s0, s1 in zip([0] + cuts.tolist(), cuts.tolist() + [len(order)]):
        nodes = order[s0:s1]
        edges = offsets[nodes, None] + _np.arange(counts[nodes[0]])
        rows = slot_of[children[edges]]
        layers.append((int(order_levels[s0]), range(s0 + 2, s1 + 2), rows))
    return int(slot_of[root]), len(order) + 2, FusedSchedule.from_layers(layers)
