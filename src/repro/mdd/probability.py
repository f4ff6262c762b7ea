"""Probability evaluation on ROMDDs.

This is the last step of the paper's method (Section 2): given the ROMDD of
``G(w, v_1 .. v_M)`` and the probability distribution of every (independent)
multiple-valued variable, compute ``P(G = 1)`` by a depth-first, left-most
traversal that assigns

* value 1 to the terminal labeled "1", value 0 to the terminal labeled "0";
* to every non-terminal node labeled with variable ``x`` the sum over its
  outgoing edges of ``P(x in edge values) * value(child)``.

The independence of ``W, V_1, ..., V_M`` plus the fact that a node's function
only depends on the variables below it make this single pass exact.  Skipped
variables contribute a factor of 1 because their value probabilities sum to
one, so no correction is needed for edges that jump levels.

Since the batched engine landed, the pass is executed by
:mod:`repro.engine.batch`: the diagram is linearized once into flat arrays
and :func:`probability_of_many` evaluates any number of defect models in a
single vectorized bottom-up sweep (no recursion, no memo dicts).
:func:`probability_of_one` is the single-model wrapper; the original
recursive traversal survives as :func:`probability_of_one_reference`
because the equivalence tests pin the batched kernels to it bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as _np

from ..engine.batch import LinearizedDiagram
from .manager import FALSE, TRUE, MDDError, MDDManager


class VariableDistributions:
    """Per-variable value probabilities for the ROMDD traversal.

    Parameters
    ----------
    manager:
        The ROMDD manager (provides the variables and their domains).
    distributions:
        Mapping from variable name to ``{value: probability}``.  Every domain
        value must be present; probabilities must be non-negative and sum to
        1 within a small tolerance.
    """

    def __init__(
        self, manager: MDDManager, distributions: Mapping[str, Mapping[int, float]]
    ) -> None:
        self._by_level: Dict[int, tuple] = {}
        for variable in manager.variables:
            if variable.name not in distributions:
                raise MDDError("missing distribution for variable %r" % (variable.name,))
            dist = distributions[variable.name]
            probs = []
            for value in variable.values:
                if value not in dist:
                    raise MDDError(
                        "distribution of %r missing value %r" % (variable.name, value)
                    )
                p = float(dist[value])
                if p < 0.0:
                    raise MDDError(
                        "negative probability %r for %r=%r" % (p, variable.name, value)
                    )
                probs.append(p)
            total = sum(probs)
            if abs(total - 1.0) > 1e-6:
                raise MDDError(
                    "distribution of %r sums to %g, expected 1" % (variable.name, total)
                )
            self._by_level[manager.level_of(variable.name)] = tuple(probs)

    def probabilities_at_level(self, level: int) -> tuple:
        """Return the value-probability vector of the variable at ``level``."""
        return self._by_level[level]


def level_columns_for(
    linearized: LinearizedDiagram,
    distributions: Sequence[VariableDistributions],
) -> Dict[int, tuple]:
    """Transpose per-model distributions into the batch kernel's layout.

    For every level present in ``linearized``, returns one probability
    vector per variable value, each of length ``len(distributions)``.
    """
    columns: Dict[int, tuple] = {}
    for level in linearized.levels:
        vectors = [dist.probabilities_at_level(level) for dist in distributions]
        cardinality = len(vectors[0])
        columns[level] = tuple(
            tuple(vector[value] for vector in vectors) for value in range(cardinality)
        )
    return columns


class LevelProfile:
    """The variable layout of a ROMDD, detached from its node tables.

    One entry per manager level: ``(level, variable name, cardinality,
    is_count)``.  Together with the linearized arrays this is everything the
    probability traversal and the reverse-mode gradient pass need to know
    about the diagram's variables — so a structure restored from the
    persistent store (:mod:`repro.engine.store`) can evaluate and
    differentiate without rebuilding the MDD manager.

    The profile assumes the yield method's variable shapes: the count
    variable ``w`` takes the contiguous values ``0 .. M+1`` and every
    location variable takes ``1 .. C`` — row ``j`` of a level's probability
    matrix is the ``j``-th domain value.  That invariant is established by
    :class:`repro.core.gfunction.GeneralizedFaultTree` and checked here.
    """

    __slots__ = ("entries", "_level_of")

    def __init__(self, entries: Sequence[Tuple[int, str, int, bool]]) -> None:
        self.entries: Tuple[Tuple[int, str, int, bool], ...] = tuple(
            (int(level), str(name), int(cardinality), bool(is_count))
            for level, name, cardinality, is_count in entries
        )
        self._level_of = {name: level for level, name, _, _ in self.entries}

    @classmethod
    def from_manager(cls, manager: MDDManager, count_variable: str) -> "LevelProfile":
        """Capture the level layout of ``manager`` (count variable named)."""
        entries = []
        for level, variable in enumerate(manager.variables):
            is_count = variable.name == count_variable
            expected_first = 0 if is_count else 1
            if variable.values != tuple(
                range(expected_first, expected_first + variable.cardinality)
            ):
                raise MDDError(
                    "variable %r has non-contiguous domain %r"
                    % (variable.name, variable.values)
                )
            entries.append((level, variable.name, variable.cardinality, is_count))
        return cls(entries)

    def level_of(self, name: str) -> Optional[int]:
        """Return the level of the named variable (``None`` when absent)."""
        return self._level_of.get(name)

    def as_json(self) -> List[List[object]]:
        """Return a JSON-serializable form (see :meth:`from_json`)."""
        return [list(entry) for entry in self.entries]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[object]]) -> "LevelProfile":
        return cls([tuple(entry) for entry in data])  # type: ignore[arg-type]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LevelProfile) and self.entries == other.entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "LevelProfile(%d levels)" % len(self.entries)


def model_matrices_from_columns(
    count_columns: Sequence[Sequence[float]],
    location_columns: Sequence[Sequence[float]],
    location_slots: Sequence[int],
):
    """Lay per-model columns out as the two shared float64 matrices.

    Returns ``(count_matrix, location_matrix)`` of shapes ``(M + 2) x K``
    and ``C x K``.  Column ``k`` of the count matrix is
    ``count_columns[k]``; column ``k`` of the location matrix is
    ``location_columns[location_slots[k]]``, so models that share one
    component model share one ``P'`` column, tiled here.
    """
    distinct = _np.asarray(location_columns, dtype=_np.float64).T
    slots = _np.asarray(location_slots, dtype=_np.intp)
    # ascontiguousarray keeps row indexing (columns[j]) cache-friendly
    return (
        _np.ascontiguousarray(_np.asarray(count_columns, dtype=_np.float64).T),
        _np.ascontiguousarray(distinct[:, slots]),
    )


def columns_from_matrices(
    linearized: LinearizedDiagram,
    profile: LevelProfile,
    count_matrix,
    location_matrix,
) -> Dict[int, object]:
    """Map the two shared model matrices onto the diagram's levels.

    No copies: every count level points at ``count_matrix`` and every
    location level at ``location_matrix`` (the matrices may be slices of a
    shared-memory block or any other float64 view).  Cardinalities are
    checked against the level profile.
    """
    need = set(linearized.levels)
    columns: Dict[int, object] = {}
    for level, name, cardinality, is_count in profile.entries:
        if level not in need:
            continue
        matrix = count_matrix if is_count else location_matrix
        if len(matrix) != cardinality:
            raise MDDError(
                "variable %r at level %d expects %d value rows, got %d"
                % (name, level, cardinality, len(matrix))
            )
        columns[level] = matrix
    return columns


def validate_model_columns(
    columns: Sequence[Sequence[float]], *, what: str
) -> None:
    """Check per-model probability columns (non-negative, sum to 1).

    Mirrors the per-variable checks of :class:`VariableDistributions` (same
    1e-6 tolerance, plain float sum) for the vectorized assembly route,
    which never materializes per-variable dicts to validate.
    """
    for index, column in enumerate(columns):
        total = 0.0
        for p in column:
            if p < 0.0:
                raise MDDError(
                    "negative probability %r in the %s distribution of model %d"
                    % (p, what, index)
                )
            total += p
        if abs(total - 1.0) > 1e-6:
            raise MDDError(
                "%s distribution of model %d sums to %g, expected 1"
                % (what, index, total)
            )


def probability_of_many(
    manager: MDDManager,
    root: int,
    distributions: Sequence[Mapping[str, Mapping[int, float]]],
    *,
    linearized: Optional[LinearizedDiagram] = None,
) -> List[float]:
    """Return ``P(function == 1)`` under every defect model, in one pass.

    ``distributions`` is a sequence of per-model mappings (variable name to
    ``{value: probability}``).  Pass a pre-built ``linearized`` diagram to
    amortize the linearization across calls (compiled structures do).
    """
    if not distributions:
        return []
    validated = [VariableDistributions(manager, d) for d in distributions]
    if linearized is None:
        linearized = LinearizedDiagram.from_mdd(manager, root)
    columns = level_columns_for(linearized, validated)
    return linearized.evaluate(columns, len(validated))


def gradient_of_many(
    manager: MDDManager,
    root: int,
    distributions: Sequence[Mapping[str, Mapping[int, float]]],
    *,
    linearized: Optional[LinearizedDiagram] = None,
):
    """Probabilities *and* exact per-entry gradients for every defect model.

    Runs the linearized forward pass plus one reverse (adjoint) pass — see
    :meth:`repro.engine.batch.LinearizedDiagram.backward` — and maps the
    per-level gradient rows back to variable names.

    Returns
    -------
    (probabilities, gradients)
        ``probabilities[k]`` is ``P(function == 1)`` under model ``k``;
        ``gradients[k]`` maps every variable name to ``{value: derivative}``
        where the derivative is the exact partial of model ``k``'s
        probability with respect to ``P(variable = value)``, all other
        entries held fixed.  Variables the diagram does not depend on get
        all-zero derivatives (the traversal never reads their entries).
    """
    if not distributions:
        return [], []
    validated = [VariableDistributions(manager, d) for d in distributions]
    if linearized is None:
        linearized = LinearizedDiagram.from_mdd(manager, root)
    columns = level_columns_for(linearized, validated)
    probabilities, level_gradients = linearized.backward(columns, len(validated))
    gradients = []
    for k in range(len(validated)):
        per_variable: Dict[str, Dict[int, float]] = {}
        for variable in manager.variables:
            rows = level_gradients.get(manager.level_of(variable.name))
            if rows is None:
                per_variable[variable.name] = {value: 0.0 for value in variable.values}
            else:
                per_variable[variable.name] = {
                    value: rows[j][k] for j, value in enumerate(variable.values)
                }
        gradients.append(per_variable)
    return probabilities, gradients


def probability_of_one(
    manager: MDDManager,
    root: int,
    distributions: Mapping[str, Mapping[int, float]],
) -> float:
    """Return ``P(function rooted at root == 1)`` for independent variables.

    ``distributions`` maps every variable name to ``{value: probability}``.
    Evaluation is iterative (a single-model batched pass), so deep diagrams
    cannot hit the interpreter recursion limit.
    """
    return probability_of_many(manager, root, [distributions])[0]


def probability_of_one_reference(
    manager: MDDManager,
    root: int,
    distributions: Mapping[str, Mapping[int, float]],
) -> float:
    """The original recursive traversal, kept as the equivalence oracle.

    The batched kernel must match this function bit for bit (asserted by
    the property suite); production code should call
    :func:`probability_of_one` / :func:`probability_of_many` instead.
    """
    dist = VariableDistributions(manager, distributions)
    cache: Dict[int, float] = {FALSE: 0.0, TRUE: 1.0}

    def visit(node: int) -> float:
        if node in cache:
            return cache[node]
        level = manager.level(node)
        probs = dist.probabilities_at_level(level)
        total = 0.0
        for p, child in zip(probs, manager.children(node)):
            if p != 0.0:
                total += p * visit(child)
        cache[node] = total
        return total

    return visit(root)
