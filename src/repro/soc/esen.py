"""The ESEN n x m benchmark: IP cores behind an extra-stage shuffle-exchange
network (Fig. 5).

Component inventory
-------------------

The paper's description of this benchmark lost its numeric parameters to the
scanning process; the reconstruction below reproduces the component counts of
Table 1 exactly (14 / 26 / 34 / 32 / 56 / 72 for ESEN4x1 .. ESEN8x4):

* an extra-stage shuffle-exchange network (SEN+) with ``n`` inputs, i.e.
  ``log2(n) + 1`` stages of ``n / 2`` 2x2 switching elements (SE), in which
  every SE of the first and of the last stage has a redundant spare;
* ``n * m / 2`` IPA cores on the input side and ``n * m / 2`` IPB cores on
  the output side;
* for ``m >= 2``, two redundant concentrators per network input (``2 n``
  concentrators); for ``m = 1`` the IPAs drive their input ports directly.

With ``m = 1`` only the first ``n / 2`` input and output ports carry cores;
with ``m >= 2`` every port carries ``m / 2`` cores.

Operational condition (interpretation, see DESIGN.md)
------------------------------------------------------

The sentence of the paper that fixes how many IPAs/IPBs must survive is
unreadable, so the generator exposes the thresholds:

* every *used* input port must be *served*: for ``m >= 2`` at least one of
  its two concentrators is unfailed (for ``m = 1`` ports are always served);
* the network must provide full access between used input and output ports:
  for every such pair at least one of the two SEN+ paths is made of unfailed
  switch positions (a first/last-stage position is unfailed when the primary
  or its spare is unfailed);
* at least ``required_ipa`` IPA cores must be unfailed and sit on a served
  port, and at least ``required_ipb`` IPB cores must be unfailed.  The
  defaults tolerate the loss of one core on each side
  (``n*m/2 - 1``).
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Tuple

from ..distributions import (
    ComponentDefectModel,
    DefectCountDistribution,
    NegativeBinomialDefectDistribution,
)
from ..core.problem import YieldProblem
from ..faulttree.builder import Expr, FaultTreeBuilder
from ..faulttree.circuit import Circuit

#: Default ratio ``P_IPB / P_IPA``.
DEFAULT_IPB_TO_IPA = 1.0

#: Default ratio ``P_SE / P_IPA``.
DEFAULT_SE_TO_IPA = 0.2

#: Default ratio ``P_C / P_IPA`` (concentrators).
DEFAULT_CONC_TO_IPA = 0.1

#: Default per-defect lethality ``P_L``.
DEFAULT_LETHALITY = 0.5

#: Default negative-binomial clustering parameter ``alpha``.
DEFAULT_CLUSTERING = 4.0

#: Fault trees and component models kept per generator.  Both are
#: immutable, so every problem built with the same parameters shares one
#: template and the sweep service hashes its structure once.
TEMPLATE_CACHE_SIZE = 32


# --------------------------------------------------------------------------- #
# Network topology
# --------------------------------------------------------------------------- #


def _log2(n: int) -> int:
    if n < 2 or n & (n - 1):
        raise ValueError("ESEN requires a power-of-two number of inputs >= 2, got %d" % n)
    return n.bit_length() - 1


def perfect_shuffle(position: int, n: int) -> int:
    """Return the perfect-shuffle image of a line position (left bit rotation)."""
    bits = _log2(n)
    return ((position << 1) | (position >> (bits - 1))) & (n - 1)


def num_stages(n: int) -> int:
    """Number of switching stages of the SEN+ network (``log2(n) + 1``)."""
    return _log2(n) + 1


def enumerate_paths(n: int, source: int, destination: int) -> List[Tuple[Tuple[int, int], ...]]:
    """Enumerate the SE positions of every path from input ``source`` to output ``destination``.

    Every path is returned as a tuple of ``(stage, switch_index)`` pairs, one
    per stage.  A SEN+ network offers exactly two paths between any
    input/output pair.
    """
    stages = num_stages(n)
    paths: List[Tuple[Tuple[int, int], ...]] = []

    def explore(stage: int, line: int, visited: Tuple[Tuple[int, int], ...]) -> None:
        position = perfect_shuffle(line, n)
        switch = position // 2
        taken = visited + ((stage, switch),)
        for out_line in (2 * switch, 2 * switch + 1):
            if stage == stages - 1:
                if out_line == destination:
                    paths.append(taken)
            else:
                explore(stage + 1, out_line, taken)

    explore(0, source, ())
    return paths


# --------------------------------------------------------------------------- #
# Component naming
# --------------------------------------------------------------------------- #


def esen_component_classes(n: int, m: int) -> Dict[str, List[str]]:
    """Return the component names of ESEN n x m grouped by class."""
    stages = num_stages(n)
    if m < 1:
        raise ValueError("m must be >= 1, got %d" % m)
    if m > 1 and m % 2:
        raise ValueError("m must be 1 or an even number, got %d" % m)
    _log2(n)

    cores_per_side = n * m // 2
    ipa = ["IPA_%d" % g for g in range(cores_per_side)]
    ipb = ["IPB_%d" % g for g in range(cores_per_side)]

    se = [
        "SE_%d_%d" % (stage, switch)
        for stage in range(stages)
        for switch in range(n // 2)
    ]
    spares = [
        "SE_%d_%d_R" % (stage, switch)
        for stage in (0, stages - 1)
        for switch in range(n // 2)
    ]
    concentrators = (
        ["C_%d_%s" % (port, side) for port in range(n) for side in ("A", "B")]
        if m >= 2
        else []
    )
    return {"IPA": ipa, "IPB": ipb, "SE": se, "SE_SPARE": spares, "C": concentrators}


def esen_component_names(n: int, m: int) -> List[str]:
    """Return all component names of ESEN n x m (order: IPA, IPB, C, SE, spares)."""
    classes = esen_component_classes(n, m)
    return (
        classes["IPA"]
        + classes["IPB"]
        + classes["C"]
        + classes["SE"]
        + classes["SE_SPARE"]
    )


def used_ports(n: int, m: int) -> List[int]:
    """Return the network ports that carry IP cores (all for ``m >= 2``)."""
    if m == 1:
        return list(range(n // 2))
    return list(range(n))


def ipa_port(core_index: int, n: int, m: int) -> int:
    """Return the input port the given IPA core is attached to."""
    ports = used_ports(n, m)
    return ports[core_index % len(ports)]


def ipb_port(core_index: int, n: int, m: int) -> int:
    """Return the output port the given IPB core is attached to."""
    ports = used_ports(n, m)
    return ports[core_index % len(ports)]


# --------------------------------------------------------------------------- #
# Fault tree
# --------------------------------------------------------------------------- #


@functools.lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def esen_fault_tree(
    n: int,
    m: int,
    *,
    required_ipa: Optional[int] = None,
    required_ipb: Optional[int] = None,
) -> Circuit:
    """Return the (frozen, shared) gate-level fault tree of ESEN n x m.

    ``required_ipa`` / ``required_ipb`` default to ``n*m/2 - 1`` (tolerate the
    loss of one core on each side).
    """
    classes = esen_component_classes(n, m)
    cores_per_side = len(classes["IPA"])
    stages = num_stages(n)
    if required_ipa is None:
        required_ipa = max(1, cores_per_side - 1)
    if required_ipb is None:
        required_ipb = max(1, cores_per_side - 1)
    if not 1 <= required_ipa <= cores_per_side:
        raise ValueError("required_ipa must be in [1, %d]" % cores_per_side)
    if not 1 <= required_ipb <= cores_per_side:
        raise ValueError("required_ipb must be in [1, %d]" % cores_per_side)

    ft = FaultTreeBuilder("ESEN%dx%d" % (n, m))

    # switch position OK: first/last stage positions have a redundant spare
    def switch_ok(stage: int, switch: int) -> Expr:
        primary = ft.working("SE_%d_%d" % (stage, switch))
        if stage in (0, stages - 1):
            spare = ft.working("SE_%d_%d_R" % (stage, switch))
            return ft.or_(primary, spare)
        return primary

    switch_ok_cache: Dict[Tuple[int, int], Expr] = {}
    for stage in range(stages):
        for switch in range(n // 2):
            switch_ok_cache[(stage, switch)] = switch_ok(stage, switch)

    # input port served through its redundant concentrator pair
    def port_served(port: int) -> Expr:
        if m == 1:
            return ft.const(True)
        return ft.or_(ft.working("C_%d_A" % port), ft.working("C_%d_B" % port))

    served: Dict[int, Expr] = {port: port_served(port) for port in used_ports(n, m)}

    # full access between every used input port and every used output port
    access_terms: List[Expr] = []
    for source in used_ports(n, m):
        for destination in used_ports(n, m):
            path_terms = []
            for path in enumerate_paths(n, source, destination):
                path_terms.append(
                    ft.and_(*[switch_ok_cache[position] for position in path])
                )
            access_terms.append(ft.or_(*path_terms))
    full_access = ft.and_(*access_terms)

    # core liveness and quorum requirements
    ipa_live = [
        ft.and_(ft.working(name), served[ipa_port(index, n, m)])
        for index, name in enumerate(classes["IPA"])
    ]
    ipb_live = [ft.working(name) for name in classes["IPB"]]

    functioning = ft.and_(
        ft.at_least(required_ipa, ipa_live),
        ft.at_least(required_ipb, ipb_live),
        full_access,
    )
    ft.set_top_from_functioning(functioning)
    return ft.build()


# --------------------------------------------------------------------------- #
# Defect model and problem assembly
# --------------------------------------------------------------------------- #


@functools.lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def esen_component_model(
    n: int,
    m: int,
    *,
    lethality: float = DEFAULT_LETHALITY,
    ipb_to_ipa: float = DEFAULT_IPB_TO_IPA,
    se_to_ipa: float = DEFAULT_SE_TO_IPA,
    conc_to_ipa: float = DEFAULT_CONC_TO_IPA,
) -> ComponentDefectModel:
    """Return the (shared) ``P_i`` model of ESEN n x m from the class ratios of Section 3."""
    classes = esen_component_classes(n, m)
    weights: Dict[str, float] = {}
    for name in classes["IPA"]:
        weights[name] = 1.0
    for name in classes["IPB"]:
        weights[name] = ipb_to_ipa
    for name in classes["SE"] + classes["SE_SPARE"]:
        weights[name] = se_to_ipa
    for name in classes["C"]:
        weights[name] = conc_to_ipa
    ordered = {name: weights[name] for name in esen_component_names(n, m)}
    return ComponentDefectModel.from_relative_weights(ordered, lethality)


def esen_problem(
    n: int,
    m: int,
    *,
    mean_defects: float = 2.0,
    clustering: float = DEFAULT_CLUSTERING,
    lethality: float = DEFAULT_LETHALITY,
    ipb_to_ipa: float = DEFAULT_IPB_TO_IPA,
    se_to_ipa: float = DEFAULT_SE_TO_IPA,
    conc_to_ipa: float = DEFAULT_CONC_TO_IPA,
    required_ipa: Optional[int] = None,
    required_ipb: Optional[int] = None,
    defect_distribution: Optional[DefectCountDistribution] = None,
) -> YieldProblem:
    """Return the full :class:`YieldProblem` for ESEN n x m.

    The fault tree and component model are shared templates; only the
    defect distribution is built per call.
    """
    circuit = esen_fault_tree(n, m, required_ipa=required_ipa, required_ipb=required_ipb)
    model = esen_component_model(
        n,
        m,
        lethality=lethality,
        ipb_to_ipa=ipb_to_ipa,
        se_to_ipa=se_to_ipa,
        conc_to_ipa=conc_to_ipa,
    )
    if defect_distribution is None:
        defect_distribution = NegativeBinomialDefectDistribution(
            mean=mean_defects, clustering=clustering
        )
    return YieldProblem(circuit, model, defect_distribution, name="ESEN%dx%d" % (n, m))


def esen_architecture_summary(n: int, m: int) -> str:
    """Return a short textual description of the ESEN n x m architecture (Fig. 5)."""
    classes = esen_component_classes(n, m)
    return "\n".join(
        [
            "ESEN%dx%d fault-tolerant SoC" % (n, m),
            "  network : SEN+ with %d inputs, %d stages of %d switches"
            % (n, num_stages(n), n // 2),
            "  spares  : first/last stage switches duplicated (%d spares)"
            % len(classes["SE_SPARE"]),
            "  cores   : %d IPA + %d IPB" % (len(classes["IPA"]), len(classes["IPB"])),
            "  concentrators: %d" % len(classes["C"]),
            "  components: %d" % len(esen_component_names(n, m)),
        ]
    )
