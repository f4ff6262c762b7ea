"""The MSn benchmark: a master/slave bus-based fault-tolerant SoC (Fig. 4).

The system contains one cluster of two "master" IP cores (IPM) and ``n``
clusters of two "slave" IP cores (IPS).  Every IPM and every IPS is attached
to two buses (A and B) through its own communication modules (CM for
masters, CS for slaves); the buses themselves are assumed immune to
manufacturing defects.  The system is operational if some unfailed IPM can
communicate *directly* (one bus, two communication modules) with at least
one unfailed IPS of every cluster.

Component inventory (matches Table 1 of the paper: ``C = 6n + 6``):

========================  =============================
``IPM_j``                 master cores, ``j = 1, 2``
``CM_j_b``                master communication modules, ``b = A, B``
``IPS_i_k``               slave cores, cluster ``i = 1..n``, ``k = 1, 2``
``CS_i_k_b``              slave communication modules
========================  =============================
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Tuple

from ..distributions import (
    ComponentDefectModel,
    DefectCountDistribution,
    NegativeBinomialDefectDistribution,
)
from ..core.problem import YieldProblem
from ..faulttree.builder import FaultTreeBuilder
from ..faulttree.circuit import Circuit

#: Bus labels of the MSn architecture.
BUSES = ("A", "B")

#: Default ratio ``P_IPS / P_IPM`` (the exact value in the paper is unreadable).
DEFAULT_IPS_TO_IPM = 1.0

#: Default ratio ``P_C / P_IPM`` for the communication modules.
DEFAULT_COMM_TO_IPM = 0.1

#: Default per-defect lethality ``P_L = sum_i P_i``.
DEFAULT_LETHALITY = 0.5

#: Default negative-binomial clustering parameter ``alpha``.
DEFAULT_CLUSTERING = 4.0

#: Fault trees, component models and problem templates kept per
#: generator.  All are immutable, so every problem built with the same
#: parameters derives from one template, which was checked once, and the
#: sweep service hashes its structure once.
TEMPLATE_CACHE_SIZE = 32


def ms_component_classes(n: int) -> Dict[str, List[str]]:
    """Return the component names of MSn grouped by class (IPM, CM, IPS, CS)."""
    if n < 1:
        raise ValueError("MSn requires n >= 1 slave clusters, got %d" % n)
    ipm = ["IPM_%d" % j for j in (1, 2)]
    cm = ["CM_%d_%s" % (j, b) for j in (1, 2) for b in BUSES]
    ips = ["IPS_%d_%d" % (i, k) for i in range(1, n + 1) for k in (1, 2)]
    cs = [
        "CS_%d_%d_%s" % (i, k, b)
        for i in range(1, n + 1)
        for k in (1, 2)
        for b in BUSES
    ]
    return {"IPM": ipm, "CM": cm, "IPS": ips, "CS": cs}


def ms_component_names(n: int) -> List[str]:
    """Return all component names of MSn (``6n + 6`` of them)."""
    classes = ms_component_classes(n)
    return classes["IPM"] + classes["CM"] + classes["IPS"] + classes["CS"]


@functools.lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def ms_fault_tree(n: int) -> Circuit:
    """Return the (frozen, shared) gate-level fault tree of MSn.

    The system is functioning when there exists an unfailed master ``IPM_j``
    such that, for every cluster ``i``, there exist a slave ``IPS_i_k`` and a
    bus ``b`` with ``IPS_i_k``, ``CS_i_k_b`` and ``CM_j_b`` all unfailed.
    """
    ft = FaultTreeBuilder("MS%d" % n)
    master_terms = []
    for j in (1, 2):
        cluster_terms = []
        for i in range(1, n + 1):
            slave_paths = []
            for k in (1, 2):
                for b in BUSES:
                    slave_paths.append(
                        ft.and_(
                            ft.working("IPS_%d_%d" % (i, k)),
                            ft.working("CS_%d_%d_%s" % (i, k, b)),
                            ft.working("CM_%d_%s" % (j, b)),
                        )
                    )
            cluster_terms.append(ft.or_(*slave_paths))
        master_terms.append(ft.and_(ft.working("IPM_%d" % j), ft.and_(*cluster_terms)))
    functioning = ft.or_(*master_terms)
    ft.set_top_from_functioning(functioning)
    return ft.build()


@functools.lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def ms_component_model(
    n: int,
    *,
    lethality: float = DEFAULT_LETHALITY,
    ips_to_ipm: float = DEFAULT_IPS_TO_IPM,
    comm_to_ipm: float = DEFAULT_COMM_TO_IPM,
) -> ComponentDefectModel:
    """Return the (shared) ``P_i`` model of MSn from the class ratios of Section 3."""
    classes = ms_component_classes(n)
    weights: Dict[str, float] = {}
    for name in classes["IPM"]:
        weights[name] = 1.0
    for name in classes["IPS"]:
        weights[name] = ips_to_ipm
    for name in classes["CM"] + classes["CS"]:
        weights[name] = comm_to_ipm
    # keep the declared component order (IPM, CM, IPS, CS)
    ordered = {name: weights[name] for name in ms_component_names(n)}
    return ComponentDefectModel.from_relative_weights(ordered, lethality)


@functools.lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def _ms_template(
    n: int, lethality: float, ips_to_ipm: float, comm_to_ipm: float
) -> YieldProblem:
    """The checked MSn problem (default defect model) each point derives from."""
    model = ms_component_model(
        n, lethality=lethality, ips_to_ipm=ips_to_ipm, comm_to_ipm=comm_to_ipm
    )
    defects = NegativeBinomialDefectDistribution(mean=2.0, clustering=DEFAULT_CLUSTERING)
    return YieldProblem(ms_fault_tree(n), model, defects, name="MS%d" % n)


def ms_problem(
    n: int,
    *,
    mean_defects: float = 2.0,
    clustering: float = DEFAULT_CLUSTERING,
    lethality: float = DEFAULT_LETHALITY,
    ips_to_ipm: float = DEFAULT_IPS_TO_IPM,
    comm_to_ipm: float = DEFAULT_COMM_TO_IPM,
    defect_distribution: Optional[DefectCountDistribution] = None,
) -> YieldProblem:
    """Return the full :class:`YieldProblem` for MSn.

    With the defaults (``mean_defects = 2``, ``lethality = 0.5``) the expected
    number of *lethal* defects is 1, the paper's "moderate" operating point;
    ``mean_defects = 4`` gives the "large" point (``lambda' = 2``).  The
    fault tree and component model are shared templates; only the defect
    distribution is built per call, and the problem is the parameter set's
    template with that distribution (:meth:`YieldProblem.with_defects`).
    """
    template = _ms_template(n, lethality, ips_to_ipm, comm_to_ipm)
    if defect_distribution is None:
        defect_distribution = NegativeBinomialDefectDistribution(
            mean=mean_defects, clustering=clustering
        )
    return template.with_defects(defect_distribution)


def ms_architecture_summary(n: int) -> str:
    """Return a short textual description of the MSn architecture (Fig. 4)."""
    classes = ms_component_classes(n)
    lines = [
        "MS%d fault-tolerant SoC" % n,
        "  masters : %s" % ", ".join(classes["IPM"]),
        "  buses   : %s (defect free)" % ", ".join(BUSES),
        "  clusters: %d slave clusters of 2 IPS each" % n,
        "  comm    : every IP core reaches each bus through its own module",
        "  components: %d" % len(ms_component_names(n)),
    ]
    return "\n".join(lines)
