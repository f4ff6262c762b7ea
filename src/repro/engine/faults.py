"""Deterministic fault injection for the structure store.

The paper studies defect tolerance; this module lets the engine study its
own.  A :class:`FaultPlan` names *sites* — well-known places in the
engine's code paths — and, per site, the exact occurrence numbers on
which the fault fires.  Because firing is driven by an occurrence counter
(not by timing or randomness), a plan reproduces the same fault sequence
on every run, which is what lets ``tests/engine/test_faults.py`` assert
that a fault still yields **bit-for-bit identical** sweep results.

Sites
-----

``store.corrupt``
    Fired in :meth:`repro.engine.store.StructureStore.load_digest` before
    an entry is read: the store *truncates one of the entry's array
    files on disk*, so the regular corruption detection (and the
    verify-and-quarantine path) runs against real damage.

Installation
------------

Plans have three scopes, consulted in this order by :func:`active`:

* **thread-scoped** — ``with faults.scoped(plan):`` activates a plan for
  the calling thread only.  This is how ``SweepService(fault_plan=...)``
  isolates its plan: every service wraps its own evaluation paths (and
  its fan-out threads) in a scope, so two services in one process (or
  many server threads sharing one process) never see each other's plans.
* **process-global** — :func:`install` (kept for tests and tools that
  deliberately want process-wide injection).
* **environment** — the ``REPRO_FAULT_PLAN`` variable (a JSON spec,
  read lazily on first use — this is how the CI chaos job gets its
  plan into the process).
"""

from __future__ import annotations

import json
import logging
import os
import threading
from contextlib import contextmanager
from typing import Dict, Optional

__all__ = [
    "FaultPlan",
    "active",
    "clear",
    "fire",
    "install",
    "note_suppressed",
    "scoped",
]

#: Environment variable holding a JSON plan spec (see :meth:`FaultPlan.from_spec`).
PLAN_ENV = "REPRO_FAULT_PLAN"

#: The sites :func:`fire` accepts; unknown sites raise at plan build time
#: so a typo in a test or chaos job cannot silently inject nothing.
SITES = ("store.corrupt",)

_log = logging.getLogger("repro.engine.faults")


class _Rule:
    """When one site fires: explicit occurrence numbers and/or a period."""

    __slots__ = ("at", "every")

    def __init__(self, at=(), every=0):
        self.at = frozenset(int(n) for n in at)
        self.every = int(every)

    def fires(self, occurrence: int) -> bool:
        if occurrence in self.at:
            return True
        return self.every > 0 and occurrence % self.every == 0

    def as_spec(self):
        spec = {}
        if self.at:
            spec["at"] = sorted(self.at)
        if self.every:
            spec["every"] = self.every
        return spec


class FaultPlan:
    """A deterministic schedule of injected faults, keyed by site.

    Build one from a spec mapping each site to either a single occurrence
    number, a list of occurrence numbers, or a dict with ``at`` (list of
    1-based occurrence numbers) and/or ``every`` (fire on every N-th
    occurrence)::

        FaultPlan.from_spec({"store.corrupt": {"at": [2]}})  # second store read

    Occurrence counters are per plan and per site, starting at 1.
    """

    def __init__(self, rules: Dict[str, _Rule]):
        for site in rules:
            if site not in SITES:
                raise ValueError(
                    "unknown fault site %r (known: %s)" % (site, ", ".join(SITES))
                )
        self._rules = dict(rules)
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: Dict) -> "FaultPlan":
        rules = {}
        for site, value in spec.items():
            if isinstance(value, dict):
                rules[site] = _Rule(at=value.get("at", ()), every=value.get("every", 0))
            elif isinstance(value, (list, tuple)):
                rules[site] = _Rule(at=value)
            else:
                rules[site] = _Rule(at=(int(value),))
        return cls(rules)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_spec(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(
            {site: rule.as_spec() for site, rule in self._rules.items()},
            sort_keys=True,
        )

    # -- evaluation --------------------------------------------------------

    def check(self, site: str):
        """Count one occurrence of ``site``; return the rule if it fires."""
        rule = self._rules.get(site)
        if rule is None:
            return None
        with self._lock:
            occurrence = self._counts.get(site, 0) + 1
            self._counts[site] = occurrence
        return rule if rule.fires(occurrence) else None

    def occurrences(self, site: str) -> int:
        with self._lock:
            return self._counts.get(site, 0)

    def reset(self) -> None:
        """Reset the occurrence counters (the rules stay)."""
        with self._lock:
            self._counts.clear()


#: The installed plan.  ``False`` means "not resolved yet" (the env var is
#: consulted on first use); ``None`` means "resolved: no plan".
_ACTIVE = False

#: Thread-scoped plan stacks (see :func:`scoped`); consulted before the
#: process-global plan so concurrently-open services stay isolated.
_SCOPE = threading.local()


def install(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` process-globally (``None`` disables injection)."""
    global _ACTIVE
    _ACTIVE = plan


def clear() -> None:
    """Remove any installed plan and forget the env-var resolution."""
    global _ACTIVE
    _ACTIVE = False


@contextmanager
def scoped(plan: Optional[FaultPlan]):
    """Activate ``plan`` for the calling thread for the ``with`` body.

    Scopes nest (the innermost wins) and shadow the process-global and
    environment plans.  ``None`` is a no-op scope: the thread keeps
    whatever plan it would otherwise resolve — a service without a
    ``fault_plan`` must not mask a deliberate process-wide installation.
    """
    if plan is None:
        yield None
        return
    stack = getattr(_SCOPE, "stack", None)
    if stack is None:
        stack = _SCOPE.stack = []
    stack.append(plan)
    try:
        yield plan
    finally:
        stack.pop()


def active() -> Optional[FaultPlan]:
    """The effective plan: thread scope, then process, then the env var."""
    global _ACTIVE
    stack = getattr(_SCOPE, "stack", None)
    if stack:
        return stack[-1]
    if _ACTIVE is False:
        text = os.environ.get(PLAN_ENV)
        try:
            _ACTIVE = FaultPlan.from_json(text) if text else None
        except (ValueError, TypeError):
            _log.warning("ignoring malformed %s=%r", PLAN_ENV, text)
            _ACTIVE = None
    return _ACTIVE


def fire(site: str, registry=None) -> bool:
    """Count one occurrence of ``site``; return ``True`` when its fault is due.

    The caller injects the fault itself (``store.corrupt``: the store
    damages its own entry).  A firing site counts ``fault.injected`` and
    ``fault.injected.<site>`` in ``registry``.  When no plan is installed
    the cost is one module read and one ``None`` check.
    """
    plan = active()
    if plan is None:
        return False
    rule = plan.check(site)
    if rule is None:
        return False
    if registry is not None:
        registry.inc("fault.injected")
        registry.inc("fault.injected.%s" % site)
    _log.debug("fault injection: %s fires (occurrence %d)", site, plan.occurrences(site))
    return True


def note_suppressed(registry, where: str, exc: BaseException) -> None:
    """Record a swallowed failure instead of silently passing.

    Best-effort paths (saving a structure to the store) must never fail
    the sweep, but they also must not be invisible: every suppressed
    exception becomes one ``fault.suppressed`` count (plus a per-site
    ``fault.suppressed.<where>``) and a debug-level breadcrumb.
    ``registry`` may be ``None``.
    """
    if registry is not None:
        registry.inc("fault.suppressed")
        registry.inc("fault.suppressed.%s" % where)
    _log.debug("suppressed %s failure: %r", where, exc)
