"""Every callable the traced repository benchmark wraps still resolves.

In a traced run (``perfbench/run.py --trace 1``) ``Tracer.install`` in
``perfbench/layers.py`` replaces each callable its ``WRAPPED`` table names
with a timing wrapper, so a renamed or deleted target fails every traced
run.  These tests load that table without changing it and resolve each
target the way ``Tracer.install`` does: import the module, ``getattr``
down the parents, then read ``owner.__dict__[attr]``.
"""

import importlib
import importlib.util
import os

LAYERS = os.path.join(os.path.dirname(__file__), "..", "..", "perfbench", "layers.py")


def wrapped_targets():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def unresolved(wrapped):
    """``"layer: module.path"`` of every target ``Tracer.install`` would miss."""
    missing = []
    for layer, targets in wrapped.items():
        for module_name, path in targets:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                missing.append("%s: %s.%s" % (layer, module_name, path))
    return missing


def test_every_wrapped_target_resolves():
    wrapped = wrapped_targets()
    assert wrapped
    assert unresolved(wrapped) == []


def test_a_missing_target_is_named():
    wrapped = {
        "service.key": [
            ("repro.engine.service", "structure_key"),
            ("repro.engine.service", "no_such_key"),
        ],
        "method.columns": [("repro.core.method", "CompiledYield.no_such_method")],
        "nowhere": [("repro.no_such_module", "anything")],
    }
    assert unresolved(wrapped) == [
        "service.key: repro.engine.service.no_such_key",
        "method.columns: repro.core.method.CompiledYield.no_such_method",
        "nowhere: repro.no_such_module.anything",
    ]
