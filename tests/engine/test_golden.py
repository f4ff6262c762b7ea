"""Golden record of the fast paper-table cases, through the sweep service.

MS2 and ESEN4x1 at ``M = 6`` with the paper's best ordering pair
``("w", "ml")``: the coded-ROBDD / ROMDD sizes, the fault tree's circuit
digest, the structure-store digest and exact yields.  Every value is read
from one :class:`SweepService` twice: fresh (the sweep builds the
structure and saves it to the store) and warm (the same sweep again, served
from the caches).  The store digests pin the structure keys, so stores
written by earlier versions keep hitting.
"""

import pytest

from repro.engine.service import SweepService, structure_key
from repro.engine.store import StructureStore, digest_of
from repro.soc import benchmark_problem

TRUNCATION = 6
DENSITIES = (1.0, 2.0)

GOLDEN = {
    "MS2": {
        "sizes": (24101, 2034),
        "circuit": "480bf43963a720869f21a44800ce160ee535732d3a53535e6034ed267f58a664",
        "store": "8c63c25cc60c02347a74528614f3cd6edc61163d7d031e1edb21a7bae1d3489b",
        "yields": (0.9838061311242933, 0.9425800885597787),
    },
    "ESEN4x1": {
        "sizes": (10279, 1460),
        "circuit": "7cc7b036e722d07d4616c1aee74b2cbf1285e42f71125ecb9dc566e1065722fd",
        "store": "7c13d053143590a3994f7bd8f96e32a4dea8dd38f76f5de4f08ad31e11688bb6",
        "yields": (0.9834367262223577, 0.9418469867461742),
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_record_fresh_then_warm(name, tmp_path):
    golden = GOLDEN[name]
    store_dir = str(tmp_path / "store")
    service = SweepService(store_dir=store_dir)

    def factory(mean):
        return benchmark_problem(name, mean_defects=mean)

    for state in ("fresh", "warm"):
        rows = service.density_sweep(factory, DENSITIES, max_defects=TRUNCATION)
        assert rows == [
            (mean, value, TRUNCATION) for mean, value in zip(DENSITIES, golden["yields"])
        ], state
        result = service.evaluate(factory(DENSITIES[0]), max_defects=TRUNCATION)
        assert (result.coded_robdd_size, result.romdd_size) == golden["sizes"], state

        problem = factory(DENSITIES[0])
        assert problem.fault_tree.digest() == golden["circuit"], state
        skey = structure_key(problem, TRUNCATION, service.ordering)
        assert skey[0] == golden["circuit"], state
        assert digest_of(skey) == golden["store"], state

        store = StructureStore(store_dir)
        assert [entry.digest for entry in store.entries()] == [golden["store"]], state
        diagnostics = store.meta_of(golden["store"])["diagnostics"]
        sizes = (diagnostics["coded_robdd_size"], diagnostics["romdd_size"])
        assert sizes == golden["sizes"], state

    # the warm pass was served from the caches: one build in total
    assert service.stats.structures_built == 1
    assert service.stats.points_evaluated == len(DENSITIES)
