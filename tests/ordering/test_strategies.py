"""Unit tests for the paper's ordering strategy matrix (mv x bit orders)."""

import pytest

from repro.core.gfunction import GeneralizedFaultTree
from repro.faulttree import FaultTreeBuilder
from repro.ordering import (
    BIT_ORDERINGS,
    MV_ORDERINGS,
    OrderingError,
    OrderingSpec,
    compute_grouped_order,
)


def make_gfunction(num_components=5, max_defects=3):
    ft = FaultTreeBuilder("strategies")
    names = ["K%d" % i for i in range(num_components)]
    ft.set_top(ft.k_out_of_n_failed(2, names))
    return GeneralizedFaultTree(ft.build(), names, max_defects)


class TestOrderingSpec:
    def test_defaults(self):
        spec = OrderingSpec()
        assert spec.mv == "w" and spec.bits == "ml"

    def test_unknown_names_rejected(self):
        with pytest.raises(OrderingError):
            OrderingSpec("zz", "ml")
        with pytest.raises(OrderingError):
            OrderingSpec("wv", "zz")

    def test_paper_combination_rule(self):
        # heuristic bit orders only with the matching heuristic mv order
        with pytest.raises(OrderingError):
            OrderingSpec("wv", "t")
        with pytest.raises(OrderingError):
            OrderingSpec("t", "w")
        OrderingSpec("t", "t")
        OrderingSpec("w", "w")
        OrderingSpec("h", "h")
        OrderingSpec("wv", "t", strict=False)  # allowed when not strict

    def test_needs_circuit(self):
        assert not OrderingSpec("wv", "ml").needs_circuit()
        assert OrderingSpec("w", "ml").needs_circuit()
        assert OrderingSpec("w", "w").needs_circuit()

    def test_key_round_trips_with_a_constant_third_element(self):
        assert OrderingSpec("w", "ml").key() == ("w", "ml", False)
        assert OrderingSpec.from_key(("w", "ml", False)).key() == ("w", "ml", False)

    @pytest.mark.parametrize("option", ["sift", "sift_converge"])
    def test_removed_reordering_options_raise(self, option):
        with pytest.raises(TypeError):
            OrderingSpec("w", "ml", **{option: True})

    @pytest.mark.parametrize("mode", [True, "converge"])
    def test_keys_of_removed_reordering_modes_raise(self, mode):
        with pytest.raises(OrderingError):
            OrderingSpec.from_key(("w", "ml", mode))


class TestStaticOrders:
    def test_wv_and_wvr(self):
        g = make_gfunction()
        order = compute_grouped_order(
            g.count_variable, g.location_variables, OrderingSpec("wv", "ml")
        )
        assert order.variable_names == ("w", "v1", "v2", "v3")
        order = compute_grouped_order(
            g.count_variable, g.location_variables, OrderingSpec("wvr", "ml")
        )
        assert order.variable_names == ("w", "v3", "v2", "v1")

    def test_vw_and_vrw(self):
        g = make_gfunction()
        order = compute_grouped_order(
            g.count_variable, g.location_variables, OrderingSpec("vw", "ml")
        )
        assert order.variable_names == ("v1", "v2", "v3", "w")
        order = compute_grouped_order(
            g.count_variable, g.location_variables, OrderingSpec("vrw", "ml")
        )
        assert order.variable_names == ("v3", "v2", "v1", "w")

    def test_bit_orders_ml_lm(self):
        g = make_gfunction()
        ml = compute_grouped_order(
            g.count_variable, g.location_variables, OrderingSpec("wv", "ml")
        )
        lm = compute_grouped_order(
            g.count_variable, g.location_variables, OrderingSpec("wv", "lm")
        )
        assert ml.bits_of("w") == g.count_variable.bit_names()
        assert lm.bits_of("w") == tuple(reversed(g.count_variable.bit_names()))


class TestHeuristicOrders:
    @pytest.mark.parametrize("mv", ["t", "w", "h"])
    def test_heuristic_orders_cover_all_variables(self, mv):
        g = make_gfunction()
        spec = OrderingSpec(mv, "ml")
        order = compute_grouped_order(
            g.count_variable, g.location_variables, spec, g.binary_circuit()
        )
        assert sorted(order.variable_names) == ["v1", "v2", "v3", "w"]
        flat = order.flat_bit_order()
        expected_bits = {b for v in g.variables for b in v.bit_names()}
        assert set(flat) == expected_bits

    @pytest.mark.parametrize("mv", ["t", "w", "h"])
    def test_matching_bit_heuristic_is_accepted(self, mv):
        g = make_gfunction()
        spec = OrderingSpec(mv, mv)
        order = compute_grouped_order(
            g.count_variable, g.location_variables, spec, g.binary_circuit()
        )
        for variable in g.variables:
            assert sorted(order.bits_of(variable.name)) == sorted(variable.bit_names())

    def test_missing_circuit_rejected(self):
        g = make_gfunction()
        with pytest.raises(OrderingError):
            compute_grouped_order(
                g.count_variable, g.location_variables, OrderingSpec("w", "ml")
            )

    def test_all_registered_orderings_are_buildable(self):
        g = make_gfunction(num_components=4, max_defects=2)
        circuit = g.binary_circuit()
        for mv in MV_ORDERINGS:
            for bits in BIT_ORDERINGS:
                if bits in ("t", "w", "h") and bits != mv:
                    continue
                spec = OrderingSpec(mv, bits)
                order = compute_grouped_order(
                    g.count_variable, g.location_variables, spec, circuit
                )
                assert len(order.flat_bit_order()) == sum(v.width for v in g.variables)
