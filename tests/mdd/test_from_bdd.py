"""Unit tests for the coded-ROBDD to ROMDD conversion (Fig. 3 procedure)."""

import itertools

import pytest

from repro.bdd import BDDManager, build_circuit_bdd
from repro.faulttree import GateOp, MVCircuit, MultiValuedVariable
from repro.mdd import MDDError, TRUE, convert_bdd_to_mdd
from repro.mdd.direct import build_mdd_from_mvcircuit


def make_mv_circuit():
    """G = (x >= 2) OR (y == 1 AND z == 0) with x in 0..4, y in 1..3, z in 0..1."""
    mv = MVCircuit("conv-test")
    x = mv.add_variable(MultiValuedVariable("x", range(0, 5)))
    y = mv.add_variable(MultiValuedVariable("y", range(1, 4)))
    z = mv.add_variable(MultiValuedVariable("z", range(0, 2)))
    top = mv.gate(
        GateOp.OR,
        [
            mv.filter_geq(x, 2),
            mv.gate(GateOp.AND, [mv.filter_eq(y, 1), mv.filter_eq(z, 0)]),
        ],
    )
    mv.set_top(top)
    return mv


def groups_for(mv, order_names, bit_order="ml"):
    groups = []
    for name in order_names:
        var = mv.variable(name)
        bits = list(var.bit_names())
        if bit_order == "lm":
            bits = list(reversed(bits))
        groups.append((var, bits))
    return groups


def convert(mv, order_names, bit_order="ml"):
    groups = groups_for(mv, order_names, bit_order)
    flat = [bit for _, bits in groups for bit in bits]
    binary = mv.binary_encode()
    bdd_manager, root, _ = build_circuit_bdd(binary, flat)
    return convert_bdd_to_mdd(bdd_manager, root, groups)


def assert_matches_mv(mv, mdd_manager, mdd_root):
    domains = [v.values for v in mv.variables]
    names = [v.name for v in mv.variables]
    for combo in itertools.product(*domains):
        assignment = dict(zip(names, combo))
        assert mdd_manager.evaluate(mdd_root, assignment) is mv.evaluate(assignment)


class TestConversionCorrectness:
    def test_semantics_preserved_default_order(self):
        mv = make_mv_circuit()
        mdd_manager, root = convert(mv, ["x", "y", "z"])
        assert_matches_mv(mv, mdd_manager, root)

    def test_semantics_preserved_other_mv_orders(self):
        mv = make_mv_circuit()
        for order in (["z", "y", "x"], ["y", "x", "z"], ["x", "z", "y"]):
            mdd_manager, root = convert(mv, order)
            assert_matches_mv(mv, mdd_manager, root)

    def test_semantics_preserved_lm_bit_order(self):
        mv = make_mv_circuit()
        mdd_manager, root = convert(mv, ["x", "y", "z"], bit_order="lm")
        assert_matches_mv(mv, mdd_manager, root)

    def test_constant_function(self):
        mv = MVCircuit("const")
        x = mv.add_variable(MultiValuedVariable("x", range(0, 3)))
        mv.set_top(mv.filter_geq(x, 0))  # always true
        groups = groups_for(mv, ["x"])
        binary = mv.binary_encode()
        bdd_manager, root, _ = build_circuit_bdd(binary, [b for _, bits in groups for b in bits])
        mdd_manager, mdd_root = convert_bdd_to_mdd(bdd_manager, root, groups)
        assert mdd_root == TRUE

    def test_matches_direct_construction(self):
        # canonical representations: conversion route == direct MDD apply route
        mv = make_mv_circuit()
        order = ["x", "y", "z"]
        mdd_a, root_a = convert(mv, order)
        variables = [mv.variable(n) for n in order]
        mdd_b, root_b, _ = build_mdd_from_mvcircuit(mv, variables)
        assert mdd_a.size(root_a) == mdd_b.size(root_b)
        assert_matches_mv(mv, mdd_b, root_b)


class TestGroupingValidation:
    def test_non_contiguous_groups_rejected(self):
        mv = make_mv_circuit()
        groups = groups_for(mv, ["x", "y", "z"])
        # interleave bits of x and y in the BDD order
        x_bits = list(groups[0][1])
        y_bits = list(groups[1][1])
        flat = [x_bits[0], y_bits[0], x_bits[1], y_bits[1]] + [x_bits[2]] + list(groups[2][1])
        binary = mv.binary_encode()
        bdd_manager, root, _ = build_circuit_bdd(binary, flat)
        with pytest.raises(MDDError):
            convert_bdd_to_mdd(bdd_manager, root, groups)

    def test_groups_out_of_order_rejected(self):
        mv = make_mv_circuit()
        groups = groups_for(mv, ["x", "y", "z"])
        reversed_flat = [bit for _, bits in reversed(groups) for bit in bits]
        binary = mv.binary_encode()
        bdd_manager, root, _ = build_circuit_bdd(binary, reversed_flat)
        with pytest.raises(MDDError):
            convert_bdd_to_mdd(bdd_manager, root, groups)

    def test_foreign_bit_rejected(self):
        mv = make_mv_circuit()
        groups = groups_for(mv, ["x", "y", "z"])
        flat = ["alien"] + [bit for _, bits in groups for bit in bits]
        bdd_manager = BDDManager(flat)
        root = bdd_manager.var("alien")
        with pytest.raises(MDDError):
            convert_bdd_to_mdd(bdd_manager, root, groups)

    def test_duplicate_bit_in_groups_rejected(self):
        mv = make_mv_circuit()
        x = mv.variable("x")
        groups = [(x, list(x.bit_names())), (x, list(x.bit_names()))]
        bdd_manager = BDDManager(list(x.bit_names()))
        with pytest.raises(MDDError):
            convert_bdd_to_mdd(bdd_manager, bdd_manager.var(x.bit_names()[0]), groups)
