import functools
import itertools
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

import fusionkit as fk
from conftest import (RAW_SHAPES, counting_ring, fibonacci_ring,
                      label_counting_ring, pool_for, random_symmetric_measure,
                      raw_ring)

from oracles import (direct_apply, direct_compress, direct_window,
                     lattice_ball_top_eigenvalue)


def assert_bitwise_equal(a, b):
    """Equal shape and equal CSR indptr, indices and data, dtype and bytes."""
    assert a.shape == b.shape
    for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)):
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


def window_outcome(ring, S, radius, cap, oracle=False):
    """(labels, level_sizes) of a window, or the cap and the radius it
    stopped at, from ``build_window`` or from the direct oracle."""
    try:
        if oracle:
            return direct_window(ring, S, radius, cap)
        window = fk.build_window(ring, S, radius, cap=cap)
    except fk.BudgetExceeded as exc:
        return ("budget", exc.cap, exc.achieved_radius)
    return window.labels, window.level_sizes


class TestBuildWindow:
    def test_su2_interval(self, su2):
        window = fk.build_window(su2, {1}, 4)
        assert window.labels == (0, 1, 2, 3, 4)

    def test_f2_ball_counts(self, f2):
        assert len(fk.build_window(f2, {"a", "b"}, 2)) == 17
        assert len(fk.build_window(f2, {"a", "b"}, 3)) == 53
        assert fk.build_window(f2, {"a", "b"}, 3).level_sizes == (1, 5, 17, 53)

    def test_radius_zero(self, su2):
        assert fk.build_window(su2, {1}, 0).labels == (0,)

    def test_nesting_is_prefix(self, z2):
        small = fk.build_window(z2, z2.generators, 2)
        large = fk.build_window(z2, z2.generators, 4)
        assert large.labels[:len(small)] == small.labels
        prefix = large.prefix(2)
        assert (prefix.labels, prefix.level_sizes) == (small.labels, small.level_sizes)

    def test_conjugation_closed(self, f2):
        window = fk.build_window(f2, {"a", "b"}, 3)
        labels = set(window.labels)
        assert all(f2.conj(w) in labels for w in labels)

    def test_budget(self, su2):
        with pytest.raises(fk.BudgetExceeded) as info:
            fk.build_window(su2, {1}, 10, cap=5)
        assert info.value.cap == 5
        assert info.value.achieved_radius == 4

    def test_radius_past_sys_maxsize(self, z6, su2):
        # a finite ring gives its saturated window, an infinite one meets
        # the cap
        huge = 2 ** 70
        assert len(fk.build_window(z6, z6.generators, huge).labels) == 6
        mu = fk.ProbMeasure.uniform(z6, z6.generators)
        assert fk.amenability_estimate(z6, mu, [huge]).entries[0].window_size == 6
        with pytest.raises(fk.BudgetExceeded):
            fk.build_window(su2, {1}, huge, cap=50)
        with pytest.raises(fk.BudgetExceeded):
            fk.amenability_estimate(su2, fk.ProbMeasure.delta(su2, 1), [huge], cap=50)

    def test_finite_ring_saturates(self, z6):
        window = fk.build_window(z6, z6.generators, 50)
        assert sorted(window.labels) == list(range(6))
        assert window.level_sizes == (1, 3, 5, 6)
        assert window.prefix(10).labels == window.labels

    def test_empty_support(self, su2):
        with pytest.raises(fk.EmptySet):
            fk.build_window(su2, set(), 3)

    @pytest.mark.parametrize("radius,cap", [
        (2.5, 10), (True, 10), (None, 10), ("3", 10), (-1, 10),
        (3, 2.5), (3, True), (3, None), (3, 0)])
    def test_radius_and_cap_must_be_integers(self, su2, radius, cap):
        with pytest.raises(fk.InvalidParam):
            fk.build_window(su2, {1}, radius, cap=cap)

    def test_integer_like_radius_and_cap(self, su2):
        window = fk.build_window(su2, {1}, np.int64(4), cap=np.int64(10))
        assert (window.labels, window.radius) == ((0, 1, 2, 3, 4), 4)

    def test_unhashable_value_is_not_in_the_window(self, su2):
        # as FusionRing.contains reads it, not a TypeError
        window = fk.build_window(su2, {1}, 3)
        assert [1] not in window and {} not in window
        assert 1 in window and 7 not in window

    @pytest.mark.parametrize("value", [7, [1]])
    def test_index_of_a_value_outside_raises_invalid_param(self, su2, value):
        window = fk.build_window(su2, {1}, 3)
        assert [window.index(label) for label in window] == [0, 1, 2, 3]
        with pytest.raises(fk.InvalidParam, match=re.escape(repr(value))):
            window.index(value)


def level_caps(ring, S, radius):
    """Caps at, just past and between the level boundaries of the window,
    so most of them cut a level in the middle."""
    sizes = direct_window(ring, S, radius, fk.spectral.DEFAULT_WINDOW_CAP)[1]
    caps = {1, sizes[-1] + 1}
    for lo, hi in zip(sizes, sizes[1:]):
        caps.update({lo, lo + 1, (lo + hi) // 2, hi - 1})
    return sorted(caps)


#: the rings and radii of the window oracle tests
WINDOW_CASES = [("z2", 6), ("su2", 12), ("f2", 4), ("z6", 9), ("su2xz3", 4)]

class TestWindowOracle:
    @pytest.mark.parametrize("name, radius", WINDOW_CASES)
    def test_matches_direct_window_at_every_cap(self, name, radius):
        ring, S = oracle_ring(name)
        full = direct_window(ring, S, radius, fk.spectral.DEFAULT_WINDOW_CAP)
        sizes = full[1]
        # a copy of the ring with an empty cache: the same levels and the
        # same BudgetExceeded, and nothing cached
        fresh, _ = counting_ring(ring)
        for cap in level_caps(ring, S, radius):
            want = window_outcome(ring, S, radius, cap, oracle=True)
            assert window_outcome(ring, S, radius, cap) == want
            assert window_outcome(fresh, S, radius, cap) == want
        assert window_outcome(ring, S, radius, sizes[-1]) == full
        assert not fresh._cache

    @pytest.mark.parametrize("shape", RAW_SHAPES)
    @pytest.mark.parametrize("name, radius", WINDOW_CASES)
    def test_raw_rule_reads_at_every_cap(self, name, radius, shape):
        # the window's reader, the rule itself, in every raw shape: the
        # oracle's levels and BudgetExceeded, and nothing cached
        ring, S = oracle_ring(name)
        raw = raw_ring(ring, shape)
        for cap in level_caps(ring, S, radius):
            want = window_outcome(ring, S, radius, cap, oracle=True)
            assert window_outcome(raw, S, radius, cap) == want
        assert not raw._cache

    def test_free_group_label_checks(self):
        # only S is checked, once per label; the labels the search reaches
        # are products of checked labels and are not checked again (the
        # per-product checks made 7,043 calls, the per-occurrence loop
        # before them 8,740, and checking S again when it was conjugated
        # into the steps 8)
        base = fk.free_group_ring(2)
        calls = []

        def is_label(w):
            calls.append(w)
            return base.contains(w)

        ring = fk.FusionRing(unit=base.unit, product_rule=base._product_rule,
                             conjugate_rule=base._conjugate_rule,
                             dim_rule=base._dim_rule, is_label=is_label)
        window = fk.build_window(ring, base.generators, 6)
        assert len(window) == 1457
        assert len(calls) == 4
        assert window.prefix(3).labels == window.labels[:53]
        assert len(calls) == 4

    def test_free_group_symmetric_assembly_rule_evaluations(self):
        # a symmetric measure reads one label of each conjugate pair: the
        # products A*eta and B*eta of the 1,457 window labels, not a*eta
        # and b*eta as well; each is read once, straight from the rule, so
        # the products A*t and B*t the window's search cached are read
        # again
        base = fk.free_group_ring(2)
        rule_calls = []

        def product_rule(u, v):
            rule_calls.append((u, v))
            return base._product_rule(u, v)

        ring = fk.FusionRing(unit=base.unit, product_rule=product_rule,
                             conjugate_rule=base._conjugate_rule,
                             dim_rule=base._dim_rule, is_label=base._is_label)
        window = fk.build_window(ring, base.generators, 6)
        mu = fk.ProbMeasure.uniform(ring, base.generators)
        del rule_calls[:]
        op = fk.l_measure_operator(ring, mu, window)
        assert len(rule_calls) == 2_914
        assert {u for u, _ in rule_calls} == {"A", "B"}
        assert_bitwise_equal(op.matrix, direct_compress(
            ring, [(x, Fraction(w) / Fraction(ring.dim(x)))
                   for x, w in mu.sorted_items()], window))


@functools.cache
def oracle_ring(name):
    """A ring of the oracle tests and its generator support."""
    ring = {"su2": fk.build_su2_ring, "dsu2": lambda: fk.build_deformed_su2_ring(3),
            "f2": lambda: fk.free_group_ring(2), "z6": lambda: fk.cyclic_ring(6),
            "z2": lambda: fk.integer_lattice_ring(2),
            "su2xz3": lambda: fk.tensor_product(fk.build_su2_ring(), fk.cyclic_ring(3)),
            "fib": fibonacci_ring}[name]()
    return ring, frozenset(ring.generators)


def draw_weights(data, ring, labels, symmetric):
    """Weights on ``labels`` (conjugate-closed with equal weights on each
    conjugate pair when ``symmetric``), as Fractions or as their floats,
    over a total that is mostly not a power of 2."""
    classes = []
    for label in labels:
        if symmetric:
            cls = frozenset({label, ring.conj(label)})
            if cls not in classes:
                classes.append(cls)
        else:
            classes.append(frozenset({label}))
    ints = [data.draw(st.integers(1, 12)) for _ in classes]
    total = sum(ints)
    as_float = data.draw(st.booleans())
    weights = {}
    for cls, k in zip(classes, ints):
        share = Fraction(k, total * len(cls))
        for label in cls:
            weights[label] = float(share) if as_float else share
    return weights


class TestCompressOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["su2", "dsu2", "f2", "z6", "su2xz3", "fib"]),
           st.integers(0, 3), st.data())
    def test_matches_fraction_assembly(self, name, radius, data):
        ring, S = oracle_ring(name)
        window = fk.build_window(ring, S, radius)
        pool = pool_for(ring, 2)
        pick = st.sampled_from(pool)

        xi = data.draw(pick)
        op = fk.l_operator(ring, xi, window)
        assert_bitwise_equal(op.matrix, direct_compress(
            ring, [(xi, 1 / Fraction(ring.dim(xi)))], window))

        symmetric = data.draw(st.booleans())
        support = data.draw(st.lists(pick, min_size=1, max_size=4, unique=True))
        if data.draw(st.booleans()):
            # a self-conjugate label among the conjugate pairs
            support = list(dict.fromkeys([ring.unit, *support]))
        mu = fk.ProbMeasure(ring, draw_weights(data, ring, support, symmetric))
        op = fk.l_measure_operator(ring, mu, window)
        assert_bitwise_equal(op.matrix, direct_compress(
            ring, [(x, Fraction(w) / Fraction(ring.dim(x)))
                   for x, w in mu.sorted_items()], window))
        if symmetric:
            assert op.selfadjoint
            transpose = op.matrix.T.tocsr()
            transpose.sort_indices()
            assert_bitwise_equal(op.matrix, transpose)

        paired = data.draw(st.booleans())
        coeffs = {}
        for label in data.draw(st.lists(pick, max_size=4, unique=True)):
            k = data.draw(st.integers(-4, 4))
            coeffs[label] = k
            if paired:  # equal coefficients on each conjugate pair
                coeffs[ring.conj(label)] = k
        x = fk.Element(ring, coeffs)
        op = fk.gns_operator(ring, x, window)
        assert_bitwise_equal(op.matrix, direct_compress(
            ring, sorted(x.coeffs.items()), window))
        if paired:
            assert op.selfadjoint

    @pytest.mark.parametrize("name, weights, coeffs", [
        # the unit and a self-conjugate (2, 0) beside conjugate pairs
        ("su2xz3", {(0, 0): 1, (1, 1): 2, (1, 2): 2, (2, 0): 3, (0, 1): 1,
                    (0, 2): 1},
         {(0, 0): 2, (1, 1): -3, (1, 2): -3, (2, 0): 1, (2, 1): 5, (2, 2): 5}),
        ("f2", {"": 2, "a": 1, "A": 1, "ab": 3, "BA": 3, "b": 1, "B": 1},
         {"": -1, "a": 2, "A": 2, "ab": -3, "BA": -3, "bb": 1, "BB": 1}),
        ("z6", {0: 1, 3: 2, 1: 3, 5: 3}, {0: 4, 3: -1, 2: 2, 4: 2}),
    ])
    def test_pairs_beside_self_conjugate_terms(self, name, weights, coeffs):
        ring, S = oracle_ring(name)
        window = fk.build_window(ring, S, 3)
        total = sum(weights.values())
        mu = fk.ProbMeasure(ring, {x: Fraction(w, total) for x, w in weights.items()})
        x = fk.Element(ring, coeffs)
        assert mu.symmetric and fk.conjugate_element(x) == x
        for op, terms in (
                (fk.l_measure_operator(ring, mu, window),
                 [(xi, Fraction(w) / Fraction(ring.dim(xi)))
                  for xi, w in mu.sorted_items()]),
                (fk.gns_operator(ring, x, window), sorted(x.coeffs.items()))):
            assert op.selfadjoint
            assert_bitwise_equal(op.matrix, direct_compress(ring, terms, window))
            transpose = op.matrix.T.tocsr()
            transpose.sort_indices()
            assert_bitwise_equal(op.matrix, transpose)

    def test_conjugates_with_unequal_coefficients_not_paired(self):
        # d(2) != d(1) breaks an axiom, so mu(1) = mu(2) gives the two
        # conjugate terms different coefficients; each reads its own products
        base = fk.cyclic_ring(3)
        ring = fk.FusionRing(unit=0, product_rule=base._product_rule,
                             conjugate_rule=base._conjugate_rule,
                             dim_rule=lambda x: 2 if x == 2 else 1,
                             is_label=base._is_label)
        window = fk.build_window(ring, {1}, 2)
        mu = fk.ProbMeasure.uniform(ring, [1, 2])
        op = fk.l_measure_operator(ring, mu, window)
        assert op.selfadjoint
        assert_bitwise_equal(op.matrix, direct_compress(
            ring, [(1, Fraction(1, 2)), (2, Fraction(1, 4))], window))

    def test_entry_rounded_once_after_exact_sum(self):
        # entry (t, t) of mu = 1/3 delta_1 + 2/3 delta_t on the Fibonacci
        # ring is 1/3 + (2/3)/phi; adding the two rounded terms in floats
        # gives a different last bit
        ring = fibonacci_ring()
        window = fk.build_window(ring, {"t"}, 1)
        mu = fk.ProbMeasure(ring, {"1": Fraction(1, 3), "t": Fraction(2, 3)})
        terms = [(x, Fraction(w) / Fraction(ring.dim(x))) for x, w in mu.sorted_items()]
        op = fk.l_measure_operator(ring, mu, window)
        assert_bitwise_equal(op.matrix, direct_compress(ring, terms, window))
        t = window.index("t")
        assert op.matrix[t, t] == float(sum(c for _, c in terms))
        assert op.matrix[t, t] != sum(float(c) for _, c in terms)

    def test_cancelled_entry_stays_stored(self):
        # x = 1 - chi_2 on SU(2): entry (2, 2) is 1 - N(2,2->2) = 0, kept as
        # a stored zero like every other entry some product reaches
        ring, S = oracle_ring("su2")
        window = fk.build_window(ring, S, 3)
        x = fk.Element(ring, {0: 1, 2: -1})
        op = fk.gns_operator(ring, x, window)
        assert_bitwise_equal(op.matrix, direct_compress(
            ring, sorted(x.coeffs.items()), window))
        assert op.matrix.nnz == 8 and op.matrix[2, 2] == 0.0

    def test_nnz_counts_stored_entries(self):
        # the cancelled entry of 1 - chi_2 counts, and an operator with no
        # stored entries counts 0, as in matrix.nnz
        ring, S = oracle_ring("su2")
        window = fk.build_window(ring, S, 3)
        ops = [fk.gns_operator(ring, fk.Element(ring, {0: 1, 2: -1}), window),
               fk.l_operator(ring, 1, window),
               fk.l_operator(ring, 1, fk.build_window(ring, S, 0))]
        ops.append(fk.CompressedOperator(window, ops[0].matrix.tocoo(), True))
        assert [op.nnz for op in ops] == [8, 6, 0, 8]
        assert [op.matrix.nnz for op in ops] == [8, 6, 0, 8]

    @pytest.mark.parametrize("k", [2 ** 40, 2 ** 62, -2 ** 63, 2 ** 70])
    @pytest.mark.parametrize("name, labels", [
        ("su2", [0, 2, 4]), ("f2", ["", "a", "A"])])
    def test_numerators_on_both_sides_of_int64(self, name, labels, k):
        # k on three labels: with 2**40 every numerator and sum fits
        # int64; with 2**62 the entry k N(0,2->2) + k N(2,2->2) of SU(2)
        # is 2**63, and -2**63 and 2**70 do not fit at all
        ring, S = oracle_ring(name)
        window = fk.build_window(ring, S, 4)
        x = fk.Element(ring, dict.fromkeys(labels, k))
        op = fk.gns_operator(ring, x, window)
        assert op.selfadjoint
        assert_bitwise_equal(op.matrix, direct_compress(
            ring, sorted(x.coeffs.items()), window))

    @pytest.mark.parametrize("coeffs", [
        {1: 2 ** 1023}, {1: -2 ** 1023}, {0: 2 ** 1022, 2: 2 ** 1022}])
    def test_entries_just_inside_the_float_range(self, coeffs):
        ring, S = oracle_ring("su2")
        window = fk.build_window(ring, S, 5)
        x = fk.Element(ring, coeffs)
        op = fk.gns_operator(ring, x, window)
        assert np.isfinite(op._csr.data).all()
        assert_bitwise_equal(op.matrix, direct_compress(
            ring, sorted(x.coeffs.items()), window))

    @pytest.mark.parametrize("coeffs, entry", [
        ({1: 2 ** 1024}, r"\(0, 1\) is 2\*\*1024\.0"),
        ({1: -2 ** 1024}, r"\(0, 1\) is -2\*\*1024\.0"),
        ({0: 2 ** 1023, 2: 2 ** 1023}, r"\(1, 1\) is 2\*\*1024\.0")])
    def test_entries_past_the_float_range_refused(self, coeffs, entry):
        # the int / int division of an entry past the float range: the
        # last case passes it only in the sum N(0,1->1) + N(2,1->1)
        ring, S = oracle_ring("su2")
        window = fk.build_window(ring, S, 5)
        with pytest.raises(fk.InvalidParam, match=entry + ", past the float"):
            fk.gns_operator(ring, fk.Element(ring, coeffs), window)

    @pytest.mark.parametrize("name, weights", [
        ("z6", {0: 1 / 3, 1: 1 / 3, 5: 1 / 3}),
        ("su2", {0: 1 / 3, 1: 1 / 3, 2: 1 / 3}),
        ("dsu2", {0: 1 / 3, 1: 1 / 3, 2: 1 / 3}),
        ("f2", {"": 1 / 3, "a": 1 / 3, "A": 1 / 3}),
        ("fib", {"1": 1 / 3, "t": 2 / 3}),
        ("dsu2", {41: 1.0})])
    def test_common_denominator_at_least_2_53(self, name, weights):
        # float weights: the common denominator D of the mu(xi)/d(xi) is
        # at least 2**53, so the entries are divided as int / int; for
        # delta_41 on deformed SU(2) it is d(41), which is no float64,
        # over int64 numerators N(41, eta -> alpha)
        ring, _ = oracle_ring(name)
        window = fk.build_window(ring, weights, 2)
        mu = fk.ProbMeasure(ring, weights)
        terms = [(x, Fraction(w) / Fraction(ring.dim(x)))
                 for x, w in mu.sorted_items()]
        assert math.lcm(*(c.denominator for _, c in terms)) >= 2 ** 53
        op = fk.l_measure_operator(ring, mu, window)
        assert_bitwise_equal(op.matrix, direct_compress(ring, terms, window))

    @pytest.mark.parametrize("terms", [
        [(1, Fraction(2 ** 53 + 5, 3))],
        [(0, Fraction(2 ** 52 + 1, 3)), (2, Fraction(2 ** 52 + 4, 3))],
        [(0, Fraction(-2 ** 52 - 1, 3)), (2, Fraction(-2 ** 52 - 4, 3))]])
    def test_sums_at_least_2_53_over_a_small_denominator(self, terms):
        # D = 3 and int64 numerators that sum to +-(2**53 + 5), which is
        # no float64: rounding the sum to a float before dividing gives
        # (2**53 + 4) / 3, one rounding too many
        ring, S = oracle_ring("su2")
        window = fk.build_window(ring, S, 6)
        op = fk.spectral._compress(ring, terms, window, selfadjoint=True)
        want = direct_compress(ring, terms, window)
        assert_bitwise_equal(op.matrix, want)
        assert abs(want.data).max() == (2 ** 53 + 5) / 3

    @pytest.mark.parametrize("name, radius", [("f2", 4), ("su2", 40)])
    def test_chunk_boundaries(self, monkeypatch, name, radius):
        # chunks of 7 window labels: entries whose terms come from
        # different chunks, and pairs whose transposes cross them
        monkeypatch.setattr(fk.core, "_CHUNK", 7)
        ring, S = oracle_ring(name)
        window = fk.build_window(ring, S, radius)
        mu = fk.ProbMeasure.uniform(ring, S | {ring.unit})
        op = fk.l_measure_operator(ring, mu, window)
        assert_bitwise_equal(op.matrix, direct_compress(
            ring, [(x, Fraction(w) / Fraction(ring.dim(x)))
                   for x, w in mu.sorted_items()], window))
        labels = sorted(S | {ring.unit})
        x = fk.Element(ring, {label: 3 - i for i, label in enumerate(labels)})
        op = fk.gns_operator(ring, x, window)
        assert_bitwise_equal(op.matrix, direct_compress(
            ring, sorted(x.coeffs.items()), window))

    @pytest.mark.parametrize("name, radius", [("su2", 6), ("f2", 2)])
    def test_dropped_coefficients_change_nothing(self, name, radius):
        # products that leave the window carry 2**70, a Fraction and a
        # bool there: the assembly drops those terms unread, so its
        # numerators stay int64 and the matrices match the oracle's
        base, S = oracle_ring(name)
        inside = set(fk.build_window(base, S, radius).labels)
        odd = itertools.cycle((2 ** 70, Fraction(1, 2), True))

        def rule(x, y):
            return {a: n if a in inside else next(odd)
                    for a, n in base._product_rule(x, y).items()}

        ring = fk.FusionRing(unit=base.unit, product_rule=rule,
                             conjugate_rule=base._conjugate_rule,
                             dim_rule=base._dim_rule, is_label=base._is_label,
                             description=base.description)
        window = fk.build_window(ring, S, radius)
        mu = fk.ProbMeasure.uniform(ring, S | {ring.unit})
        terms = [(x, Fraction(w) / Fraction(ring.dim(x)))
                 for x, w in mu.sorted_items()]
        assert_bitwise_equal(fk.l_measure_operator(ring, mu, window).matrix,
                             direct_compress(ring, terms, window))
        x = fk.Element(ring, {label: i + 1 for i, label in enumerate(sorted(S))})
        assert_bitwise_equal(fk.gns_operator(ring, x, window).matrix,
                             direct_compress(ring, sorted(x.coeffs.items()), window))
        data = fk.core._product_csr(ring, [x for x, _ in terms], window.labels,
                                    window._index, grow=False)[0]
        assert data.dtype == np.int64

    @pytest.mark.parametrize("name", ["su2", "f2", "su2xz3"])
    def test_radius_zero_window_drops_every_product(self, name):
        ring, S = oracle_ring(name)
        window = fk.build_window(ring, S, 0)
        mu = fk.ProbMeasure.uniform(ring, S)
        op = fk.l_measure_operator(ring, mu, window)
        assert op.matrix.shape == (1, 1) and op.matrix.nnz == 0
        assert_bitwise_equal(op.matrix, direct_compress(
            ring, [(x, Fraction(w) / Fraction(ring.dim(x)))
                   for x, w in mu.sorted_items()], window))


class TestLOperator:
    def test_su2_tridiagonal(self, su2):
        window = fk.build_window(su2, {1}, 9)
        op = fk.l_operator(su2, 1, window)
        dense = op.matrix.toarray()
        m = len(window)
        expected = np.zeros((m, m))
        for k in range(m - 1):
            expected[k + 1, k] = expected[k, k + 1] = 0.5
        assert np.array_equal(dense, expected)
        assert dense[1, 0] == 0.5
        assert op.selfadjoint

    def test_deformed_scaling(self, dsu2):
        window = fk.build_window(dsu2, {1}, 9)
        dense = fk.l_operator(dsu2, 1, window).matrix.toarray()
        off = [dense[k, k + 1] for k in range(9)]
        assert off == [pytest.approx(1 / 3)] * 9

    def test_unit_gives_identity(self, su2):
        window = fk.build_window(su2, {1}, 5)
        dense = fk.l_operator(su2, 0, window).matrix.toarray()
        assert np.array_equal(dense, np.eye(len(window)))

    def test_invalid_label(self, su2):
        window = fk.build_window(su2, {1}, 3)
        with pytest.raises(fk.InvalidLabel):
            fk.l_operator(su2, -2, window)

    def test_window_of_another_ring_rejected(self, su2, dsu2):
        window = fk.build_window(dsu2, {1}, 3)
        for build in (lambda: fk.l_operator(su2, 1, window),
                      lambda: fk.l_measure_operator(su2, fk.ProbMeasure.delta(su2, 1), window),
                      lambda: fk.gns_operator(su2, fk.Element(su2, {1: 1}), window)):
            with pytest.raises(fk.RingMismatch):
                build()

    def test_transpose_duality_exact(self, f2, z2):
        for ring in (f2, z2):
            window = fk.build_window(ring, ring.generators, 3)
            for xi in ring.generators:
                m1 = fk.l_operator(ring, xi, window).matrix
                m2 = fk.l_operator(ring, ring.conj(xi), window).matrix
                assert (m1.T != m2).nnz == 0  # bitwise equality


class TestLMeasureOperator:
    def test_lattice_path(self, z1):
        window = fk.build_window(z1, {1, -1}, 5)
        mu = fk.ProbMeasure.uniform(z1, [1, -1])
        dense = fk.l_measure_operator(z1, mu, window).matrix.toarray()
        order = list(window.labels)
        for i, x in enumerate(order):
            for j, y in enumerate(order):
                expected = 0.5 if abs(x - y) == 1 else 0.0
                assert dense[i, j] == expected

    def test_delta_e_identity(self, su2):
        window = fk.build_window(su2, {1}, 4)
        mu = fk.ProbMeasure.delta(su2, 0)
        dense = fk.l_measure_operator(su2, mu, window).matrix.toarray()
        assert np.array_equal(dense, np.eye(len(window)))

    def test_delta_reduces_to_l_operator(self, su2):
        window = fk.build_window(su2, {1}, 6)
        mu = fk.ProbMeasure.delta(su2, 1)
        a = fk.l_measure_operator(su2, mu, window).matrix
        b = fk.l_operator(su2, 1, window).matrix
        assert (a != b).nnz == 0

    def test_symmetric_measure_gives_bitwise_symmetric_matrix(self, f2):
        window = fk.build_window(f2, f2.generators, 3)
        rng = random.Random(3)
        for _ in range(5):
            mu = random_symmetric_measure(f2, rng, pool_for(f2, 2))
            op = fk.l_measure_operator(f2, mu, window)
            assert op.selfadjoint
            assert (op.matrix != op.matrix.T).nnz == 0

    def test_leaves_product_cache_unchanged(self):
        f2 = fk.free_group_ring(2)  # a fresh cache, not the shared fixture's
        window = fk.build_window(f2, f2.generators, 4)
        size = len(f2._cache)
        fk.l_measure_operator(f2, fk.ProbMeasure.uniform(f2, f2.generators), window)
        assert len(f2._cache) == size

    def test_selfadjoint_flag_follows_symmetry(self, z1):
        window = fk.build_window(z1, {1, -1}, 3)
        op = fk.l_measure_operator(z1, fk.ProbMeasure.delta(z1, 1), window)
        assert not op.selfadjoint

    def test_peak_traced_memory(self):
        # F2 radius 8, 13,121 labels: the chunked array assembly peaks at
        # 2.36 MB here; adding each term to a dict of numerators peaked at
        # 3.31 MB, and reading the whole window at once at 6.92 MB
        ring = fk.free_group_ring(2)
        mu = fk.ProbMeasure.uniform(ring, ring.generators)
        # a first small assembly, so one-time set-up stays out of the trace
        fk.l_measure_operator(ring, mu, fk.build_window(ring, ring.generators, 2))
        window = fk.build_window(ring, ring.generators, 8)
        assert len(window) == 13_121
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            op = fk.l_measure_operator(ring, mu, window)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert op.nnz == 4 * 13_121 - 4 * 3 ** 8
        assert peak < 2_800_000

    def test_estimate_peak_traced_memory(self):
        # F2 radii 1..8: the estimate keeps only the level sizes and the
        # CSR arrays through its solves, and peaks at 4.65 MB here; it
        # peaked at 6.27 MB when the window lived through them too
        ring = fk.free_group_ring(2)
        mu = fk.ProbMeasure.uniform(ring, ring.generators)
        # a first small estimate, so one-time set-up stays out of the trace
        fk.amenability_estimate(ring, mu, [1, 2])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            report = fk.amenability_estimate(ring, mu, range(1, 9))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert report.entries[-1].window_size == 13_121
        assert peak < 5_400_000


class TestRhoApply:
    def test_su2_worked_values(self, su2):
        f = fk.indicator(su2, range(4))
        out = fk.rho1_operator_apply(su2, 1, f)
        assert out[4] == pytest.approx(0.4)
        assert out[3] == pytest.approx(0.375)

    def test_unit_is_identity(self, su2):
        f = fk.Element(su2, {2: 1.5, 5: -2.0})
        assert fk.rho1_operator_apply(su2, 0, f) == f

    def test_zero_function(self, su2):
        out = fk.rho1_operator_apply(su2, 1, fk.Element(su2, {}))
        assert not out.coeffs

    @pytest.mark.parametrize("name", ["f2", "su2", "z2", "fib"])
    def test_matches_full_scan_bitwise(self, name):
        # the F2 case is the indicator of the radius-6 ball (1,457 labels);
        # the others carry random real values, and SU(2) products by 4 and
        # 7 have up to 8 terms, so the order of the float additions shows
        ring = {"f2": lambda: fk.free_group_ring(2), "su2": fk.build_su2_ring,
                "z2": lambda: fk.integer_lattice_ring(2),
                "fib": fibonacci_ring}[name]()
        steps = (1, 4, 7) if name == "su2" else ring.generators
        rng = random.Random(11)
        if name == "f2":
            f = fk.indicator(ring, fk.build_window(ring, ring.generators, 6))
        else:
            f = fk.Element(ring, {label: rng.uniform(-2.0, 2.0)
                                  for label in pool_for(ring, 12)})

        def hex_map(coeffs):
            return {label: value.hex() for label, value in coeffs.items()}

        for xi in steps:
            for left, apply in ((False, fk.rho1_operator_apply),
                                (True, fk.lambda_operator_apply)):
                assert hex_map(apply(ring, xi, f).coeffs) == \
                    hex_map(direct_apply(ring, xi, f, left))
        mu = fk.ProbMeasure.uniform(ring, steps)
        for left, apply in ((False, fk.rho_measure_apply),
                            (True, fk.lambda_measure_apply)):
            want = fk.Element(ring, {})
            for xi, weight in mu.sorted_items():
                want = want + weight * fk.Element(ring, direct_apply(ring, xi, f, left))
            assert hex_map(apply(ring, mu, f).coeffs) == hex_map(want.coeffs)

    def test_measure_apply_asks_no_label_rule(self):
        # supp(mu) and supp(f) were checked when they were built; the
        # labels read off their products are not checked again (building
        # the results through the checking constructor asked 34,984 times)
        ring, asked = label_counting_ring(fk.free_group_ring(2))
        f = fk.indicator(ring, fk.build_window(ring, ring.generators, 6))
        mu = fk.ProbMeasure.uniform(ring, ring.generators)
        del asked[:]
        for apply in (fk.rho_measure_apply, fk.lambda_measure_apply):
            assert len(apply(ring, mu, f).coeffs) == 4373
        assert asked == []
        fk.rho1_operator_apply(ring, "a", f)
        assert asked == ["a"]


#: ring, radius and size of a window of 513 to 4,373 labels, for the
#: uniform measure on the ring's generators (delta_1 on the SU(2) rules)
LARGE_WINDOWS = {
    "z2": (lambda: fk.integer_lattice_ring(2), 16, 545),
    "z3": (lambda: fk.integer_lattice_ring(3), 7, 575),
    "su2": (fk.build_su2_ring, 512, 513),
    "dsu2": (lambda: fk.build_deformed_su2_ring(3), 512, 513),
    "f2": (lambda: fk.free_group_ring(2), 6, 1457),
    "f3": (lambda: fk.free_group_ring(3), 4, 937),
    "su2xz3": (lambda: fk.tensor_product(fk.build_su2_ring(), fk.cyclic_ring(3)),
               171, 514),
    "su2xsu2": (lambda: fk.tensor_product(fk.build_su2_ring(), fk.build_su2_ring()),
                31, 528),
    "z30xz30": (lambda: fk.tensor_product(fk.cyclic_ring(30), fk.cyclic_ring(30)),
                30, 900),
}


#: (ring, radius) of windows from 1 label to 545: the uniform measure on
#: the ring's generators (delta_1 on the SU(2) rules), and on Z the signed
#: GNS operator of 2 delta_0 - delta_1 - delta_-1
ONE_PATH_WINDOWS = ([("su2", m - 1) for m in (1, 2, 31, 32, 33, 100, 512, 513)]
                    + [("dsu2", r) for r in (0, 32, 99)]
                    + [("f2", r) for r in range(6)]
                    + [("z2", r) for r in range(17)]
                    + [("z1-signed", r) for r in (0, 1, 50, 300)])


def one_path_operator(name, radius):
    """The operator of a ``ONE_PATH_WINDOWS`` case."""
    if name == "z1-signed":
        ring = fk.integer_lattice_ring(1)
        x = fk.Element(ring, {0: 2, 1: -1, -1: -1})
        return fk.gns_operator(ring, x, fk.build_window(ring, (1,), radius))
    ring, support = oracle_ring(name)
    return fk.l_measure_operator(ring, fk.ProbMeasure.uniform(ring, support),
                                 fk.build_window(ring, support, radius))


def above_limit_operator(name):
    """l_mu compressed to the ``LARGE_WINDOWS`` window of ``name``."""
    make, radius, size = LARGE_WINDOWS[name]
    ring = make()
    window = fk.build_window(ring, ring.generators, radius)
    assert len(window) == size
    return fk.l_measure_operator(
        ring, fk.ProbMeasure.uniform(ring, ring.generators), window)


class TestTopEigenvalue:
    def test_identity_operator(self, su2):
        window = fk.build_window(su2, {1}, 4)
        op = fk.l_measure_operator(su2, fk.ProbMeasure.delta(su2, 0), window)
        assert fk.top_eigenvalue(op).value == pytest.approx(1.0, abs=1e-12)

    def test_su2_path_closed_form(self, su2):
        for m in (10, 100, 512):
            window = fk.build_window(su2, {1}, m - 1)
            assert len(window) == m
            op = fk.l_measure_operator(su2, fk.ProbMeasure.delta(su2, 1), window)
            est = fk.top_eigenvalue(op)
            assert est.method == "lanczos" and est.residual < 1e-9
            assert est.value == pytest.approx(math.cos(math.pi / (m + 1)), abs=1e-9)

    def test_deformed_closed_form(self, dsu2):
        window = fk.build_window(dsu2, {1}, 99)
        op = fk.l_measure_operator(dsu2, fk.ProbMeasure.delta(dsu2, 1), window)
        expected = (2 / 3) * math.cos(math.pi / 101)
        assert fk.top_eigenvalue(op).value == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(LARGE_WINDOWS))
    def test_lanczos_matches_dense(self, name):
        op = above_limit_operator(name)
        est = fk.top_eigenvalue(op, tol=1e-10)
        assert est.method == "lanczos" and est.residual < 1e-10
        assert 0 < est.iterations <= 10 * op.shape[0]
        dense_top = float(np.linalg.eigvalsh(op.matrix.toarray())[-1])
        assert est.value == pytest.approx(dense_top, abs=1e-9)

    @pytest.mark.parametrize("name, radius", ONE_PATH_WINDOWS)
    def test_every_window_runs_lanczos(self, name, radius):
        op = one_path_operator(name, radius)
        est = fk.top_eigenvalue(op)
        assert est.method == "lanczos"
        assert est.iterations >= 1 and est.residual < 1e-9
        dense_top = float(np.linalg.eigvalsh(op.matrix.toarray())[-1])
        assert est.value == pytest.approx(dense_top, abs=1e-9)

    def test_operator_with_no_stored_entries(self, z1):
        # delta_10000 + delta_-10000 moves every label of the 601-label
        # window out of it, so the compression stores no entry
        window = fk.build_window(z1, (1,), 300)
        op = fk.gns_operator(z1, fk.Element(z1, {10000: 1, -10000: 1}), window)
        assert op.shape == (601, 601) and op.matrix.nnz == 0
        est = fk.top_eigenvalue(op)
        assert (est.value, est.method, est.iterations, est.residual) == \
            (0.0, "lanczos", 1, 0.0)

    def test_invariant_start_vector_stops_after_one_matvec(self):
        # on a finite abelian group ring the uniform vector is the Perron
        # vector, so the first Krylov space is invariant
        est = fk.top_eigenvalue(above_limit_operator("z30xz30"))
        assert est.iterations == 1
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_signed_operator_finds_the_top_past_the_uniform_kernel(self):
        # 2e - g - g^-1 on Z/1000 has eigenvalues 2 - 2 cos(2 pi k / 1000),
        # top 4 at k = 500; the uniform vector spans its kernel, so a
        # uniform start would stop at 0 after one matvec
        ring = fk.cyclic_ring(1000)
        window = fk.build_window(ring, {1}, 500)
        assert len(window) == 1000
        x = fk.Element(ring, {0: 2, 1: -1, 999: -1})
        est = fk.top_eigenvalue(fk.gns_operator(ring, x, window))
        assert est.method == "lanczos" and est.residual < 1e-9
        assert est.value == pytest.approx(4.0, abs=1e-9)

    def test_rounding_level_beta_ends_the_search(self):
        # the uniform vector spans a 2-dimensional Krylov space of this
        # diagonal; with tol below rounding the search stops there, since
        # beta is below 64 eps ||T||, rather than go on from rounding errors
        M = scipy.sparse.diags(np.repeat([0.9, 0.1], 301)[:601]).tocsr()
        theta, x, matvecs = fk.spectral._lanczos_top(M, 1e-18)
        assert matvecs == 2
        assert theta == pytest.approx(0.9, abs=1e-15)
        assert np.linalg.norm(M @ x - theta * x) < 1e-14

    def test_no_scipy_linalg_import(self):
        # an estimate runs on numpy alone
        code = ("import sys\n"
                "import fusionkit as fk\n"
                "f2 = fk.free_group_ring(2)\n"
                "mu = fk.ProbMeasure.uniform(f2, f2.generators)\n"
                "report = fk.amenability_estimate(f2, mu, [5, 6])\n"
                "assert report.entries[-1].method == 'lanczos'\n"
                "print(sorted(m for m in sys.modules if m.startswith(\n"
                "    ('scipy.linalg', 'scipy.sparse.linalg'))))\n")
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(fk.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out == "[]\n"

    def test_estimates_searches_and_cli_load_no_scipy(self, tmp_path):
        # the estimate path and the axiom checks run on numpy arrays;
        # scipy.sparse loads for CompressedOperator.matrix alone, and
        # that matrix holds the same bytes as the Fraction assembly
        su2_file = tmp_path / "su2.json"
        su2_file.write_text('{"type": "builtin", "name": "su2", "params": {}}')
        table_file = tmp_path / "z2.json"
        table_file.write_text(
            '{"type": "table", "labels": ["e", "g"], "unit": "e", '
            '"conjugate": {"e": "e", "g": "g"}, "dim": {"e": 1, "g": 1}, '
            '"products": {"e|e": {"e": 1}, "e|g": {"g": 1}, '
            '"g|e": {"g": 1}, "g|g": {"e": 1}}}')
        code = f"""
import contextlib, io, sys
from fractions import Fraction
import fusionkit as fk
import fusionkit.cli
f2 = fk.free_group_ring(2)
mu = fk.ProbMeasure.uniform(f2, f2.generators)
report = fk.amenability_estimate(f2, mu, [5, 6])
assert report.entries[-1].method == "lanczos"
su2 = fk.build_su2_ring()
report = fk.amenability_estimate(su2, fk.ProbMeasure.delta(su2, 1), [600])
assert report.entries[-1].method == "lanczos"
z2 = fk.integer_lattice_ring(2)
assert fk.foelner_search(z2, z2.generators, 0.1, strategy="balls",
                        budget=4000).found
window = fk.build_window(f2, f2.generators, 6)
op = fk.l_measure_operator(f2, mu, window)
assert fk.top_eigenvalue(op).method == "lanczos"
with contextlib.redirect_stdout(io.StringIO()):
    assert fk.cli.main(["spectrum", {str(su2_file)!r}, "--measure", "delta:1",
                        "--radii", "10,600"]) == 0
    assert fk.cli.main(["check", {str(su2_file)!r}, "--condition", "fc3",
                        "--set", "interval:0..100", "--support", "1",
                        "--eps", "0.06"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
assert fk.verify_axioms(f2, fk.build_window(f2, f2.generators, 2)).passed
assert fk.verify_axioms(su2, fk.build_window(su2, su2.generators, 30)).passed
with contextlib.redirect_stdout(io.StringIO()):
    assert fk.cli.main(["axioms", {str(su2_file)!r}, "--radius", "20"]) == 0
assert fk.load_ring({str(table_file)!r}).description == "table ring"
print("scipy.sparse" in sys.modules)
sys.path.insert(0, {os.path.dirname(__file__)!r})
from oracles import direct_compress
from test_spectral import assert_bitwise_equal
assert_bitwise_equal(op.matrix, direct_compress(
    f2, [(x, Fraction(w)) for x, w in mu.sorted_items()], window))
"""
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(fk.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out == "[]\nFalse\n"

    def test_matrix_without_scipy_names_the_extra(self):
        # with scipy not installed, everything but the matrix property runs
        code = ("import sys\n"
                "sys.modules['scipy'] = None  # import scipy raises ImportError\n"
                "import fusionkit as fk\n"
                "f2 = fk.free_group_ring(2)\n"
                "window = fk.build_window(f2, f2.generators, 4)\n"
                "mu = fk.ProbMeasure.uniform(f2, f2.generators)\n"
                "op = fk.l_measure_operator(f2, mu, window)\n"
                "print(op.nnz, fk.top_eigenvalue(op).method)\n"
                "print(fk.verify_axioms(f2, fk.build_window(f2, f2.generators, 2)).passed)\n"
                "try:\n"
                "    op.matrix\n"
                "except fk.InvalidParam as exc:\n"
                "    print(exc)\n")
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(fk.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out == ("320 lanczos\nTrue\n"
                       "CompressedOperator.matrix needs scipy: install "
                       "fusionkit[scipy]\n")

    def test_nnz_loads_no_scipy(self):
        # nnz reads the operator's own arrays, not CompressedOperator.matrix
        code = ("import sys\n"
                "import fusionkit as fk\n"
                "f2 = fk.free_group_ring(2)\n"
                "window = fk.build_window(f2, f2.generators, 4)\n"
                "mu = fk.ProbMeasure.uniform(f2, f2.generators)\n"
                "op = fk.l_measure_operator(f2, mu, window)\n"
                "print(op.nnz, 'scipy' in sys.modules)\n"
                "print(op.matrix.nnz, 'scipy' in sys.modules)\n")
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(fk.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out == "320 False\n320 True\n"

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0, None, "1e-9"])
    def test_tol_must_be_finite_and_positive(self, su2, tol):
        op = fk.l_operator(su2, 1, fk.build_window(su2, {1}, 3))
        with pytest.raises(fk.InvalidParam):
            fk.top_eigenvalue(op, tol=tol)

    @pytest.mark.parametrize("tol", [10 ** 400, Fraction(10 ** 400, 3)],
                             ids=["10**400", "10**400/3"])
    def test_tol_past_the_float_range_reads_as_the_largest_float(self, su2, tol):
        op = fk.l_operator(su2, 1, fk.build_window(su2, {1}, 3))
        assert fk.top_eigenvalue(op, tol=tol) == \
            fk.top_eigenvalue(op, tol=sys.float_info.max)

    def test_not_selfadjoint_rejected(self, z1):
        window = fk.build_window(z1, {1, -1}, 3)
        op = fk.l_measure_operator(z1, fk.ProbMeasure.delta(z1, 1), window)
        with pytest.raises(fk.NotSelfAdjoint):
            fk.top_eigenvalue(op)

    def test_no_convergence_carries_estimate(self, f2):
        window = fk.build_window(f2, f2.generators, 6)
        mu = fk.ProbMeasure.uniform(f2, f2.generators)
        op = fk.l_measure_operator(f2, mu, window)
        with pytest.raises(fk.NoConvergence) as info:
            fk.top_eigenvalue(op, tol=1e-18)
        assert 0 < info.value.iterations <= 10 * len(window)
        assert 0.0 < info.value.estimate < 1.0
        assert info.value.residual > 0.0

    def test_no_convergence_within_the_matvec_cap(self, su2):
        # a tolerance below rounding on a small spectral gap: the search
        # may run to its matvec cap of 10 n, and no further
        window = fk.build_window(su2, {1}, 600)
        op = fk.l_measure_operator(su2, fk.ProbMeasure.delta(su2, 1), window)
        with pytest.raises(fk.NoConvergence) as info:
            fk.top_eigenvalue(op, tol=1e-18)
        assert 0 < info.value.iterations <= 10 * len(window)
        assert info.value.estimate == pytest.approx(math.cos(math.pi / 602), abs=1e-9)
        assert info.value.residual >= 1e-18


def dense_top(M):
    """The top eigenvalue of the CSR arrays M, from a dense eigensolve."""
    n = M.shape[0]
    A = np.zeros((n, n))
    A[M._rows, M.indices] = M.data
    return float(np.linalg.eigvalsh(A)[-1])


class TestLanczosSteps:
    """Each step orthogonalizes by one Gram-Schmidt pass and repeats it
    only when the pass cancelled."""

    @pytest.mark.parametrize("name, radii, sizes, matvecs", [
        ("su2", [103, 303, 603, 1003], [104, 304, 604, 1004], [64, 192, 400, 736]),
        ("dsu2", [103, 303, 508, 509, 510, 511], [104, 304, 509, 510, 511, 512],
         [64, 192, 336, 336, 336, 336]),
        ("f2", range(1, 10), [2 * 3 ** r - 1 for r in range(1, 10)], range(2, 11))])
    def test_benchmark_window_matvecs(self, name, radii, sizes, matvecs):
        ring, S = oracle_ring(name)
        report = fk.amenability_estimate(ring, fk.ProbMeasure.uniform(ring, S), radii)
        assert [(e.window_size, e.iterations) for e in report.entries] == \
            list(zip(sizes, matvecs))

    @pytest.mark.parametrize("case", sorted(LARGE_WINDOWS) + ONE_PATH_WINDOWS,
                             ids=str)
    def test_ritz_pair_matches_dense(self, case):
        op = (above_limit_operator(case) if case in LARGE_WINDOWS
              else one_path_operator(*case))
        theta, x, _ = fk.spectral._lanczos_top(op._csr, 1e-9)
        assert theta == pytest.approx(dense_top(op._csr), abs=1e-12)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)

    def test_krylov_space_closing_after_three_steps(self):
        # the uniform vector meets three eigenspaces of this diagonal, so
        # the passes of the second and third steps cancel and are repeated,
        # and the search stops on an invariant subspace (z30xz30 above
        # repeats the pass of its one step: its uniform start is invariant)
        M = fk.spectral._CSR(np.resize([0.7, 0.1, 0.4], 600), np.arange(600),
                             np.arange(601))
        theta, x, matvecs = fk.spectral._lanczos_top(M, 1e-9)
        assert matvecs == 3
        assert theta == pytest.approx(dense_top(M), abs=1e-12)
        assert np.linalg.norm(M @ x - theta * x) < 1e-12


class TestGnsOperator:
    def test_scaling(self, su2):
        window = fk.build_window(su2, {1}, 6)
        x = fk.Element(su2, {1: 1})
        a = fk.gns_operator(su2, x, window).matrix.toarray()
        b = fk.l_operator(su2, 1, window).matrix.toarray()
        assert np.array_equal(a, 2.0 * b)

    def test_unit_is_identity(self, su2):
        window = fk.build_window(su2, {1}, 4)
        one = fk.Element(su2, {0: 1})
        dense = fk.gns_operator(su2, one, window).matrix.toarray()
        assert np.array_equal(dense, np.eye(len(window)))

    def test_trace_identity(self, su2, f2):
        rng = random.Random(5)
        for ring in (su2, f2):
            pool = pool_for(ring, 2)
            for _ in range(10):
                labels = rng.sample(pool, min(3, len(pool)))
                x = fk.Element(ring, {l: rng.randint(-2, 2) for l in labels})
                y = fk.multiply(x, fk.conjugate_element(x))
                support = set(y.support) | set(x.support) | {ring.unit}
                window = fk.build_window(ring, support, 1)
                matrix = fk.gns_operator(ring, y, window).matrix.toarray()
                e_index = window.index(ring.unit)
                assert matrix[e_index, e_index] == fk.natural_trace(y)

    def test_integer_elements_only(self, su2):
        window = fk.build_window(su2, {1}, 3)
        with pytest.raises(fk.InvalidParam):
            fk.gns_operator(su2, fk.Element(su2, {1: 0.5}), window)


class TestPictureConsistency:
    def test_weighted_picture_intertwines(self, su2, dsu2, z2):
        # matrix action on plain-l2 coordinates vs exact lambda action on the
        # rescaled function, compared on the window rows
        rng = random.Random(23)
        for ring in (su2, dsu2, z2):
            pool = pool_for(ring, 2)
            window = fk.build_window(ring, ring.generators, 4)
            mu = random_symmetric_measure(ring, rng, pool)
            op = fk.l_measure_operator(ring, mu, window)
            for _ in range(5):
                vec = np.zeros(len(window))
                support = rng.sample(list(window.labels), 4)
                for label in support:
                    vec[window.index(label)] = rng.uniform(-1, 1)
                g = fk.Element(ring, {
                    label: vec[window.index(label)] / ring.dim(label)
                    for label in support})
                exact = fk.lambda_measure_apply(ring, mu, g)
                image = op.matrix @ vec
                for label in window.labels:
                    lhs = image[window.index(label)]
                    rhs = ring.dim(label) * exact[label]
                    assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-10)


class TestGroupRingReduction:
    def test_lattice_matches_adjacency_oracle(self, z1, z2):
        for ring, d, radius in ((z1, 1, 10), (z2, 2, 4)):
            window = fk.build_window(ring, ring.generators, radius)
            mu = fk.ProbMeasure.uniform(ring, ring.generators)
            op = fk.l_measure_operator(ring, mu, window)
            ours = fk.top_eigenvalue(op).value
            oracle = lattice_ball_top_eigenvalue(d, radius)
            assert ours == pytest.approx(oracle, abs=1e-10)


class TestAmenabilityEstimate:
    def test_su2_amenable(self, su2):
        mu = fk.ProbMeasure.delta(su2, 1)
        report = fk.amenability_estimate(su2, mu, [50, 100, 200])
        assert report.verdict is fk.Verdict.EVIDENCE_AMENABLE
        assert report.gap < 1e-3

    def test_deformed_nonamenable(self, dsu2):
        mu = fk.ProbMeasure.delta(dsu2, 1)
        report = fk.amenability_estimate(dsu2, mu, [100, 300, 505, 506, 507, 508])
        assert report.verdict is fk.Verdict.EVIDENCE_NONAMENABLE
        assert report.gap == pytest.approx(1 / 3, abs=1e-3)

    def test_radius_0_with_no_stored_entries(self, z6):
        # the window of radius 0 is the unit, which the uniform measure on
        # the generators moves off it, so l_mu compresses to a 1 x 1 zero
        mu = fk.ProbMeasure.uniform(z6, z6.generators)
        report = fk.amenability_estimate(z6, mu, [0])
        assert report.entries == (fk.RadiusEstimate(
            radius=0, window_size=1, lambda_max=0.0, method="lanczos",
            iterations=1),)
        assert report.gap == 1.0
        assert report.verdict is fk.Verdict.INCONCLUSIVE

    def test_short_run_is_inconclusive(self, su2):
        mu = fk.ProbMeasure.delta(su2, 1)
        report = fk.amenability_estimate(su2, mu, [3, 4, 5])
        assert report.verdict is fk.Verdict.INCONCLUSIVE

    def test_negative_radius_rejected(self, su2):
        with pytest.raises(fk.InvalidParam):
            fk.amenability_estimate(su2, fk.ProbMeasure.delta(su2, 1), [-1, 5])

    @pytest.mark.parametrize("ring_name, radii", [
        ("f2", range(1, 8)),  # windows from 5 to 4373 labels
        ("z6", (0, 1, 2, 3, 7)),  # saturates at radius 3
    ])
    def test_one_estimate_equals_separate_radii(self, request, ring_name, radii):
        ring = request.getfixturevalue(ring_name)
        mu = fk.ProbMeasure.uniform(ring, ring.generators)
        joint = fk.amenability_estimate(ring, mu, radii).entries
        single = [fk.amenability_estimate(ring, mu, [r]).entries[0] for r in radii]
        assert [(e.window_size, e.lambda_max) for e in joint] == \
            [(e.window_size, e.lambda_max) for e in single]

    def test_nonsymmetric_rejected(self, z1):
        with pytest.raises(fk.NonSymmetricMeasure):
            fk.amenability_estimate(z1, fk.ProbMeasure.delta(z1, 1), [2, 3])

    @pytest.mark.parametrize("name, radii", [
        ("f2", [1, 3, 6]), ("su2", [101, 301]), ("z2", [5, 12]),
        ("dsu2", [50, 100]), ("su2xz3", [4, 10]), ("su2xz3", [10, 40])])
    @pytest.mark.parametrize("prefilled", [False, True])
    def test_leaves_product_cache_unchanged(self, name, radii, prefilled):
        # the window search and the assembly read w * t and xi * eta
        # straight from the rule, since nothing reads them again; a tensor
        # ring reads the rules of its factors, so their caches stay as they
        # were too; the warm cache is a greedy search's
        factors = ()
        base = oracle_ring(name)[0]
        if name == "su2xz3":  # fresh factors, not the shared oracle's
            factors = (fk.build_su2_ring(), fk.cyclic_ring(3))
            base = fk.tensor_product(*factors)
        ring, _ = counting_ring(base)
        rings = (ring, *factors)
        mu = fk.ProbMeasure.uniform(ring, ring.generators)
        if prefilled:
            fk.foelner_search(ring, ring.generators, 0.01, strategy="greedy",
                              budget=10)
        before = [dict(r._cache) for r in rings]
        assert bool(before[0]) == prefilled
        assert not any(before[1:])
        fk.amenability_estimate(ring, mu, radii)
        assert [r._cache for r in rings] == before

    @pytest.mark.parametrize("prefilled", [False, True])
    def test_free_group_rule_evaluations(self, prefilled):
        # radii 1..9: the window search reads the 4 steps of each of the
        # 13,121 labels up to radius 8 (52,484) and the assembly A*eta and
        # B*eta for the 39,365 window labels (78,730), each once and
        # straight from the rule, so a cache a greedy search warmed saves
        # none of them
        ring, calls = counting_ring(fk.free_group_ring(2))
        mu = fk.ProbMeasure.uniform(ring, ring.generators)
        if prefilled:
            fk.foelner_search(ring, ring.generators, 0.01, strategy="greedy",
                              budget=30)
        before = dict(ring._cache)
        assert bool(before) == prefilled
        del calls[:]
        fk.amenability_estimate(ring, mu, range(1, 10))
        assert len(calls) == 131_214
        assert ring._cache == before

    @pytest.mark.parametrize("shape", RAW_SHAPES)
    @pytest.mark.parametrize("name, radii", [
        ("f2", [1, 3, 5]), ("su2", [30, 101]), ("z2", [4, 9]),
        ("dsu2", [30, 60]), ("su2xz3", [3, 8]), ("z6", [1, 9])])
    def test_raw_rule_shapes_change_nothing(self, name, radii, shape):
        # a rule in every raw shape: the plain ring's windows, operators (a
        # paired symmetric one, and l_xi for the least generator xi) and
        # estimates, to the bit, and nothing cached
        ring, S = oracle_ring(name)
        raw = raw_ring(ring, shape)

        def run(r):
            mu = fk.ProbMeasure.uniform(r, S)
            window = fk.spectral._build_window(
                r, set(S), radii[-1], fk.spectral.DEFAULT_WINDOW_CAP)
            ops = [fk.l_measure_operator(r, mu, window),
                   fk.l_operator(r, min(S), window)]
            entries = [(e.radius, e.window_size, e.lambda_max.hex(),
                        e.iterations)
                       for e in fk.amenability_estimate(r, mu, radii).entries]
            return (window.labels, window.level_sizes), ops, entries

        got, want = run(raw), run(ring)
        assert got[0] == want[0]
        for op, want_op in zip(got[1], want[1]):
            assert_bitwise_equal(op.matrix, want_op.matrix)
        assert got[2] == want[2]
        assert not raw._cache

    @pytest.mark.parametrize("name, radii", [
        ("f2", range(1, 8)), ("su2", [3, 600, 601]), ("z2", [0, 4, 16]),
        ("dsu2", [30, 300]), ("su2xz3", [1, 5, 12]), ("z6", [1, 9])])
    def test_equals_public_window_assembly_and_eigensolve(self, name, radii):
        ring = oracle_ring(name)[0]
        mu = fk.ProbMeasure.uniform(ring, ring.generators)
        got = fk.amenability_estimate(ring, mu, radii).entries
        want = []
        for radius in radii:
            window = fk.build_window(ring, sorted(mu.support), radius)
            est = fk.top_eigenvalue(fk.l_measure_operator(ring, mu, window))
            want.append((radius, len(window), est.value.hex(), est.method,
                         est.iterations))
        assert [(e.radius, e.window_size, e.lambda_max.hex(), e.method,
                 e.iterations) for e in got] == want

    def test_peak_traced_memory(self):
        # caching the window search's products made a 4.7 MB peak here
        # and kept 2.3 MB (7,285 entries) after the call
        warm = fk.free_group_ring(2)  # runs the Lanczos solver once first
        fk.amenability_estimate(warm, fk.ProbMeasure.uniform(warm, warm.generators), [6])
        ring = fk.free_group_ring(2)
        mu = fk.ProbMeasure.uniform(ring, ring.generators)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            report = fk.amenability_estimate(ring, mu, range(1, 8))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.entries[-1].window_size == 4373
        assert peak < 3_500_000
        assert retained - start < 100_000
        assert not ring._cache

    @pytest.mark.parametrize("bad", [
        {"radii": [None]}, {"radii": [math.nan]}, {"radii": [math.inf]},
        {"radii": [2.7]}, {"radii": [True]}, {"radii": [3, -1]},
        {"radii": ["2"]}, {"radii": 3},
        {"cap": None}, {"cap": 2.5}, {"cap": True}, {"cap": 0},
        {"tol": math.nan}, {"tol": math.inf}, {"tol": -math.inf},
        {"tol": 0.0}, {"tol": -1e-9}, {"tol": None}, {"tol": "1e-9"}],
        ids=lambda bad: ",".join(f"{k}={v!r}" for k, v in bad.items()))
    def test_invalid_inputs_rejected_before_any_product(self, bad):
        ring, calls = counting_ring(fk.free_group_ring(2))
        mu = fk.ProbMeasure.uniform(ring, ring.generators)
        with pytest.raises(fk.InvalidParam):
            fk.amenability_estimate(ring, mu, **{"radii": [1, 2], **bad})
        assert calls == [] and not ring._cache

    @pytest.mark.parametrize("tol", [10 ** 400, Fraction(10 ** 400, 3)],
                             ids=["10**400", "10**400/3"])
    def test_tol_past_the_float_range_reads_as_the_largest_float(self, f2, tol):
        mu = fk.ProbMeasure.uniform(f2, f2.generators)
        assert fk.amenability_estimate(f2, mu, [1, 2], tol=tol) == \
            fk.amenability_estimate(f2, mu, [1, 2], tol=sys.float_info.max)

    def test_integer_like_radii_and_cap(self, f2):
        mu = fk.ProbMeasure.uniform(f2, f2.generators)
        got = fk.amenability_estimate(f2, mu, (np.int64(2), 3), cap=np.int64(60))
        assert got == fk.amenability_estimate(f2, mu, [2, 3], cap=60)

    def test_monotone_entries(self, f2):
        mu = fk.ProbMeasure.uniform(f2, f2.generators)
        report = fk.amenability_estimate(f2, mu, [1, 2, 3, 4])
        values = [e.lambda_max for e in report.entries]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        assert report.note  # heuristic disclaimer present
