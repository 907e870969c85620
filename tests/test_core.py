import collections.abc
import contextlib
import functools
import inspect
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st

import fusionkit as fk
from conftest import (counting_ring, fibonacci_ring, label_counting_ring,
                      patched_ring, pool_for, random_integer_function,
                      random_real_function, reshape, reshaped_ring)

from oracles import direct_associativity, direct_frobenius, su2_product_oracle


class TestProductBasis:
    def test_su2_fundamental_square(self, su2):
        assert fk.product_basis(su2, 1, 1) == su2_product_oracle(1, 1) == {0: 1, 2: 1}

    def test_unit_axiom(self, su2, f2, z1):
        for ring, xi in ((su2, 5), (f2, "aB"), (z1, -7)):
            assert fk.product_basis(ring, ring.unit, xi) == {xi: 1}
            assert fk.product_basis(ring, xi, ring.unit) == {xi: 1}

    def test_free_group_inverse_pair(self, f2):
        assert fk.product_basis(f2, "a", "A") == {"": 1}

    def test_unknown_label(self, su2):
        with pytest.raises(fk.InvalidLabel):
            fk.product_basis(su2, -1, 0)

    def test_memoization_returns_equal_fresh_maps(self, su2):
        first = fk.product_basis(su2, 3, 4)
        first["junk"] = 99  # mutating a returned copy must not poison the cache
        again = fk.product_basis(su2, 3, 4)
        assert "junk" not in again
        assert again == su2_product_oracle(3, 4)

    def test_interleaved_calls_identical(self, su2, dsu2):
        a1 = fk.product_basis(su2, 2, 5)
        b1 = fk.product_basis(dsu2, 2, 5)
        a2 = fk.product_basis(su2, 2, 5)
        b2 = fk.product_basis(dsu2, 2, 5)
        assert a1 == a2 and b1 == b2


class TestMultiply:
    def test_su2_sum_times_basis(self, su2):
        x = fk.Element(su2, {1: 1, 2: 1})
        y = fk.Element(su2, {1: 1})
        assert fk.multiply(x, y).coeffs == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_unit_and_zero(self, su2):
        x = fk.Element(su2, {2: 3, 4: -1})
        one = fk.Element(su2, {0: 1})
        zero = fk.Element(su2, {})
        assert fk.multiply(x, one) == x
        assert fk.multiply(zero, x).coeffs == {}

    def test_ring_mismatch(self, su2, z1):
        with pytest.raises(fk.RingMismatch):
            fk.multiply(fk.Element(su2, {1: 1}), fk.Element(z1, {1: 1}))

    def test_exact_integer_arithmetic(self, su2):
        x = fk.Element(su2, {6: 10**12})
        y = fk.Element(su2, {6: 10**12})
        out = fk.multiply(x, y)
        assert out[0] == 10**24  # no float contamination


class TestConjugation:
    def test_su2_self_conjugate(self, su2):
        x = fk.Element(su2, {1: 2})
        assert fk.conjugate_element(x) == x

    def test_lattice_inverse(self, z1):
        assert fk.conjugate_element(fk.Element(z1, {3: 1})).coeffs == {-3: 1}

    def test_involution(self, f2):
        x = fk.Element(f2, {"ab": 2, "B": -1})
        assert fk.conjugate_element(fk.conjugate_element(x)) == x


class TestNaturalTrace:
    def test_su2_values(self, su2):
        x = fk.Element(su2, {1: 1})
        assert fk.natural_trace(fk.multiply(x, x)) == 1
        assert fk.natural_trace(fk.Element(su2, {0: 1})) == 1
        assert fk.natural_trace(x) == 0

    def test_trace_of_x_xbar_is_sum_of_squares(self, su2, f2, z6):
        rng = random.Random(7)
        for ring in (su2, f2, z6):
            pool = pool_for(ring, radius=3)
            for _ in range(25):
                x = random_integer_function(ring, rng, pool)
                value = fk.natural_trace(fk.multiply(x, fk.conjugate_element(x)))
                assert value == sum(k * k for k in x.coeffs.values())
                assert (value == 0) == (not x.coeffs)


class TestConvolve:
    def test_su2_fundamental(self, su2):
        d1 = fk.Element(su2, {1: 1.0})
        out = fk.convolve(d1, d1)
        assert out.coeffs == pytest.approx({0: 0.25, 2: 0.75})

    def test_unit_neutral(self, su2):
        g = fk.Element(su2, {2: 0.5, 3: 0.5})
        de = fk.Element(su2, {0: 1.0})
        out = fk.convolve(de, g)
        assert out.coeffs == pytest.approx(g.coeffs)

    def test_group_ring_translation(self, z1):
        d1 = fk.Element(z1, {1: 1.0})
        assert fk.convolve(d1, d1).coeffs == {2: 1.0}

    def test_probability_preserved(self, su2, dsu2, z2):
        rng = random.Random(11)
        for ring in (su2, dsu2, z2):
            pool = pool_for(ring, radius=3)
            for _ in range(10):
                f = _random_prob_element(ring, rng, pool)
                g = _random_prob_element(ring, rng, pool)
                out = fk.convolve(f, g)
                assert all(v > -1e-15 for v in out.coeffs.values())
                assert math.isclose(sum(out.coeffs.values()), 1.0, abs_tol=1e-12)

    def test_l1_submultiplicative(self, su2):
        rng = random.Random(13)
        pool = pool_for(su2, radius=4)
        for _ in range(20):
            f = random_real_function(su2, rng, pool)
            g = random_real_function(su2, rng, pool)
            out = fk.convolve(f, g)
            l1 = lambda e: sum(abs(v) for v in e.coeffs.values())
            assert l1(out) <= l1(f) * l1(g) + 1e-12

    def test_normalization_identity(self, su2, dsu2, f2):
        # sum_alpha d(alpha)/(d(xi) d(eta)) N(xi,eta->alpha) = 1
        rng = random.Random(17)
        for ring in (su2, dsu2, f2):
            pool = pool_for(ring, radius=4)
            for _ in range(20):
                xi, eta = rng.choice(pool), rng.choice(pool)
                total = sum(ring.dim(a) * n for a, n in ring.product(xi, eta).items())
                assert total == ring.dim(xi) * ring.dim(eta)


def _random_prob_element(ring, rng, pool):
    labels = rng.sample(pool, min(3, len(pool)))
    raw = [rng.uniform(0.1, 1.0) for _ in labels]
    total = sum(raw)
    return fk.Element(ring, {l: w / total for l, w in zip(labels, raw)})


class TestSubsetWeight:
    def test_su2_small(self, su2):
        assert fk.subset_weight(su2, {0, 1, 2}) == 14

    def test_empty(self, su2):
        assert fk.subset_weight(su2, set()) == 0

    def test_deformed(self, dsu2):
        assert fk.subset_weight(dsu2, {0, 1, 2}) == 1 + 9 + 64

    def test_fraction_sigmas_stay_exact(self):
        ring = fk.FusionRing(unit=0, product_rule=lambda x, y: {(x + y) % 3: 1},
                             conjugate_rule=lambda x: (-x) % 3,
                             dim_rule=lambda x: Fraction(x + 1, 2),
                             is_label=lambda x: x in (0, 1, 2))
        assert fk.subset_weight(ring, [0, 1, 2]) == Fraction(1 + 4 + 9, 4)

    def test_float_weight_independent_of_hash_seed(self):
        # 36 str-labelled pairs with float sigma; their set order follows
        # PYTHONHASHSEED, and a left-to-right float sum follows the order
        code = ("import fusionkit as fk\n"
                "from conftest import fibonacci_ring\n"
                "ring = fk.tensor_product(fibonacci_ring(), fk.integer_lattice_ring(1))\n"
                "window = fk.build_window(ring, ring.generators, 9)\n"
                "print(repr(fk.subset_weight(ring, window.labels)))\n")
        path = os.pathsep.join([os.path.dirname(os.path.dirname(fk.__file__)),
                                os.path.dirname(__file__)])
        outputs = set()
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            outputs.add(subprocess.run([sys.executable, "-c", code], env=env,
                                       capture_output=True, text=True,
                                       check=True).stdout)
        ring = fk.tensor_product(fibonacci_ring(), fk.integer_lattice_ring(1))
        window = fk.build_window(ring, ring.generators, 9)
        assert outputs == {repr(fk.subset_weight(ring, window.labels)) + "\n"}


class TestProbMeasure:
    def test_sum_must_be_one(self, su2):
        with pytest.raises(fk.InvalidParam):
            fk.ProbMeasure(su2, {0: 0.5, 1: 0.4})

    def test_weights_in_unit_interval(self, su2):
        with pytest.raises(fk.InvalidParam):
            fk.ProbMeasure(su2, {0: 0.0, 1: 1.0})

    def test_empty_rejected(self, su2):
        with pytest.raises(fk.InvalidParam):
            fk.ProbMeasure(su2, {})

    @pytest.mark.parametrize("weight", ["abc", None, 1j, [0.5], 10 ** 400])
    def test_weight_must_be_a_real_number(self, su2, weight):
        with pytest.raises(fk.InvalidParam, match="not a number in"):
            fk.ProbMeasure(su2, {1: weight})

    @pytest.mark.parametrize("weight", ["1", b"1", True])
    def test_weight_that_converts_is_no_number(self, su2, weight):
        # float() reads each of these as 1.0, but none is a weight
        with pytest.raises(fk.InvalidParam, match="not a number in"):
            fk.ProbMeasure(su2, {0: weight})

    def test_symmetry_computed(self, z1):
        assert not fk.ProbMeasure.delta(z1, 1).symmetric
        assert fk.ProbMeasure.uniform(z1, [1, -1]).symmetric
        assert fk.ProbMeasure.delta(z1, 0).symmetric

    def test_uniform_checks_each_label_once(self, f2):
        ring, asked = label_counting_ring(f2)
        mu = fk.ProbMeasure.uniform(ring, ring.generators)
        assert sorted(asked) == sorted(f2.generators)
        assert list(mu.weights.items()) == [(x, 0.25) for x in sorted(f2.generators)]
        assert mu.symmetric


class TestVerifyAxioms:
    def test_su2_window_passes(self, su2):
        report = fk.verify_axioms(su2, range(9))
        assert report.passed
        assert [c.name for c in report.checks] == list(fk.core.AXIOM_NAMES)

    def test_f2_ball_passes(self, f2):
        window = fk.build_window(f2, f2.generators, 3)
        assert fk.verify_axioms(f2, window).passed

    @pytest.mark.parametrize("name", ["su2", "f2", "su2xz3"])
    def test_checks_each_label_at_most_twice(self, name):
        # the window labels at the door, and each label a rule returns
        # once (checking every read of a rule output asked 5,262 times
        # for the 61 labels of SU(2) radius 30)
        base, radius = {"su2": (fk.build_su2_ring(), 30),
                        "f2": (fk.free_group_ring(2), 2),
                        "su2xz3": (fk.tensor_product(fk.build_su2_ring(),
                                                     fk.cyclic_ring(3)), 3)}[name]
        ring, asked = label_counting_ring(base)
        window = fk.build_window(base, base.generators, radius)
        assert fk.verify_axioms(ring, window).passed
        assert asked[:len(window)] == list(window.labels)
        assert max(collections.Counter(asked).values()) <= 2
        if name == "su2":
            assert sorted(asked) == list(range(61))

    def test_leaves_the_product_cache_as_it_found_it(self, su2):
        ring, calls = counting_ring(su2)
        window = fk.build_window(ring, (1,), 10)
        # a public window caches nothing, so a greedy search warms the cache
        fk.foelner_search(ring, (1,), 0.5, strategy="greedy", budget=10)
        cached = dict(ring._cache)
        assert cached
        assert fk.verify_axioms(ring, window).passed
        assert ring._cache == cached

    @pytest.mark.parametrize("conj, bad_term", [
        ({1: 5}, None), ({1: [1]}, None), ({}, 3)])
    def test_rule_returning_a_non_label_raises(self, conj, bad_term):
        # Z/3 rules on the labels 0..2, with conj(1) or the term of 1*2
        # moved off the labels
        def product_rule(x, y):
            if bad_term is not None and (x, y) == (1, 2):
                return {bad_term: 1}
            return {(x + y) % 3: 1}

        ring = fk.FusionRing(unit=0, product_rule=product_rule,
                             conjugate_rule=lambda x: conj.get(x, -x % 3),
                             dim_rule=lambda x: 1,
                             is_label=lambda x: x in (0, 1, 2))
        with pytest.raises(fk.InvalidLabel):
            fk.verify_axioms(ring, [0, 1, 2])

    def test_unhashable_conjugate_behind_a_failing_involution_raises(self):
        # conj(conj(1)) = [2] fails the involution check at 1, so that check
        # never reaches the conjugate of 2; it is checked before any axiom
        conj = {1: 2, 2: [2]}
        ring = fk.FusionRing(unit=0, product_rule=lambda x, y: {(x + y) % 3: 1},
                             conjugate_rule=lambda x: conj.get(x, x),
                             dim_rule=lambda x: 1,
                             is_label=lambda x: x in (0, 1, 2))
        with pytest.raises(fk.InvalidLabel, match=r"\[2\]"):
            fk.verify_axioms(ring, [0, 1, 2])

    def test_broken_involution_reported(self):
        ring = fk.FusionRing(
            unit=0,
            product_rule=lambda x, y: {(x + y) % 3: 1},
            conjugate_rule=lambda x: (x + 1) % 3 if x else 0,
            dim_rule=lambda x: 1,
            description="broken conjugation",
            is_label=lambda x: x in (0, 1, 2),
        )
        report = fk.verify_axioms(ring, [0, 1, 2])
        assert not report.passed
        failed = {c.name for c in report.failures()}
        assert "involution" in failed
        assert report.failures()[0].counterexample

    def test_broken_frobenius_reported(self):
        ring = fk.FusionRing(
            unit=0,
            product_rule=lambda x, y: {(x + y) % 3: 1},
            conjugate_rule=lambda x: x,  # identity is an involution but wrong here
            dim_rule=lambda x: 1,
            description="broken frobenius",
            is_label=lambda x: x in (0, 1, 2),
        )
        report = fk.verify_axioms(ring, [0, 1, 2])
        assert not report.passed
        assert {c.name for c in report.failures()} == {"frobenius_reciprocity"}

    def test_incomplete_table_propagates(self):
        table = {(0, 0): {0: 1}}  # everything else missing

        def rule(x, y):
            try:
                return table[(x, y)]
            except KeyError:
                raise fk.IncompleteTable(f"no entry for ({x}, {y})")

        ring = fk.FusionRing(unit=0, product_rule=rule,
                             conjugate_rule=lambda x: x, dim_rule=lambda x: 1,
                             is_label=lambda x: x in (0, 1))
        with pytest.raises(fk.IncompleteTable):
            fk.verify_axioms(ring, [0, 1])

    def test_window_must_contain_unit(self, su2):
        with pytest.raises(fk.InvalidParam):
            fk.verify_axioms(su2, [1, 2])

    def test_missing_product_raises_after_a_failing_triple(self):
        # (1*1)*1 != 1*(1*1) fails before the triple loop would need 1*3,
        # but every product the check reads is read before any comparison
        table = {(1, 1): {2: 1}, (1, 2): {1: 1}, (2, 1): {0: 1}, (2, 2): {3: 1}}

        def rule(x, y):
            if x == 0 or y == 0:
                return {x + y: 1}
            try:
                return table[(x, y)]
            except KeyError:
                raise fk.IncompleteTable(f"no entry for ({x}, {y})")

        ring = fk.FusionRing(unit=0, product_rule=rule,
                             conjugate_rule=lambda x: x, dim_rule=lambda x: 1,
                             is_label=lambda x: x in (0, 1, 2, 3))
        assert direct_associativity(ring, [0, 1, 2]) == "(1*1)*1 != 1*(1*1)"
        with pytest.raises(fk.IncompleteTable):
            fk.verify_axioms(ring, [0, 1, 2])

    def test_missing_product_of_a_later_block_raises_nothing(self):
        # associativity stops at its first failing block (xi = 1): block 2
        # would read 2*3, which is missing, but it never runs
        table = {(1, 1): {2: 1}, (1, 2): {1: 1}, (2, 1): {0: 1},
                 (2, 2): {3: 1}, (1, 3): {2: 1}}
        calls = []

        def rule(x, y):
            calls.append((x, y))
            if x == 0 or y == 0:
                return {x + y: 1}
            try:
                return table[(x, y)]
            except KeyError:
                raise fk.IncompleteTable(f"no entry for ({x}, {y})")

        ring = fk.FusionRing(unit=0, product_rule=rule,
                             conjugate_rule=lambda x: x, dim_rule=lambda x: 1,
                             is_label=lambda x: x in (0, 1, 2, 3))
        checks = {c.name: c for c in fk.verify_axioms(ring, [0, 1, 2]).checks}
        assert checks["associativity"].counterexample == "(1*1)*1 != 1*(1*1)"
        assert (1, 3) in calls and (2, 3) not in calls
        assert direct_associativity(ring, [0, 1, 2]) == "(1*1)*1 != 1*(1*1)"

    def test_su2_radius_30_rule_evaluations(self):
        calls = []

        def rule(m, n):
            calls.append((m, n))
            return fk.catalog._su2_product(m, n)

        ring = fk.FusionRing(unit=0, product_rule=rule,
                             conjugate_rule=lambda k: k, dim_rule=lambda k: k + 1,
                             is_label=fk.catalog._su2_is_label)
        window = fk.build_window(ring, (1,), 30)
        calls.clear()
        assert fk.verify_axioms(ring, window).passed
        # the n**3 triple loop made 162,101 rule evaluations here, and
        # blocks that re-read their second-stage products 16,246; the 30
        # products w * 1 (w < 30) the window search read are read again,
        # since a public window no longer caches them (2,791 when it did)
        assert len(calls) == 2_821

    @pytest.mark.parametrize("name", ["su2", "dsu2"])
    def test_radius_30_reads_each_product_once(self, name):
        base = {"su2": fk.build_su2_ring,
                "dsu2": lambda: fk.build_deformed_su2_ring(3)}[name]()
        calls = collections.Counter()

        def rule(x, y):
            calls[(x, y)] += 1
            return base._product_rule(x, y)

        ring = fk.FusionRing(unit=base.unit, product_rule=rule,
                             conjugate_rule=base.conj, dim_rule=base.dim,
                             is_label=base.contains)
        window = fk.build_window(ring, base.generators, 30)
        calls.clear()  # the window search's reads: nothing caches them
        assert fk.verify_axioms(ring, window).passed
        assert max(calls.values()) == 1

    @pytest.mark.parametrize("name,radius,distinct", [
        ("f2", 3, 151_633), ("z2", 6, 45_985), ("su2xz3", 6, 1_045)])
    def test_each_product_read_once(self, name, radius, distinct):
        # row groups are kept by next use: none is evicted on these
        # windows, so no block reads a product an earlier block read
        base = {"f2": lambda: fk.free_group_ring(2),
                "z2": lambda: fk.integer_lattice_ring(2),
                "su2xz3": lambda: fk.tensor_product(fk.build_su2_ring(),
                                                    fk.cyclic_ring(3))}[name]()
        ring, calls = counting_ring(base)
        window = fk.build_window(ring, base.generators, radius)
        calls.clear()
        assert fk.verify_axioms(ring, window).passed
        reads = collections.Counter(calls)
        assert max(reads.values()) == 1 and len(reads) == distinct

    @pytest.mark.parametrize("how", ["library", "cli"])
    def test_axioms_leave_numpy_ma_unloaded(self, how, tmp_path):
        # associativity finds its supports and columns with boolean masks;
        # np.unique would import numpy.ma
        path = tmp_path / "free2.json"
        fk.save_ring({"type": "builtin", "name": "free", "params": {"rank": 2}},
                     path)
        run = {"library": (
            "for ring, radius in ((fk.build_su2_ring(), 30),\n"
            "                     (fk.free_group_ring(2), 3)):\n"
            "    window = fk.build_window(ring, ring.generators, radius)\n"
            "    assert fk.verify_axioms(ring, window).passed\n"),
            "cli": f"assert main(['axioms', {str(path)!r}, '--radius', '3']) == 0\n"}
        code = ("import sys\n"
                "import fusionkit as fk\n"
                "from fusionkit.cli import main\n"
                + run[how] + "print('numpy.ma' in sys.modules)\n")
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(fk.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.splitlines()[-1] == "False"

    @pytest.mark.parametrize("name,radius", [("su2", 30), ("f2", 3), ("z2", 6)])
    def test_peak_traced_memory(self, name, radius):
        ring = {"su2": fk.build_su2_ring, "f2": lambda: fk.free_group_ring(2),
                "z2": lambda: fk.integer_lattice_ring(2)}[name]()
        assert traced_peak(ring, fk.build_window(ring, ring.generators, radius)) \
            < 4_000_000

    def test_z2_radius_6_holds_its_products_as_arrays(self):
        # 2.29 MB: the window products live in int64 arrays alone; one
        # dict per product made 3.78 MB
        ring = fk.integer_lattice_ring(2)
        assert traced_peak(ring, fk.build_window(ring, ring.generators, 6)) < 3_000_000

    @pytest.mark.parametrize("coefficient,structure,associativity", [
        (0.5, "N(1,1->2) = 0.5",
         "N(1,1->2) = 0.5: only int coefficients are checked exactly"),
        (True, None, "N(1,1->2) = True: only int coefficients are checked exactly"),
        (-1, "N(1,1->2) = -1", "(1*1)*2 != 1*(1*2)"),
        (2 ** 32, None,
         "N(1,1->2) = 4294967296: too large for exact int64 sums over 3 labels"),
    ])
    def test_coefficient_outside_int64_exactness(self, coefficient, structure,
                                                 associativity):
        ring = patched_ring(fk.cyclic_ring(3), {(1, 1): {2: coefficient}})
        checks = {c.name: c for c in fk.verify_axioms(ring, [0, 1, 2]).checks}
        assert checks["structure_constants"].counterexample == structure
        assert not checks["associativity"].passed
        assert checks["associativity"].counterexample == associativity
        if coefficient == -1:  # exact in int64: the triple loop agrees
            assert direct_associativity(ring, [0, 1, 2]) == associativity
        frobenius = checks["frobenius_reciprocity"]
        expected = direct_frobenius(ring, [0, 1, 2])
        assert (frobenius.passed, frobenius.counterexample) == (expected is None, expected)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["su2", "z6", "f2", "su2xz3", "z5", "z"]), st.data())
    def test_mutated_product_matches_triple_loops(self, name, data):
        base, window, pool = axiom_window(name)
        pick = st.one_of(st.sampled_from(window), st.sampled_from(pool))
        x, y = data.draw(pick), data.draw(pick)
        product = base.product(x, y)
        if data.draw(st.booleans()):
            label = data.draw(st.sampled_from(list(product)))
        else:
            label = data.draw(st.sampled_from([l for l in pool if l not in product]))
        product[label] = product.get(label, 0) + data.draw(st.integers(1, 2))
        ring = patched_ring(base, {(x, y): product})
        checks = {c.name: c for c in fk.verify_axioms(ring, window).checks}
        for check, oracle in (("frobenius_reciprocity", direct_frobenius),
                              ("associativity", direct_associativity)):
            expected = oracle(ring, window)
            assert (checks[check].passed, checks[check].counterexample) == \
                (expected is None, expected)

    @pytest.mark.parametrize("name,x,y", [("su2", 2, 1), ("su2", 3, 2),
                                          ("z6", 1, 2), ("f2", "a", "b")])
    def test_mutation_fails_in_a_block_with_carried_rows(self, name, x, y):
        # the failing block keeps row groups from the block before it,
        # among them the mutated product's, which is read there first
        base, window, _ = axiom_window(name)
        product = base.product(x, y)
        label = min(product, key=repr)
        product[label] += 1
        ring = patched_ring(base, {(x, y): product})
        checks = {c.name: c for c in fk.verify_axioms(ring, window).checks}
        expected = direct_associativity(ring, window)
        assert checks["associativity"].counterexample == expected
        failing = next(i for i, xi in enumerate(window)
                       if expected.startswith(f"({base.format_label(xi)}*"))
        assert failing > 0

        def support(xi):
            return {b for eta in window for b in base.product(xi, eta)}

        assert x in support(window[failing - 1]) & support(window[failing])


def traced_peak(ring, window) -> int:
    """The peak traced memory of ``verify_axioms`` on a passing window."""
    tracemalloc.start()
    try:
        assert fk.verify_axioms(ring, window).passed
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _z3_with(**rules):
    ring = fk.FusionRing(**{"unit": 0,
                            "product_rule": lambda x, y: {(x + y) % 3: 1},
                            "conjugate_rule": lambda x: -x % 3,
                            "dim_rule": lambda x: 1,
                            "is_label": lambda x: x in (0, 1, 2)} | rules)
    return ring, [0, 1, 2]


def _mutated(name, x, y):
    base, window, _ = axiom_window(name)
    product = base.product(x, y)
    product[min(product, key=repr)] += 1
    return patched_ring(base, {(x, y): product}), window


def _table_ring(table):
    # the ring of a {(x, y): z} table of Z/3 labels, not verified
    return fk.FusionRing(unit=0, product_rule=lambda x, y: {table[(x, y)]: 1},
                         conjugate_rule=lambda x: -x % 3, dim_rule=lambda x: 1,
                         is_label=lambda x: x in (0, 1, 2)), [0, 1, 2]


#: rings and windows whose reports must not depend on the type of the
#: rule's maps: passing windows, and the failing cases of the tests above
REPORT_CASES = {
    "su2-r30": lambda: (fk.build_su2_ring(),
                        fk.build_window(fk.build_su2_ring(), (1,), 30)),
    "f2-r2": lambda: (fk.free_group_ring(2),
                      fk.build_window(fk.free_group_ring(2), ("a", "b"), 2)),
    "dsu2-r6": lambda: (fk.build_deformed_su2_ring(3),
                        fk.build_window(fk.build_deformed_su2_ring(3), (1,), 6)),
    "broken-involution": lambda: _z3_with(
        conjugate_rule=lambda x: (x + 1) % 3 if x else 0),
    "broken-frobenius": lambda: _z3_with(conjugate_rule=lambda x: x),
    "table-frobenius": lambda: _table_ring(
        {(0, x): x for x in range(3)} | {(x, 0): x for x in range(3)}
        | {(1, 1): 2, (1, 2): 0, (2, 1): 0, (2, 2): 2}),
    **{f"coefficient-{c!r}": functools.partial(
        lambda c: (patched_ring(fk.cyclic_ring(3), {(1, 1): {2: c}}), [0, 1, 2]), c)
       for c in (0.5, True, -1, 2 ** 32)},
    **{f"mutated-{name}-{x}-{y}": functools.partial(_mutated, name, x, y)
       for name, x, y in (("su2", 2, 1), ("z6", 1, 2), ("f2", "a", "b"),
                          ("z5", 4, 1), ("z", 2, -1))},
    # windows with conjugates outside them, intact and, above, mutated in
    # a product that Frobenius reciprocity reads from the rule
    **{f"outside-{name}": functools.partial(
        lambda name: axiom_window(name)[:2], name) for name in ("z5", "z")},
}


@functools.cache
def axiom_window(name):
    """A ring, a window of it for the axiom checks, and a larger label pool.
    The windows of Z/5 and Z leave out the conjugates of some labels."""
    if name in ("z5", "z"):
        ring = fk.cyclic_ring(5) if name == "z5" else fk.integer_lattice_ring(1)
        return ring, [0, 1, 2] if name == "z5" else [0, 1, 2, 3, 4], pool_for(ring, 5)
    ring, radius = {"su2": (fk.build_su2_ring(), 4),
                    "z6": (fk.cyclic_ring(6), 2),
                    "f2": (fk.free_group_ring(2), 2),
                    "su2xz3": (fk.tensor_product(fk.build_su2_ring(),
                                                 fk.cyclic_ring(3)), 2)}[name]
    return ring, pool_for(ring, radius), pool_for(ring, radius + 1)


class TestVerifyAxiomsRuleReads:
    def test_f2_radius_3_rule_evaluations(self):
        # window products and the second-stage products of the
        # associativity blocks, each read straight from the rule and once:
        # 151,633 distinct products (191,224 when a block kept only the
        # row groups the next block shares, and re-read the others)
        ring, calls = counting_ring(fk.free_group_ring(2))
        window = fk.build_window(ring, ring.generators, 3)
        calls.clear()
        assert fk.verify_axioms(ring, window).passed
        assert len(calls) == 151_633

    def test_repeated_labels_read_their_products_once(self, su2):
        # 21 rule reads: the 9 window products and the 12 second-stage
        # products of associativity (probing every pair of list positions
        # made 37 for the repeated window)
        reads, reports = [], []
        for window in ([0, 1, 2], [0, 1, 1, 2, 2]):
            ring, calls = counting_ring(su2)
            reports.append(fk.verify_axioms(ring, window).checks)
            reads.append(calls)
        assert len(reads[0]) == 21 and reads[1] == reads[0]
        assert reports[1] == reports[0]

    @pytest.mark.parametrize("case", sorted(REPORT_CASES))
    def test_doubled_labels_change_no_read_and_no_check(self, case):
        # each label listed twice, next to itself
        base, window = REPORT_CASES[case]()
        labels = list(getattr(window, "labels", window))
        reads, reports = [], []
        for listed in (labels, [x for x in labels for _ in range(2)]):
            ring, calls = counting_ring(base)
            reports.append(fk.verify_axioms(ring, listed).checks)
            reads.append(calls)
        assert reads[1] == reads[0]
        assert reports[1] == reports[0]

    @pytest.mark.parametrize("shape", ["counter", "proxy", "zeros"])
    @pytest.mark.parametrize("case", sorted(REPORT_CASES))
    def test_report_does_not_depend_on_the_mapping_type(self, case, shape):
        ring, window = REPORT_CASES[case]()
        expected = fk.verify_axioms(ring, window)
        assert fk.verify_axioms(reshaped_ring(ring, shape), window) == expected

    def test_mixed_mapping_types_across_chunks(self, monkeypatch):
        # chunks of 7 products, in which plain dicts, Counters, proxies
        # and maps with explicit zeros alternate
        base = fk.free_group_ring(2)
        window = fk.build_window(base, base.generators, 2)
        shapes = itertools.cycle(["plain", "counter", "plain", "proxy", "zeros"])

        def rule(x, y):
            return reshape(base._product_rule(x, y), next(shapes), (x, y))

        ring = fk.FusionRing(unit=base.unit, product_rule=rule,
                             conjugate_rule=base._conjugate_rule,
                             dim_rule=base._dim_rule, is_label=base._is_label,
                             description=base.description,
                             format_label=base.format_label)
        expected = fk.verify_axioms(base, window)
        monkeypatch.setattr(fk.core, "_CHUNK", 7)
        assert fk.verify_axioms(ring, window) == expected


#: associativity settings: the default choice per block, every block in
#: dense float64 products (when they are exact) or by sorted int64 keys,
#: and each of the two in chunks of one zeta (dense) or one eta (sorted)
ACCUMULATORS = {
    "default": {},
    "dense": {"_DENSE_CELLS_PER_TERM": 10 ** 12},
    "dense-by-zeta": {"_DENSE_CELLS_PER_TERM": 10 ** 12, "_BLOCK_CHUNK": 1},
    "sorted": {"_DENSE_CELLS_PER_TERM": 0},
    "sorted-by-eta": {"_DENSE_CELLS_PER_TERM": 0, "_BLOCK_CHUNK": 1},
}


@contextlib.contextmanager
def accumulator(name):
    """The associativity setting ``name``, and a count of the blocks each
    accumulator compares under it."""
    blocks = collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        for attr, value in ACCUMULATORS[name].items():
            mp.setattr(fk.core, attr, value)
        for which in ("dense", "sorted"):
            compare = getattr(fk.core, f"_{which}_difference")

            def spy(*args, _compare=compare, _which=which):
                blocks[_which] += 1
                return _compare(*args)

            mp.setattr(fk.core, f"_{which}_difference", spy)
        yield blocks


def _sum_beyond_float_ring():
    # the sides of (1*1)*2 = 1*(1*2) at label 1 are A**2 + 1 and A**2 with
    # A = 2**27: one apart, but the same float64
    A = 2 ** 27
    table = {(1, 1): {1: A, 2: 1}, (1, 2): {1: A}, (2, 1): {1: A},
             (2, 2): {1: 1, 2: A}}

    def rule(x, y):
        return {x + y: 1} if 0 in (x, y) else dict(table[(x, y)])

    ring = fk.FusionRing(unit=0, product_rule=rule, conjugate_rule=lambda x: x,
                         dim_rule=lambda x: 1, is_label=lambda x: x in (0, 1, 2))
    return ring, [0, 1, 2]


class TestAssociativityAccumulators:
    @pytest.mark.parametrize("how", sorted(ACCUMULATORS))
    @pytest.mark.parametrize("case", sorted(REPORT_CASES))
    def test_same_report(self, case, how):
        ring, window = REPORT_CASES[case]()
        expected = fk.verify_axioms(ring, window)
        with accumulator(how) as blocks:
            assert fk.verify_axioms(ring, window) == expected
        if how != "default":
            assert not blocks["sorted" if how.startswith("dense") else "dense"]
        # the coefficients int64 cannot sum stop associativity before a block
        assert bool(blocks) != case.startswith(
            ("coefficient-0.5", "coefficient-True", "coefficient-4294967296"))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["su2", "z6", "f2", "su2xz3"]), st.data())
    def test_mutated_product_matches_the_triple_loop(self, name, data):
        base, window, pool = axiom_window(name)
        pick = st.one_of(st.sampled_from(window), st.sampled_from(pool))
        x, y = data.draw(pick), data.draw(pick)
        product = base.product(x, y)
        label = data.draw(st.sampled_from(sorted({*product, *pool}, key=repr)))
        product[label] = product.get(label, 0) + data.draw(st.integers(1, 2))
        ring = patched_ring(base, {(x, y): product})
        expected = direct_associativity(ring, window)
        for how in ACCUMULATORS:
            with accumulator(how):
                checks = {c.name: c for c in fk.verify_axioms(ring, window).checks}
            assert checks["associativity"].counterexample == expected

    @pytest.mark.parametrize("how", sorted(ACCUMULATORS))
    @pytest.mark.parametrize("name,x,y", [("su2", 2, 1), ("su2", 3, 2),
                                          ("z6", 1, 2), ("f2", "a", "b")])
    def test_mutation_in_a_block_with_carried_rows(self, name, x, y, how):
        ring, window = _mutated(name, x, y)
        with accumulator(how):
            checks = {c.name: c for c in fk.verify_axioms(ring, window).checks}
        assert checks["associativity"].counterexample == \
            direct_associativity(ring, window)

    @pytest.mark.parametrize("how", sorted(ACCUMULATORS))
    def test_first_row_across_zeta_chunks(self, how):
        # 0*3 reads {3: 2}: the first failing triple has zeta = 3, and
        # taken one zeta at a time, failing rows with a later eta and an
        # earlier zeta, such as (0*2)*1, come first
        ring, window = _mutated("su2", 0, 3)
        with accumulator(how):
            checks = {c.name: c for c in fk.verify_axioms(ring, window).checks}
        assert checks["associativity"].counterexample == \
            direct_associativity(ring, window) == "(0*0)*3 != 0*(0*3)"

    @pytest.mark.parametrize("how", sorted(ACCUMULATORS))
    def test_sums_beyond_float64_differ_by_one(self, how):
        ring, window = _sum_beyond_float_ring()
        assert float(2 ** 54 + 1) == float(2 ** 54)
        with accumulator(how) as blocks:
            checks = {c.name: c for c in fk.verify_axioms(ring, window).checks}
        assert checks["associativity"].counterexample == \
            direct_associativity(ring, window) == "(1*1)*2 != 1*(1*2)"
        assert not blocks["dense"]  # no float64 sum is exact here

    @pytest.mark.parametrize("name,radius,which", [("su2", 30, "dense"),
                                                   ("f2", 3, "sorted")])
    def test_default_choice(self, name, radius, which):
        # SU(2) blocks have about one term per result cell, F2 blocks
        # thousands of cells per term
        ring = {"su2": fk.build_su2_ring, "f2": lambda: fk.free_group_ring(2)}[name]()
        window = fk.build_window(ring, ring.generators, radius)
        with accumulator("default") as blocks:
            assert fk.verify_axioms(ring, window).passed
        assert blocks == {which: len(window)}


@contextlib.contextmanager
def retention(terms):
    """Associativity keeping at most ``terms`` row-group terms between
    blocks beyond the groups the next block uses; at 0 a block reads every
    group that the block before it did not use."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fk.core, "_BLOCK_CHUNK", terms)
        yield


def associativity_reads(base, window, terms=None):
    """The rule evaluations of ``verify_axioms`` on a cold copy of
    ``base``, at retention ``terms`` (None: the default)."""
    ring, calls = counting_ring(base)
    with retention(terms) if terms is not None else contextlib.nullcontext():
        fk.verify_axioms(ring, window)
    return len(calls)


class TestRowGroupEviction:
    def test_f2_radius_3_re_reads_only_evicted_groups(self):
        ring = fk.free_group_ring(2)
        window = fk.build_window(ring, ring.generators, 3)
        reads = {terms: associativity_reads(ring, window, terms)
                 for terms in (0, 5_000)}
        assert reads[0] == 191_224  # every group the next block drops
        assert 151_633 < reads[5_000] < reads[0]

    @pytest.mark.parametrize("name, radius, terms, reads", [
        ("f2", 3, 64, 190_535), ("f2", 3, 200, 189_157), ("f2", 3, 1_000, 181_207),
        ("z2", 6, 200, 252_110), ("z2", 6, 1_000, 209_865), ("z2", 6, 5_000, 93_415)])
    def test_spare_budget_goes_to_groups_read_from_the_rule(
            self, name, radius, terms, reads):
        # a window beta's group is read again from the window table, so the
        # spares beyond the next block's groups are those of the other
        # betas first; by next use alone these read 191,224, 191,224,
        # 185,977, 262,480, 257,380 and 147,475 products
        ring = {"f2": lambda: fk.free_group_ring(2),
                "z2": lambda: fk.integer_lattice_ring(2)}[name]()
        window = fk.build_window(ring, ring.generators, radius)
        assert associativity_reads(ring, window, terms) == reads

    @pytest.mark.parametrize("terms", [7, 64])
    @pytest.mark.parametrize("case", sorted(REPORT_CASES))
    def test_same_report_and_no_more_reads(self, case, terms):
        ring, window = REPORT_CASES[case]()
        expected = fk.verify_axioms(ring, window)
        with retention(terms):
            assert fk.verify_axioms(ring, window) == expected
        most = associativity_reads(ring, window, 0)
        assert associativity_reads(ring, window, terms) <= most
        assert associativity_reads(ring, window) <= most

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["su2", "z6", "f2", "su2xz3"]), st.data())
    def test_mutated_product_matches_the_triple_loop(self, name, data):
        base, window, pool = axiom_window(name)
        pick = st.one_of(st.sampled_from(window), st.sampled_from(pool))
        x, y = data.draw(pick), data.draw(pick)
        product = base.product(x, y)
        label = data.draw(st.sampled_from(sorted({*product, *pool}, key=repr)))
        product[label] = product.get(label, 0) + data.draw(st.integers(1, 2))
        ring = patched_ring(base, {(x, y): product})
        expected = direct_associativity(ring, window)
        most = associativity_reads(ring, window, 0)
        for terms in (7, 64):
            with retention(terms):
                checks = {c.name: c for c in fk.verify_axioms(ring, window).checks}
            assert checks["associativity"].counterexample == expected
            assert associativity_reads(ring, window, terms) <= most


class TestElementBasics:
    def test_zero_coefficients_dropped(self, su2):
        x = fk.Element(su2, {0: 1, 1: 0, 2: 0.0})
        assert set(x.support) == {0}

    def test_invalid_label_rejected(self, su2):
        with pytest.raises(fk.InvalidLabel):
            fk.Element(su2, {-3: 1})

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_coefficient_refused(self, su2, flag):
        # bool is a numbers.Number, but no coefficient
        with pytest.raises(fk.InvalidParam, match="^coefficient must be a "
                           "Number, not bool$"):
            fk.Element(su2, {0: flag, 1: 2})

    def test_arithmetic(self, su2):
        x = fk.Element(su2, {1: 2})
        y = fk.Element(su2, {1: -2, 3: 1})
        assert (x + y).coeffs == {3: 1}
        assert (x - x).coeffs == {}
        assert (2 * x).coeffs == {1: 4}

    def test_arithmetic_asks_no_label_rule(self, su2):
        # operands were checked when they were built, and so were the
        # labels read off their products: no result is checked again
        ring, asked = label_counting_ring(su2)
        x = fk.Element(ring, {1: 2, 2: 1})
        y = fk.Element(ring, {1: -2, 3: 1})
        del asked[:]
        results = [x + y, x - y, -x, x * 3, 0.5 * x, x * y,
                   fk.convolve(x, y), fk.conjugate_element(y),
                   fk.ProbMeasure.uniform(ring, [0]).as_element()]
        assert asked == [0]  # the one door of uniform
        assert [r.coeffs for r in results[:5]] == [
            {2: 1, 3: 1}, {1: 4, 2: 1, 3: -1}, {1: -2, 2: -1},
            {1: 6, 2: 3}, {1: 1.0, 2: 0.5}]
        assert results[5].coeffs == {0: -4, 1: -1, 2: -2, 3: -1, 4: 2, 5: 1}


class PairMapping(collections.abc.Mapping):
    """A mapping over (key, value) pairs that never hashes its keys, so an
    unhashable value can be passed where a mapping of labels is taken."""

    def __init__(self, pairs):
        self._pairs = list(pairs)

    def __getitem__(self, key):
        for k, v in self._pairs:
            if k == key:
                return v
        raise KeyError(key)

    def __iter__(self):
        return (k for k, _ in self._pairs)

    def __len__(self):
        return len(self._pairs)


# every public entry that takes labels checks them there, before anything
# hashes them: the rule oracle behind it trusts the labels it is given
LABEL_ENTRIES = {
    "product_left": lambda ring, bad, ctx: ring.product(bad, ring.unit),
    "product_right": lambda ring, bad, ctx: ring.product(ring.unit, bad),
    "product_basis": lambda ring, bad, ctx: fk.product_basis(ring, ring.unit, bad),
    "element": lambda ring, bad, ctx: fk.Element(
        ring, PairMapping([(ring.unit, 1), (bad, 2)])),
    "element_pairs": lambda ring, bad, ctx: fk.Element(
        ring, [(ring.unit, 1), (bad, 2)]),
    "element_zero": lambda ring, bad, ctx: fk.Element(ring, [(bad, 0)]),
    "indicator": lambda ring, bad, ctx: fk.indicator(ring, [*ctx.F, bad]),
    "subset_weight": lambda ring, bad, ctx: fk.subset_weight(ring, [*ctx.F, bad]),
    "measure": lambda ring, bad, ctx: fk.ProbMeasure(
        ring, PairMapping([(ring.unit, 0.5), (bad, 0.5)])),
    "measure_pairs": lambda ring, bad, ctx: fk.ProbMeasure(
        ring, [(ring.unit, 0.5), (bad, 0.5)]),
    "measure_delta": lambda ring, bad, ctx: fk.ProbMeasure.delta(ring, bad),
    "measure_uniform": lambda ring, bad, ctx: fk.ProbMeasure.uniform(
        ring, [*ctx.S, bad]),
    "measure_decomposition": lambda ring, bad, ctx: fk.measure_from_decomposition(
        ring, PairMapping([(ring.unit, 1), (bad, 1)])),
    "build_window": lambda ring, bad, ctx: fk.build_window(ring, [*ctx.S, bad], 2),
    "truncation_window": lambda ring, bad, ctx: fk.TruncationWindow(
        ring, [*ctx.window.labels, bad], 2, ctx.S, ctx.window.level_sizes),
    "truncation_window_support": lambda ring, bad, ctx: fk.TruncationWindow(
        ring, ctx.window.labels, 2, [*ctx.S, bad], ctx.window.level_sizes),
    "l_operator": lambda ring, bad, ctx: fk.l_operator(ring, bad, ctx.window),
    "rho1_apply": lambda ring, bad, ctx: fk.rho1_operator_apply(ring, bad, ctx.f),
    "lambda_apply": lambda ring, bad, ctx: fk.lambda_operator_apply(ring, bad, ctx.f),
    "boundary_S": lambda ring, bad, ctx: fk.boundary(ring, [*ctx.S, bad], ctx.F),
    "boundary_F": lambda ring, bad, ctx: fk.boundary(ring, ctx.S, [*ctx.F, bad]),
    "fc1_F": lambda ring, bad, ctx: fk.fc1_check(ring, ctx.mu, [*ctx.F, bad], 0.5),
    "fc2_S": lambda ring, bad, ctx: fk.fc2_check(ring, [*ctx.S, bad], ctx.F, 0.5),
    "fc2_F": lambda ring, bad, ctx: fk.fc2_check(ring, ctx.S, [*ctx.F, bad], 0.5),
    "fc3_S": lambda ring, bad, ctx: fk.fc3_check(ring, [*ctx.S, bad], ctx.F, 0.5),
    "fc3_F": lambda ring, bad, ctx: fk.fc3_check(ring, ctx.S, [*ctx.F, bad], 0.5),
    "kernel_xi": lambda ring, bad, ctx: fk.transition_kernel_exact(
        ring, ctx.mu, bad, ring.unit),
    "kernel_eta": lambda ring, bad, ctx: fk.transition_kernel_exact(
        ring, ctx.mu, ring.unit, bad),
    "foelner_search": lambda ring, bad, ctx: fk.foelner_search(ring, [*ctx.S, bad], 0.1),
    "verify_axioms": lambda ring, bad, ctx: fk.verify_axioms(ring, [ring.unit, bad]),
    "export_table": lambda ring, bad, ctx: fk.export_table(ring, [ring.unit, bad]),
}

NON_LABELS = {
    "f2": ("aA", "c", "a b", 7, ("a",), None),
    "z2": ((1,), (1, 2, 3), (1, "x"), (0.5, 0), "a", 5),
}

#: values that are no label of any ring, because they cannot be hashed;
#: listed after NON_LABELS, so the ids of the cases before them stay put
UNHASHABLE = ([1], ["a"], {"a": 1})

NON_LABEL_CASES = [
    *((name, bad) for name, bads in NON_LABELS.items() for bad in bads),
    *((name, bad) for name in NON_LABELS for bad in UNHASHABLE)]


@functools.cache
def label_context(name):
    ring = {"f2": lambda: fk.free_group_ring(2),
            "z2": lambda: fk.integer_lattice_ring(2)}[name]()
    S = frozenset(ring.generators)
    window = fk.build_window(ring, S, 2)
    F = frozenset(window.labels)
    return ring, types.SimpleNamespace(
        S=S, window=window, F=F, f=fk.indicator(ring, F),
        mu=fk.ProbMeasure.uniform(ring, S | {ring.unit}))


#: every public entry that takes a collection of labels, given ``value``
#: where the collection goes
COLLECTION_ENTRIES = {
    "indicator": lambda ring, value, ctx: fk.indicator(ring, value),
    "subset_weight": lambda ring, value, ctx: fk.subset_weight(ring, value),
    "measure_uniform": lambda ring, value, ctx: fk.ProbMeasure.uniform(ring, value),
    "build_window": lambda ring, value, ctx: fk.build_window(ring, value, 2),
    "truncation_window": lambda ring, value, ctx: fk.TruncationWindow(
        ring, value, 2, ctx.S, ctx.window.level_sizes),
    "truncation_window_support": lambda ring, value, ctx: fk.TruncationWindow(
        ring, ctx.window.labels, 2, value, ctx.window.level_sizes),
    "boundary_S": lambda ring, value, ctx: fk.boundary(ring, value, ctx.F),
    "boundary_F": lambda ring, value, ctx: fk.boundary(ring, ctx.S, value),
    "fc1_F": lambda ring, value, ctx: fk.fc1_check(ring, ctx.mu, value, 0.5),
    "fc2_S": lambda ring, value, ctx: fk.fc2_check(ring, value, ctx.F, 0.5),
    "fc2_F": lambda ring, value, ctx: fk.fc2_check(ring, ctx.S, value, 0.5),
    "fc3_S": lambda ring, value, ctx: fk.fc3_check(ring, value, ctx.F, 0.5),
    "fc3_F": lambda ring, value, ctx: fk.fc3_check(ring, ctx.S, value, 0.5),
    "foelner_search": lambda ring, value, ctx: fk.foelner_search(ring, value, 0.1),
    "verify_axioms": lambda ring, value, ctx: fk.verify_axioms(ring, value),
    "export_table": lambda ring, value, ctx: fk.export_table(ring, value),
}

#: values that are no collection of labels: not iterable, or a str, whose
#: characters would otherwise be read as labels ("aB" as {"a", "B"})
NON_COLLECTIONS = {
    "f2": ("aB", "a", 7, None),
    "z2": ("xy", 5, None, 1.5),
}


class TestLabelChecksAtBoundary:
    @pytest.mark.parametrize("entry", sorted(COLLECTION_ENTRIES))
    @pytest.mark.parametrize("name, value", [
        (name, value) for name, values in NON_COLLECTIONS.items()
        for value in values])
    def test_non_collection_raises_invalid_param(self, name, value, entry):
        ring, ctx = label_context(name)
        cached = dict(ring._cache)
        with pytest.raises(fk.InvalidParam, match="collection of labels"):
            COLLECTION_ENTRIES[entry](ring, value, ctx)
        assert ring._cache == cached

    @pytest.mark.parametrize("entry", sorted(LABEL_ENTRIES))
    @pytest.mark.parametrize("name, bad", NON_LABEL_CASES)
    def test_non_label_raises_invalid_label(self, name, bad, entry):
        ring, ctx = label_context(name)
        cached = dict(ring._cache)
        with pytest.raises(fk.InvalidLabel):
            LABEL_ENTRIES[entry](ring, bad, ctx)
        # the check comes before any product is read
        assert ring._cache == cached

    @pytest.mark.parametrize("name", sorted(NON_LABELS))
    def test_public_window_constructor_checks(self, name):
        ring, ctx = label_context(name)
        labels, S, sizes = ctx.window.labels, ctx.S, ctx.window.level_sizes
        window = fk.TruncationWindow(ring, labels, 2, S, sizes)
        assert window.labels == labels
        assert window.index(labels[-1]) == len(labels) - 1
        a = ring.generators[0]
        for bad_labels, message in (
                ((*labels, labels[1]), "duplicate"),
                ((labels[1], labels[0], *labels[2:]), "unit"),
                ((), "unit"),
                ((ring.unit, a), "closed under conjugation")):
            with pytest.raises(fk.InvalidParam, match=message):
                fk.TruncationWindow(ring, bad_labels, 2, S, sizes)

    def test_built_windows_pass_the_public_checks(self, f2, z6, su2xz):
        for ring in (f2, z6, su2xz):
            window = fk.build_window(ring, ring.generators, 3)
            for w in (window, window.prefix(2), window.prefix(0)):
                again = fk.TruncationWindow(ring, w.labels, w.radius,
                                            w.generator_support, w.level_sizes)
                assert again.labels == w.labels
                assert again._index == w._index
                assert again.level_sizes == w.level_sizes


@functools.cache
def ring_bound_context(name):
    """A ring, the list of the pairs its product rule is evaluated on, and
    one value of each ring-bound kind over the ring."""
    ring, calls = counting_ring({"f2": fk.free_group_ring,
                                 "z2": fk.integer_lattice_ring}[name](2))
    S = frozenset(ring.generators)
    window = fk.build_window(ring, S, 2)
    mu = fk.ProbMeasure.uniform(ring, S | {ring.unit})
    return ring, calls, types.SimpleNamespace(
        S=S, window=window, F=frozenset(window.labels), mu=mu,
        f=fk.indicator(ring, window.labels),
        op=fk.l_measure_operator(ring, mu, window))


#: every ring-bound parameter of the public API, as "callable:parameter"
#: (the operators of Element by their symbol), given ``value`` in its place
RING_BOUND_ENTRIES = {
    "+": lambda ring, value, ctx: ctx.f + value,
    "-": lambda ring, value, ctx: ctx.f - value,
    "*": lambda ring, value, ctx: ctx.f * value,
    "multiply:x": lambda ring, value, ctx: fk.multiply(value, ctx.f),
    "multiply:y": lambda ring, value, ctx: fk.multiply(ctx.f, value),
    "convolve:f": lambda ring, value, ctx: fk.convolve(value, ctx.f),
    "convolve:g": lambda ring, value, ctx: fk.convolve(ctx.f, value),
    "conjugate_element:x": lambda ring, value, ctx: fk.conjugate_element(value),
    "natural_trace:x": lambda ring, value, ctx: fk.natural_trace(value),
    "l_operator:window": lambda ring, value, ctx: fk.l_operator(ring, "a", value),
    "l_measure_operator:mu": lambda ring, value, ctx: fk.l_measure_operator(
        ring, value, ctx.window),
    "l_measure_operator:window": lambda ring, value, ctx: fk.l_measure_operator(
        ring, ctx.mu, value),
    "gns_operator:x": lambda ring, value, ctx: fk.gns_operator(ring, value, ctx.window),
    "gns_operator:window": lambda ring, value, ctx: fk.gns_operator(ring, ctx.f, value),
    "CompressedOperator:window": lambda ring, value, ctx: fk.CompressedOperator(
        value, ctx.op.matrix, True),
    "rho1_operator_apply:f": lambda ring, value, ctx: fk.rho1_operator_apply(
        ring, "a", value),
    "rho_measure_apply:mu": lambda ring, value, ctx: fk.rho_measure_apply(
        ring, value, ctx.f),
    "rho_measure_apply:f": lambda ring, value, ctx: fk.rho_measure_apply(
        ring, ctx.mu, value),
    "lambda_operator_apply:f": lambda ring, value, ctx: fk.lambda_operator_apply(
        ring, "a", value),
    "lambda_measure_apply:mu": lambda ring, value, ctx: fk.lambda_measure_apply(
        ring, value, ctx.f),
    "lambda_measure_apply:f": lambda ring, value, ctx: fk.lambda_measure_apply(
        ring, ctx.mu, value),
    "top_eigenvalue:op": lambda ring, value, ctx: fk.top_eigenvalue(value),
    "amenability_estimate:mu": lambda ring, value, ctx: fk.amenability_estimate(
        ring, value, [1]),
    "fc1_check:mu": lambda ring, value, ctx: fk.fc1_check(ring, value, ctx.F, 0.5),
    "transition_kernel:mu": lambda ring, value, ctx: fk.transition_kernel(
        ring, value, ring.unit, "a"),
    "transition_kernel_exact:mu": lambda ring, value, ctx: fk.transition_kernel_exact(
        ring, value, ring.unit, "a"),
    "dirichlet_norm:mu": lambda ring, value, ctx: fk.dirichlet_norm(ring, value, ctx.f, 2),
    "dirichlet_norm:f": lambda ring, value, ctx: fk.dirichlet_norm(ring, ctx.mu, value, 2),
    "lp_sigma_norm:f": lambda ring, value, ctx: fk.lp_sigma_norm(value, 2),
    "inner_sigma:f": lambda ring, value, ctx: fk.inner_sigma(value, ctx.f),
    "inner_sigma:g": lambda ring, value, ctx: fk.inner_sigma(ctx.f, value),
    "nw_ratio:mu": lambda ring, value, ctx: fk.nw_ratio(ring, value, ctx.f, 2),
    "nw_ratio:f": lambda ring, value, ctx: fk.nw_ratio(ring, ctx.mu, value, 2),
}

#: the Element operators, which return NotImplemented for a non-Element
OPERATORS = ("+", "-", "*")

#: parameters named like a ring-bound value that take labels: a window, or
#: any collection, is read as its labels (see COLLECTION_ENTRIES)
LABEL_PARAMETERS = {"verify_axioms:window"}

#: entries whose value is their only ring-bound argument: a value over
#: another ring is a valid one there
RING_FREE = {"conjugate_element:x", "natural_trace:x", "lp_sigma_norm:f",
             "top_eigenvalue:op", "CompressedOperator:window"}

#: (entry, case) pairs; a value over another ring is valid in a RING_FREE
#: entry, and an int is a scalar for *
RING_BOUND_CASES = [
    (entry, case) for entry in sorted(RING_BOUND_ENTRIES)
    for case in ("none", "int", "list", "dict", "wrong_kind", "other_ring")
    if not (case == "other_ring" and entry in RING_FREE
            or (entry, case) == ("*", "int"))]


def ring_bound_value(case, entry, ctx, other):
    """The value of a case for an entry.  ``other`` holds a value of each
    kind over another ring; the wrong kind is an Element where a measure is
    due and a measure where anything else is."""
    param = entry.rpartition(":")[2]
    due = {"mu": "mu", "window": "window", "op": "op"}.get(param, "f")
    return {"none": None, "int": 7, "list": [1], "dict": {"a": 1},
            "wrong_kind": ctx.f if due == "mu" else ctx.mu,
            "other_ring": getattr(other, due)}[case]


class TestRingBoundArguments:
    @pytest.mark.parametrize("entry, case", RING_BOUND_CASES)
    def test_bad_value_raises_a_typed_error(self, entry, case):
        ring, calls, ctx = ring_bound_context("f2")
        other = ring_bound_context("z2")[2]
        value = ring_bound_value(case, entry, ctx, other)
        expected = (fk.RingMismatch if case == "other_ring"
                    else TypeError if entry in OPERATORS else fk.InvalidParam)
        cached, called = dict(ring._cache), len(calls)
        with pytest.raises(expected):
            RING_BOUND_ENTRIES[entry](ring, value, ctx)
        # the check comes before any product is read
        assert len(calls) == called
        assert ring._cache == cached

    def test_every_ring_bound_parameter_has_an_entry(self):
        names = {"mu", "f", "g", "x", "y", "window", "op"}
        missing = []
        for name in fk.__all__:
            obj = getattr(fk, name)
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):  # not callable, or no signature
                continue
            missing += [f"{name}:{p}" for p in params if p in names
                        and f"{name}:{p}" not in RING_BOUND_ENTRIES
                        and f"{name}:{p}" not in LABEL_PARAMETERS]
        assert missing == []

    def test_element_operators(self, su2):
        x = fk.Element(su2, {1: 2})
        for bad in (1, None, "a", [1], fk.ProbMeasure.delta(su2, 1)):
            for op in (lambda: x + bad, lambda: bad + x,
                       lambda: x - bad, lambda: bad - x):
                with pytest.raises(TypeError):
                    op()
        for bad in ("a", None, [1], {1: 1}):
            with pytest.raises(TypeError):
                x * bad
            with pytest.raises(TypeError):
                bad * x
        for scalar in (3, 1.5, Fraction(1, 2), True):
            assert (x * scalar).coeffs == (scalar * x).coeffs == {1: 2 * scalar}


#: every ring parameter of the public API, as "callable:parameter" (the
#: static constructors of ProbMeasure by their dotted name), given
#: ``value`` in its place
RING_ENTRIES = {
    "Element:ring": lambda ring, value, ctx: fk.Element(value, {ring.unit: 1}),
    "ProbMeasure:ring": lambda ring, value, ctx: fk.ProbMeasure(
        value, {ring.unit: 1.0}),
    "ProbMeasure.delta:ring": lambda ring, value, ctx: fk.ProbMeasure.delta(
        value, ring.unit),
    "ProbMeasure.uniform:ring": lambda ring, value, ctx: fk.ProbMeasure.uniform(
        value, ctx.S),
    "TruncationWindow:ring": lambda ring, value, ctx: fk.TruncationWindow(
        value, ctx.window.labels, 2, ctx.S, ctx.window.level_sizes),
    "amenability_estimate:ring": lambda ring, value, ctx: fk.amenability_estimate(
        value, ctx.mu, [1]),
    "boundary:ring": lambda ring, value, ctx: fk.boundary(value, ctx.S, ctx.F),
    "build_window:ring": lambda ring, value, ctx: fk.build_window(value, ctx.S, 2),
    "dirichlet_norm:ring": lambda ring, value, ctx: fk.dirichlet_norm(
        value, ctx.mu, ctx.f, 2),
    "export_table:ring": lambda ring, value, ctx: fk.export_table(value, [ring.unit]),
    "fc1_check:ring": lambda ring, value, ctx: fk.fc1_check(value, ctx.mu, ctx.F, 0.5),
    "fc2_check:ring": lambda ring, value, ctx: fk.fc2_check(value, ctx.S, ctx.F, 0.5),
    "fc3_check:ring": lambda ring, value, ctx: fk.fc3_check(value, ctx.S, ctx.F, 0.5),
    "foelner_search:ring": lambda ring, value, ctx: fk.foelner_search(
        value, ctx.S, 0.1),
    "gns_operator:ring": lambda ring, value, ctx: fk.gns_operator(
        value, ctx.f, ctx.window),
    "indicator:ring": lambda ring, value, ctx: fk.indicator(value, ctx.F),
    "l_measure_operator:ring": lambda ring, value, ctx: fk.l_measure_operator(
        value, ctx.mu, ctx.window),
    "l_operator:ring": lambda ring, value, ctx: fk.l_operator(value, "a", ctx.window),
    "lambda_measure_apply:ring": lambda ring, value, ctx: fk.lambda_measure_apply(
        value, ctx.mu, ctx.f),
    "lambda_operator_apply:ring": lambda ring, value, ctx: fk.lambda_operator_apply(
        value, "a", ctx.f),
    "measure_from_decomposition:ring": lambda ring, value, ctx:
        fk.measure_from_decomposition(value, {"a": 1}),
    "nw_ratio:ring": lambda ring, value, ctx: fk.nw_ratio(value, ctx.mu, ctx.f, 2),
    "product_basis:ring": lambda ring, value, ctx: fk.product_basis(value, "a", "b"),
    "rho1_operator_apply:ring": lambda ring, value, ctx: fk.rho1_operator_apply(
        value, "a", ctx.f),
    "rho_measure_apply:ring": lambda ring, value, ctx: fk.rho_measure_apply(
        value, ctx.mu, ctx.f),
    "subset_weight:ring": lambda ring, value, ctx: fk.subset_weight(value, ctx.F),
    "tensor_product:ring1": lambda ring, value, ctx: fk.tensor_product(value, ring),
    "tensor_product:ring2": lambda ring, value, ctx: fk.tensor_product(ring, value),
    "transition_kernel:ring": lambda ring, value, ctx: fk.transition_kernel(
        value, ctx.mu, ring.unit, "a"),
    "transition_kernel_exact:ring": lambda ring, value, ctx:
        fk.transition_kernel_exact(value, ctx.mu, ring.unit, "a"),
    "verify_axioms:ring": lambda ring, value, ctx: fk.verify_axioms(
        value, [ring.unit]),
}


def not_a_ring(case, ring):
    """A value that is no FusionRing.  The dict and the namespace carry
    every attribute of ``ring``, its bound methods and its cache too, so
    only a type check can tell them from it."""
    attributes = {name: getattr(ring, name) for name in dir(ring)
                  if not name.startswith("__")}
    return {"none": None, "int": 7, "str": "su2", "dict": attributes,
            "namespace": types.SimpleNamespace(**attributes)}[case]


def public_parameters(names):
    """"callable:parameter" for each parameter in ``names`` of the public
    callables, and of the public static methods of the public classes."""
    found = []
    for name in fk.__all__:
        obj = getattr(fk, name)
        callables = [(name, obj)]
        if isinstance(obj, type):
            callables += [(f"{name}.{attr}", getattr(obj, attr))
                          for attr, raw in vars(obj).items()
                          if isinstance(raw, staticmethod)
                          and not attr.startswith("_")]
        for label, func in callables:
            try:
                params = inspect.signature(func).parameters
            except (TypeError, ValueError):  # not callable, or no signature
                continue
            found += [f"{label}:{p}" for p in params if p in names]
    return found


class TestRingConstructor:
    RULES = {"product_rule": lambda x, y: {x + y: 1},
             "conjugate_rule": lambda x: -x, "dim_rule": lambda x: 1}

    @pytest.mark.parametrize("name,value", [
        (name, value)
        for name in ("product_rule", "conjugate_rule", "dim_rule",
                     "is_label", "parse_label", "format_label")
        # None leaves a label hook at its default
        for value in (None, 0, "str", {1: 1})
        if value is not None or name.endswith("rule")])
    def test_rule_that_is_not_callable_raises(self, name, value):
        with pytest.raises(fk.InvalidParam, match=f"^{name} must be callable"):
            fk.FusionRing(0, **self.RULES | {name: value})

    @pytest.mark.parametrize("generators", [5, None, [[1]], [1, {2}]])
    def test_generators_must_be_hashable_labels(self, generators):
        with pytest.raises(fk.InvalidParam, match="^generators must be"):
            fk.FusionRing(0, **self.RULES, generators=generators)

    @pytest.mark.parametrize("description", [5, None, b"ring", ["ring"]])
    def test_description_must_be_text(self, description):
        # a label error names the description, so it must read as text
        with pytest.raises(fk.InvalidParam, match="^description must be a str"):
            fk.FusionRing(0, **self.RULES, description=description)

    def test_generators_take_any_iterable(self):
        ring = fk.FusionRing(0, **self.RULES, generators=iter([1, -1]))
        assert ring.generators == (1, -1)

    def test_optional_label_hooks_default(self):
        ring = fk.FusionRing(0, **self.RULES, is_label=None,
                             parse_label=None, format_label=None)
        assert ring.parse_label("5") == "5" and ring.format_label(5) == "5"
        assert fk.build_window(ring, [1], 1).labels == (0, -1, 1)


class TestRingArguments:
    @pytest.mark.parametrize("entry", sorted(RING_ENTRIES))
    @pytest.mark.parametrize("case", ["none", "int", "str", "dict", "namespace"])
    def test_non_ring_raises_invalid_param(self, entry, case):
        ring, calls, ctx = ring_bound_context("f2")
        cached, called = dict(ring._cache), len(calls)
        with pytest.raises(fk.InvalidParam, match="must be a FusionRing"):
            RING_ENTRIES[entry](ring, not_a_ring(case, ring), ctx)
        # the check comes before any product is read
        assert len(calls) == called
        assert ring._cache == cached

    def test_every_ring_parameter_has_an_entry(self):
        found = public_parameters({"ring", "ring1", "ring2"})
        assert "ProbMeasure.delta:ring" in found
        assert sorted(set(found) - set(RING_ENTRIES)) == []


#: values that are neither a mapping nor an iterable of (label, value) pairs
NON_PAIRS = (5, None, [1, 2], "ab", [(1, 2, 3)], [(1,)])


class TestPairArguments:
    @pytest.mark.parametrize("kind", [fk.Element, fk.ProbMeasure])
    @pytest.mark.parametrize("value", NON_PAIRS)
    def test_non_pairs_raise_invalid_param(self, su2, kind, value):
        with pytest.raises(fk.InvalidParam, match=r"\(label, value\) pairs"):
            kind(su2, value)

    @pytest.mark.parametrize("coeffs", [
        ["ab"], {"a": "x"}, [("a", None)], {"a": [1]}, {"a": 1, "b": "1"},
        {"a": True}])
    def test_element_coefficient_must_be_a_number(self, f2, coeffs):
        with pytest.raises(fk.InvalidParam, match="coefficient must be a Number"):
            fk.Element(f2, coeffs)

    def test_pairs_of_any_shape_still_read(self, su2):
        for coeffs in ([(1, 2), (0, 1)], [[1, 2], [0, 1]], iter([(1, 2), (0, 1)]),
                       {1: 2, 0: 1}, PairMapping([(1, 2), (0, 1)])):
            assert fk.Element(su2, coeffs).coeffs == {1: 2, 0: 1}
        for coeffs in ({1: Fraction(1, 2), 2: 1.5}, {1: 2 + 0j}):
            assert fk.Element(su2, coeffs).coeffs == coeffs
        assert fk.ProbMeasure(su2, [[1, 0.5], (0, 0.5)]).weights == {1: 0.5, 0: 0.5}

    @pytest.mark.parametrize("decomp", [[1], (1, 2), [(1, 1)]])
    def test_decomposition_must_be_a_mapping(self, su2, decomp):
        with pytest.raises(fk.InvalidParam):
            fk.measure_from_decomposition(su2, decomp)


#: (radius, level_sizes) a direct window of three labels refuses
BAD_LEVELS = [
    ("x", (1, 2, 3)), (None, (1, 2, 3)), (-1, (1, 2, 3)), (True, (1, 2, 3)),
    (2.0, (1, 2, 3)),
    (2, (5, 9)), (2, (2, 3)), (2, (1, 2)), (2, (1, 3, 3)), (2, (1, 3, 2, 3)),
    (2, ()), (2, None), (2, 3), (2, (1, "2", 3)), (2, (1, 2.0, 3)),
    (2, (0, 1, 3)), (1, (1, 2, 3)), (0, (1, 3)),
]


class TestWindowConstructor:
    @pytest.mark.parametrize("radius, sizes", BAD_LEVELS)
    def test_bad_radius_or_levels_raise_invalid_param(self, su2, radius, sizes):
        with pytest.raises(fk.InvalidParam):
            fk.TruncationWindow(su2, (0, 1, 2), radius, [1], sizes)

    def test_radius_zero_window_of_two_labels(self, su2):
        with pytest.raises(fk.InvalidParam, match="level sizes"):
            fk.TruncationWindow(su2, [0, 1], 1, [1], [5, 9])

    def test_good_levels_are_kept(self, su2):
        for radius, sizes in ((2, (1, 2, 3)), (5, (1, 2, 3)), (1, (1, 3)),
                              (2, [1, 3]), (0, (1,))):
            labels = (0, 1, 2)[:sizes[-1]]
            window = fk.TruncationWindow(su2, labels, radius, [1], sizes)
            assert window.level_sizes == tuple(sizes)
            assert window.radius == radius
            assert window.prefix(0).labels == (0,)


class TestCompressedOperatorConstructor:
    def test_matrix_must_fit_the_window(self):
        ring, _, ctx = ring_bound_context("f2")
        n = len(ctx.window)
        for bad in (None, 7, sparse.identity(7, format="csr"),
                    sparse.identity(n + 1, format="csr"),
                    sparse.csr_matrix((n, n + 1)), np.eye(n), [[1.0]]):
            with pytest.raises(fk.InvalidParam, match="scipy.sparse matrix"):
                fk.CompressedOperator(ctx.window, bad, True)
        op = fk.CompressedOperator(ctx.window, ctx.op.matrix, True)
        assert op.shape == (n, n)
        assert fk.top_eigenvalue(op).value == fk.top_eigenvalue(ctx.op).value

    def test_refusal_imports_no_scipy(self):
        # without scipy.sparse loaded no value can be a scipy matrix
        code = ("import sys\n"
                "import numpy as np\n"
                "import fusionkit as fk\n"
                "su2 = fk.build_su2_ring()\n"
                "window = fk.build_window(su2, [1], 3)\n"
                "try:\n"
                "    fk.CompressedOperator(window, np.eye(len(window)), True)\n"
                "except fk.InvalidParam as exc:\n"
                "    print(exc)\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(fk.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out == ("matrix must be a scipy.sparse matrix of shape (4, 4), "
                       "got ndarray (4, 4)\n[]\n")

    def test_complex_matrix_refused(self):
        ring, _, ctx = ring_bound_context("f2")
        matrix = ctx.op.matrix.astype(complex)
        with pytest.raises(fk.InvalidParam, match="must be real"):
            fk.CompressedOperator(ctx.window, matrix, True)

    @staticmethod
    def duplicate_coo(entries):
        # a 3 x 3 COO matrix holding each (row, column, value) as given,
        # duplicates included
        rows, cols, values = zip(*entries)
        return sparse.coo_matrix((values, (rows, cols)), shape=(3, 3))

    def test_selfadjoint_flag_on_a_matrix_that_is_not_symmetric(self, su2):
        # 1.0 and 2.0 at (0, 1) sum to 3.0 with no entry at (1, 0): refused
        # when built, not left to end in NoConvergence in Lanczos
        window = fk.build_window(su2, [1], 2)
        matrix = self.duplicate_coo([(0, 1, 1.0), (0, 1, 2.0)])
        with pytest.raises(fk.NotSelfAdjoint):
            fk.CompressedOperator(window, matrix, True)
        assert not fk.CompressedOperator(window, matrix, False).selfadjoint

    @pytest.mark.parametrize("selfadjoint", [False, True])
    def test_matrix_is_the_summed_csr(self, su2, selfadjoint):
        # self-adjoint: the entries at (0, 1) sum to the one at (1, 0)
        window = fk.build_window(su2, [1], 2)
        entries = [(0, 1, 1.0), (0, 1, 2.0)]
        if selfadjoint:
            entries.append((1, 0, 3.0))
        op = fk.CompressedOperator(window, self.duplicate_coo(entries),
                                   selfadjoint)
        assert isinstance(op.matrix, sparse.csr_matrix)
        assert op.matrix.nnz == op.nnz == len(entries) - 1
        assert op.matrix[0, 1] == 3.0

    def test_matrix_is_a_copy(self, su2):
        # a symmetric CSR matrix changed after the operator was built
        window = fk.build_window(su2, [1], 2)
        matrix = self.duplicate_coo([(0, 1, 3.0), (1, 0, 3.0)]).tocsr()
        op = fk.CompressedOperator(window, matrix, True)
        matrix.data[0] = 5.0
        assert (op.matrix != op.matrix.T).nnz == 0
        assert fk.top_eigenvalue(op).value == pytest.approx(3.0)
