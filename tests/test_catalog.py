import itertools
import math
import random

import pytest

import fusionkit as fk
from oracles import free_reduce, is_reduced_word, su2_product_oracle


class TestGroupRings:
    def test_lattice_translation(self, z1):
        assert fk.product_basis(z1, 3, -1) == {2: 1}

    def test_free_word_reduction(self, f2):
        assert fk.product_basis(f2, "ab", "B") == {"a": 1}
        assert fk.product_basis(f2, "aB", "bA") == {"": 1}

    def test_free_labels_are_reduced_words(self, f2):
        # every word of length <= 6 over a, b, their inverses and the
        # foreign letters c, C, plus non-string values
        words = ["".join(p) for n in range(7)
                 for p in itertools.product("abABcC", repeat=n)]
        assert len(words) == 55_987
        others = [None, 0, 1.5, b"ab", ("a",), ["a"], {"a": 1}]
        for w in words + others:
            assert f2.contains(w) == is_reduced_word(w, 2), w

    def test_free_products_are_free_reductions(self):
        f2 = fk.free_group_ring(2)
        words = [w for n in range(5)
                 for w in map("".join, itertools.product("abAB", repeat=n))
                 if is_reduced_word(w, 2)]
        for u in words:
            for v in words:
                assert fk.product_basis(f2, u, v) == {free_reduce(u + v): 1}

    @pytest.mark.parametrize("rank", [2, 3])
    def test_free_rule_is_free_reduction(self, rank):
        # the rule itself, uncached: every pair of reduced words of length
        # <= 4 at rank 2, and at rank 3 a seeded sample in which v starts
        # by cancelling a suffix of u of random length
        rule = fk.free_group_ring(rank)._product_rule
        alphabet = "abc"[:rank] + "ABC"[:rank]
        words = [w for n in range(5)
                 for w in map("".join, itertools.product(alphabet, repeat=n))
                 if is_reduced_word(w, rank)]
        if rank == 2:
            pairs = list(itertools.product(words, words))
        else:
            rng = random.Random(3)
            pairs = []
            for _ in range(20_000):
                u, w = rng.choice(words), rng.choice(words)
                cut = rng.randrange(len(u) + 1)
                pairs.append((u, free_reduce(u[cut:][::-1].swapcase() + w)))
        assert len(pairs) == 20_000 if rank == 3 else len(words) ** 2 == 25_921
        for u, v in pairs:
            assert rule(u, v) == {free_reduce(u + v): 1}, (u, v)

    @pytest.mark.parametrize("labels,table", [
        (5, {}), (None, {}), ([["e"]], {}), (["e"], None), (["e"], 5),
        (["e"], [(("e", "e"), "e")])])
    def test_table_arguments_are_typed(self, labels, table):
        with pytest.raises(fk.InvalidTable):
            fk.group_ring_from_table(labels, table)

    @pytest.mark.parametrize("labels,table", [
        (["e"], {("e", "e"): ["e"]}),
        (["e"], {("e", "e"): {"e"}}),
        (["e", "x"], {"e": {"e": "e", "x": "x"}, "x": 5}),
        (["e", "x"], {"e": {"e": "e", "x": "x"}, "x": None})])
    def test_table_entries_are_typed(self, labels, table):
        # an unhashable entry, or a nested row that is not a mapping
        with pytest.raises(fk.InvalidTable):
            fk.group_ring_from_table(labels, table)

    def test_cyclic_two(self):
        ring = fk.cyclic_ring(2)
        assert ring.conj(1) == 1
        assert fk.product_basis(ring, 1, 1) == {0: 1}

    def test_lattice_vector_labels(self, z2):
        assert fk.product_basis(z2, (1, 0), (0, 1)) == {(1, 1): 1}
        assert z2.conj((2, -1)) == (-2, 1)

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_lattice_rule_is_vector_sum(self, d):
        # the rule itself, uncached, on seeded pairs of integer vectors
        ring = fk.integer_lattice_ring(d)
        rng = random.Random(d)
        for _ in range(2_000):
            x = tuple(rng.randint(-50, 50) for _ in range(d))
            y = tuple(rng.randint(-50, 50) for _ in range(d))
            z = ring._product_rule(x, y)
            assert z == {tuple(a + b for a, b in zip(x, y)): 1}
            assert type(next(iter(z))) is tuple
            assert ring._conjugate_rule(x) == tuple(-a for a in x)

    def test_invalid_rank(self):
        with pytest.raises(fk.InvalidParam):
            fk.integer_lattice_ring(0)
        with pytest.raises(fk.InvalidParam):
            fk.free_group_ring(0)

    def test_table_group_valid(self):
        labels = ["e", "g", "h"]
        table = {(a, b): labels[(i + j) % 3]
                 for i, a in enumerate(labels) for j, b in enumerate(labels)}
        ring = fk.group_ring_from_table(labels, table)
        assert ring.unit == "e"
        assert ring.conj("g") == "h"
        assert fk.verify_axioms(ring, labels).passed

    def test_table_without_identity(self):
        labels = ["a", "b"]
        table = {(x, y): "a" for x in labels for y in labels}
        with pytest.raises(fk.InvalidTable):
            fk.group_ring_from_table(labels, table)

    def test_table_not_associative(self):
        labels = ["e", "a", "b"]
        table = {}
        for x in labels:
            table[("e", x)] = x
            table[(x, "e")] = x
        # a Latin square that is not a group: a*a=e, a*b=b? force inconsistency
        table[("a", "a")] = "b"
        table[("a", "b")] = "e"
        table[("b", "a")] = "e"
        table[("b", "b")] = "a"
        ring = fk.group_ring_from_table(labels, table)  # this one IS Z/3
        assert fk.verify_axioms(ring, labels).passed
        bad = dict(table)
        bad[("b", "b")] = "b"  # breaks associativity and inverses
        with pytest.raises(fk.InvalidTable):
            fk.group_ring_from_table(labels, bad)

    def test_failing_table_names_the_axiom(self):
        # closed, with an identity and two-sided inverses, but a*a = b*b = b:
        # verify_axioms finds N(a,a->b) = 1 but N(conj a,b->a) = 0
        labels = ["e", "a", "b"]
        table = {("e", x): x for x in labels} | {(x, "e"): x for x in labels}
        table |= {("a", "a"): "b", ("a", "b"): "e", ("b", "a"): "e",
                  ("b", "b"): "b"}
        with pytest.raises(fk.InvalidTable,
                           match="^table violates frobenius_reciprocity: ") as info:
            fk.group_ring_from_table(labels, table)
        assert [c.name for c in info.value.report.failures()][0] == \
            "frobenius_reciprocity"


class TestSu2Family:
    def test_clebsch_gordan_square(self, su2):
        assert fk.product_basis(su2, 2, 2) == {0: 1, 2: 1, 4: 1}

    def test_oracle_agreement_small(self, su2):
        for m in range(7):
            for n in range(7):
                assert fk.product_basis(su2, m, n) == su2_product_oracle(m, n)

    def test_unit_absorbs(self, su2):
        assert fk.product_basis(su2, 0, 9) == {9: 1}

    def test_dim_multiplicativity_forced(self, su2):
        p = fk.product_basis(su2, 1, 1)
        assert sum(su2.dim(k) * n for k, n in p.items()) == su2.dim(1) ** 2

    def test_deformed_dimensions(self, dsu2):
        assert [dsu2.dim(k) for k in range(4)] == [1, 3, 8, 21]

    def test_deformed_collapses_at_two(self):
        ring = fk.build_deformed_su2_ring(2)
        assert [ring.dim(k) for k in range(8)] == list(range(1, 9))

    def test_deformed_dim_multiplicativity(self, dsu2):
        assert dsu2.dim(0) + dsu2.dim(2) == dsu2.dim(1) ** 2 == 9

    def test_deformed_param_validation(self):
        with pytest.raises(fk.InvalidParam):
            fk.build_deformed_su2_ring(1)


class TestTensorProduct:
    def test_z_tensor_z_is_z2(self, z1):
        ring = fk.tensor_product(z1, z1)
        assert fk.product_basis(ring, (1, 0), (0, 1)) == {(1, 1): 1}
        assert ring.conj((1, -2)) == (-1, 2)

    def test_dims_multiply(self, su2):
        ring = fk.tensor_product(su2, su2)
        assert ring.dim((1, 1)) == 4

    def test_axioms_on_su2_tensor_z(self, su2xz):
        window = fk.build_window(su2xz, su2xz.generators, 2)
        assert fk.verify_axioms(su2xz, window).passed

    def test_axioms_at_default_tensor_radius(self, su2xz):
        window = fk.build_window(su2xz, su2xz.generators, 6)
        assert fk.verify_axioms(su2xz, window).passed

    def test_tensor_with_trivial_is_isomorphic(self, su2):
        triv = fk.trivial_ring()
        ring = fk.tensor_product(su2, triv)
        to_pair = lambda k: (k, "e")
        for m in range(5):
            assert ring.dim(to_pair(m)) == su2.dim(m)
            assert ring.conj(to_pair(m)) == to_pair(su2.conj(m))
            for n in range(5):
                lifted = {to_pair(k): c for k, c in fk.product_basis(su2, m, n).items()}
                assert fk.product_basis(ring, to_pair(m), to_pair(n)) == lifted


class TestDefaultRadiusWindows:
    def test_axioms_at_default_free_radius(self, f2):
        # 485 labels; with every window triple in the middle this took
        # minutes, so it ran only on request
        window = fk.build_window(f2, f2.generators, 5)
        assert fk.verify_axioms(f2, window).passed


class TestMeasureFromDecomposition:
    def test_fundamental_alone(self, su2):
        mu = fk.measure_from_decomposition(su2, {1: 1})
        assert mu.weights == {1: 1.0}
        assert mu.symmetric

    def test_trivial_plus_fundamental(self, su2):
        mu = fk.measure_from_decomposition(su2, {0: 1, 1: 1})
        assert mu.weights == pytest.approx({0: 1 / 3, 1: 2 / 3})

    def test_free_group_symmetrization(self, f2):
        mu = fk.measure_from_decomposition(f2, {"a": 1})
        assert mu.weights == {"a": 0.5, "A": 0.5}
        assert mu.symmetric

    def test_multiplicities_validated(self, su2):
        with pytest.raises(fk.InvalidParam):
            fk.measure_from_decomposition(su2, {})
        with pytest.raises(fk.InvalidParam):
            fk.measure_from_decomposition(su2, {1: 0})

    def test_weights_exact_before_floats(self, dsu2):
        # n = 1*1 + 2*3 = 7; weights 1/7 and 6/7 exactly, symmetrized trivially
        mu = fk.measure_from_decomposition(dsu2, {0: 1, 1: 2})
        assert mu.weights == {0: float(1 / 7), 1: float(6 / 7)}
        assert math.isclose(sum(mu.weights.values()), 1.0, abs_tol=1e-15)
