import dataclasses
import functools
import math
import random
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fusionkit as fk
from conftest import (counting_ring, fibonacci_ring, label_counting_ring,
                      patched_ring, pool_for, random_symmetric_measure)
from fusionkit.foelner import _Cut

from oracles import (brute_boundary, direct_boundary, direct_dirichlet,
                     direct_fc2, direct_kernel)


@functools.cache
def cut_ring(name):
    """A ring for the cut property test and its radius-3 label pool."""
    ring = {"z2": lambda: fk.integer_lattice_ring(2),
            "su2": fk.build_su2_ring,
            "f2": lambda: fk.free_group_ring(2),
            "su2xz3": lambda: fk.tensor_product(fk.build_su2_ring(),
                                                fk.cyclic_ring(3))}[name]()
    return ring, pool_for(ring, 3)


#: the FC2 corpus, ring name -> (ring, S): S = {1} on SU(2), the 4
#: generators of Z^2, the non-symmetric S = {a} on F_2, and the generators
#: of a tensor ring
FC2_RINGS = {
    "su2": lambda: (fk.build_su2_ring(), [1]),
    "z2": lambda: (fk.integer_lattice_ring(2),
                   [(1, 0), (-1, 0), (0, 1), (0, -1)]),
    "f2": lambda: (fk.free_group_ring(2), ["a"]),
    "su2xz3": lambda: (fk.tensor_product(fk.build_su2_ring(), fk.cyclic_ring(3)),
                       [(1, 0), (0, 1), (0, 2)]),
}


class TestBoundary:
    def test_lattice_interval(self, z1):
        n = 7
        b = fk.boundary(z1, {1, -1}, set(range(-n, n + 1)))
        assert b.inner == {-n, n}
        assert b.outer == {-n - 1, n + 1}
        assert b.weight == 4

    def test_su2_interval(self, su2):
        b = fk.boundary(su2, {1}, set(range(101)))
        assert b.inner == {100}
        assert b.outer == {101}

    def test_full_finite_group_has_empty_boundary(self):
        ring = fk.cyclic_ring(2)
        b = fk.boundary(ring, {1}, {0, 1})
        assert b.inner == b.outer == frozenset()

    def test_empty_inputs_rejected(self, su2):
        with pytest.raises(fk.EmptySet):
            fk.boundary(su2, set(), {0})
        with pytest.raises(fk.EmptySet):
            fk.boundary(su2, {1}, set())

    def test_matches_definition_scan(self, su2, z1, f2):
        rng = random.Random(37)
        for ring in (su2, z1, f2):
            pool = pool_for(ring, 3)
            universe = pool_for(ring, 5)
            for _ in range(15):
                F = set(rng.sample(pool, rng.randint(1, min(6, len(pool)))))
                S = set(rng.sample(pool, rng.randint(1, 3)))
                b = fk.boundary(ring, S, F)
                inner, outer = brute_boundary(ring, S, F, universe)
                assert b.inner == inner
                # the brute scan only sees outer labels inside its universe
                assert {a for a in b.outer if a in set(universe)} == outer


class TestCut:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["z2", "su2", "f2", "su2xz3"]), st.data())
    def test_matches_direct_boundary_after_each_add(self, name, data):
        ring, pool = cut_ring(name)
        S = data.draw(st.sets(st.sampled_from(pool), min_size=1, max_size=3))
        F = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8,
                               unique=True))
        cut = _Cut(ring, S)
        for n, label in enumerate(F, start=1):
            cut.add(label)
            inner, outer, w_in, w_out, w_F = direct_boundary(ring, S, F[:n])
            assert (cut.inner, cut.outer) == (inner, outer)
            assert (cut.weight_boundary, cut.weight_F) == (w_in + w_out, w_F)
            b = fk.boundary(ring, S, F[:n])
            assert (b.inner, b.outer) == (inner, outer)
            assert (b.weight_inner, b.weight_outer, b.weight_F) == (w_in, w_out, w_F)
            for c in outer:
                _, _, c_in, c_out, _ = direct_boundary(ring, S, F[:n] + [c])
                assert cut.delta(c) == c_in + c_out - w_in - w_out
            assert (cut.inner, cut.outer) == (inner, outer)  # delta left it alone


class TestFC3:
    def test_su2_interval_worked_example(self, su2):
        rep = fk.fc3_check(su2, {1}, set(range(101)), 0.06)
        assert rep.lhs == 20605
        assert rep.rhs == pytest.approx(0.06 * 348551)
        assert rep.satisfied

    def test_lattice_exact_ratio(self, z1):
        for n in (3, 10, 25):
            F = set(range(-n, n + 1))
            rep = fk.fc3_check(z1, {1, -1}, F, 1.0)
            ratio = Fraction(rep.extra["weight_boundary"]) / Fraction(rep.weight_F)
            assert ratio == Fraction(4, 2 * n + 1)
            # satisfied exactly when eps > 4/(2n+1)
            assert fk.fc3_check(z1, {1, -1}, F, 4 / (2 * n + 1) + 1e-9).satisfied
            assert not fk.fc3_check(z1, {1, -1}, F, 4 / (2 * n + 1) - 1e-9).satisfied

    def test_deformed_intervals_never_small(self, dsu2):
        for N in (5, 30, 100, 200):
            rep = fk.fc3_check(dsu2, {1}, set(range(N + 1)), 1.0)
            assert not rep.satisfied
            assert rep.extra["ratio"] > 1.0

    def test_epsilon_validated(self, su2):
        with pytest.raises(fk.InvalidParam):
            fk.fc3_check(su2, {1}, {0, 1}, 0.0)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -0.5, "0.1"])
def test_non_finite_or_non_positive_epsilon_rejected(su2, eps):
    mu = fk.ProbMeasure.uniform(su2, [0, 1])
    with pytest.raises(fk.InvalidParam):
        fk.fc1_check(su2, mu, {0, 1}, eps)
    with pytest.raises(fk.InvalidParam):
        fk.fc2_check(su2, {1}, {0, 1}, eps)
    with pytest.raises(fk.InvalidParam):
        fk.fc3_check(su2, {1}, {0, 1}, eps)
    with pytest.raises(fk.InvalidParam):
        fk.foelner_search(su2, {1}, eps)


@pytest.mark.parametrize("eps", [10 ** 400, Fraction(10 ** 400, 3)],
                         ids=["10**400", "10**400/3"])
def test_epsilon_past_the_float_range(su2, eps):
    # the exact rhs exceeds every float: its view saturates to inf
    mu = fk.ProbMeasure.uniform(su2, [0, 1])
    reports = [fk.fc1_check(su2, mu, {0, 1}, eps),
               fk.fc2_check(su2, {1}, {0, 1}, eps),
               fk.fc3_check(su2, {1}, {0, 1}, eps)]
    for strategy in ("balls", "greedy"):
        result = fk.foelner_search(su2, {1}, eps, strategy=strategy, budget=10)
        assert result.found
        reports.append(result.report)
    for rep in reports:
        assert rep.satisfied and rep.rhs == math.inf and rep.epsilon == eps


def test_fc1_and_fc2_read_epsilon_exactly(z1):
    # F = [0, 19] on Z: FC2 compares 2 < eps * 20 and FC1 22 < (1 + eps) * 20,
    # both equalities at eps = 1/10; the float 0.1 lies just above 1/10
    F = set(range(20))
    mu = fk.measure_from_decomposition(z1, {0: 1, 1: 1})
    checks = (lambda eps: fk.fc1_check(z1, mu, F, eps),
              lambda eps: fk.fc2_check(z1, {1}, F, eps),
              lambda eps: fk.fc3_check(z1, {1}, F, eps))
    assert [check(Fraction(1, 10)).satisfied for check in checks] == [False] * 3
    assert [check(0.1).satisfied for check in checks] == [True] * 3
    assert [check(Fraction(0.1)).satisfied for check in checks] == [True] * 3


class TestFC1:
    def test_su2_interval(self, su2):
        mu = fk.ProbMeasure(su2, {0: 0.5, 1: 0.5})
        rep = fk.fc1_check(su2, mu, set(range(101)), 0.05)
        assert rep.lhs == 348551 + 102 ** 2
        assert rep.satisfied
        assert rep.extra["support_identity_holds"]
        assert rep.lhs / float(rep.weight_F) == pytest.approx(1.02985, abs=1e-4)

    def test_delta_e_always_satisfied(self, f2):
        mu = fk.ProbMeasure.delta(f2, "")
        rep = fk.fc1_check(f2, mu, {"", "a", "B"}, 1e-9)
        assert rep.satisfied
        assert rep.extra["support_size"] == 3

    def test_lattice_lazy_interval(self, z1):
        mu = fk.ProbMeasure.uniform(z1, [0, 1, -1])
        rep = fk.fc1_check(z1, mu, set(range(-10, 11)), 0.15)
        assert rep.lhs == 23 and rep.weight_F == 21
        assert rep.satisfied

    def test_unit_required(self, su2):
        mu = fk.ProbMeasure.delta(su2, 1)
        with pytest.raises(fk.MeasureMissingUnit):
            fk.fc1_check(su2, mu, {0, 1}, 0.5)

    def test_symmetry_required(self, z1):
        mu = fk.ProbMeasure(z1, {0: 0.5, 1: 0.5})
        with pytest.raises(fk.NonSymmetricMeasure):
            fk.fc1_check(z1, mu, {0}, 0.5)

    def test_reads_each_product_once_from_the_rule(self):
        # the 802 rows alpha * beta (alpha in F, beta in {0, 1}) and the
        # 4 rows of the support labels 1 and 403 outside F
        ring, calls = counting_ring(fk.build_su2_ring())
        mu = fk.measure_from_decomposition(ring, {0: 1, 1: 1})
        rep = fk.fc1_check(ring, mu, range(2, 403), 0.05)
        assert rep.extra["support_identity_holds"]
        assert len(calls) == len(set(calls)) == 806
        assert ring._cache == {}


class TestFC2:
    def test_su2_worked_value(self, su2):
        F = {0, 1, 2, 3}
        rep = fk.fc2_check(su2, {1}, F, 0.7)
        assert rep.lhs == 20.0
        assert rep.weight_F == 30
        assert rep.satisfied          # 20 < 0.7 * 30
        # strict inequality: eps = 2/3 gives 20 < 20, which is false
        assert not fk.fc2_check(su2, {1}, F, 2 / 3).satisfied

    def test_unit_label_contributes_zero(self, su2):
        rep = fk.fc2_check(su2, {0, 1}, {0, 1, 2, 3}, 10.0)
        assert rep.extra["per_label"]["0"] == 0.0

    def test_lattice_threshold(self, z1):
        n = 10
        F = set(range(-n, n + 1))
        rep = fk.fc2_check(z1, {1, -1}, F, 1.0)
        assert rep.extra["per_label"] == {"1": 2.0, "-1": 2.0}
        assert fk.fc2_check(z1, {1, -1}, F, 2 / (2 * n + 1) + 1e-9).satisfied
        assert not fk.fc2_check(z1, {1, -1}, F, 2 / (2 * n + 1) - 1e-9).satisfied

    def test_expansion_matches_direct_rho_route(self, su2, dsu2, z1):
        rng = random.Random(41)
        for ring in (su2, dsu2, z1):
            pool = pool_for(ring, 3)
            for _ in range(10):
                F = set(rng.sample(pool, rng.randint(1, min(5, len(pool)))))
                xi = rng.choice(pool)
                rep = fk.fc2_check(ring, {xi}, F, 1.0)
                chi = fk.indicator(ring, F)
                diff = fk.rho1_operator_apply(ring, xi, chi) - chi
                direct = fk.lp_sigma_norm(diff, 1)
                assert math.isclose(rep.extra["per_label"][ring.format_label(xi)],
                                    direct, rel_tol=1e-10, abs_tol=1e-10)

    def test_non_integer_dims(self):
        # 2 d(t) / d(t) = 2 is exact when the dimensions enter as rationals
        ring = fibonacci_ring()
        for F in ({"1"}, {"t"}):
            assert fk.fc2_check(ring, {"t"}, F, 1.0).extra["per_label"] == {"t": 2.0}

    @pytest.mark.parametrize("name", sorted(FC2_RINGS))
    def test_exact_values_match_the_definition(self, name):
        ring, S = FC2_RINGS[name]()
        rng = random.Random(23)
        pool = pool_for(ring, 3)
        for _ in range(6):
            F = set(rng.sample(pool, rng.randint(1, len(pool) // 2)))
            values = [direct_fc2(ring, xi, F) for xi in S]
            weight_F = sum(ring.sigma(label) for label in F)
            rep = fk.fc2_check(ring, S, F, 1.0)
            assert rep.extra["per_label"] == {
                ring.format_label(xi): float(v) for xi, v in zip(S, values)}
            assert rep.lhs == float(max(values))
            assert rep.weight_F == weight_F
            # eps at and next to the exact ratio: satisfied pins the worst
            # value between adjacent float multiples of weight_F
            ratio = float(max(values) / weight_F)
            for eps in (math.nextafter(ratio, 0), ratio,
                        math.nextafter(ratio, math.inf)):
                if eps > 0:
                    assert fk.fc2_check(ring, S, F, eps).satisfied == (
                        max(values) < Fraction(eps) * weight_F)

    @pytest.mark.parametrize("F", [{"1"}, {"t"}, {"1", "t"}])
    def test_float_dims_match_the_definition(self, F):
        # the float golden ratio is no exact dimension (phi * phi != 1 + phi
        # in binary), so the definition and the cut expansion part by a
        # rounding error
        ring = fibonacci_ring()
        rep = fk.fc2_check(ring, {"t"}, F, 1.0)
        assert rep.extra["per_label"]["t"] == pytest.approx(
            float(direct_fc2(ring, "t", F)), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(FC2_RINGS))
    def test_reads_each_product_once_from_the_rule(self, name):
        base, S = FC2_RINGS[name]()
        F = set(pool_for(base, 3))
        ring, calls = counting_ring(base)
        fk.fc2_check(ring, S, F, 0.5)
        steps = {t for xi in S for t in (xi, ring.conj(xi))}
        assert len(calls) == len(set(calls))
        assert set(calls) == {(eta, t) for eta in F for t in steps}
        assert ring._cache == {}


class TestTransitionKernel:
    def test_lattice_step(self, z1):
        mu = fk.ProbMeasure.uniform(z1, [1, -1])
        assert fk.transition_kernel(z1, mu, 0, 1) == 0.5

    def test_su2_return(self, su2):
        mu = fk.ProbMeasure.delta(su2, 1)
        assert fk.transition_kernel(su2, mu, 1, 0) == 0.25

    def test_rows_sum_to_one(self, su2, f2):
        rng = random.Random(43)
        for ring in (su2, f2):
            pool = pool_for(ring, 3)
            mu = random_symmetric_measure(ring, rng, pool)
            for xi in rng.sample(pool, 4):
                targets = set()
                for omega in mu.support:
                    targets.update(ring.product(xi, omega))
                total = sum(fk.transition_kernel_exact(ring, mu, xi, eta)
                            for eta in targets)
                assert total == 1

    def test_reversibility_exact(self, su2, dsu2):
        rng = random.Random(47)
        for ring in (su2, dsu2):
            pool = pool_for(ring, 4)
            mu = random_symmetric_measure(ring, rng, pool)
            for _ in range(20):
                xi, eta = rng.choice(pool), rng.choice(pool)
                lhs = ring.sigma(xi) * fk.transition_kernel_exact(ring, mu, xi, eta)
                rhs = ring.sigma(eta) * fk.transition_kernel_exact(ring, mu, eta, xi)
                assert lhs == rhs


class TestDirichlet:
    def test_lattice_point_mass(self, z1):
        mu = fk.ProbMeasure.uniform(z1, [1, -1])
        f = fk.indicator(z1, [0])
        assert fk.dirichlet_norm(z1, mu, f, 1) == pytest.approx(1.0, abs=1e-12)

    def test_constant_on_finite_group_vanishes(self, z6):
        mu = fk.ProbMeasure.uniform(z6, [1, 5])
        f = fk.indicator(z6, range(6))
        assert fk.dirichlet_norm(z6, mu, f, 1) == 0.0
        assert fk.dirichlet_norm(z6, mu, f, 2) == 0.0

    def test_su2_worked_value(self, su2):
        mu = fk.ProbMeasure.delta(su2, 1)
        f = fk.indicator(su2, range(4))
        assert fk.dirichlet_norm(su2, mu, f, 1) == pytest.approx(10.0, abs=1e-12)

    def test_invalid_r(self, su2):
        mu = fk.ProbMeasure.delta(su2, 1)
        with pytest.raises(fk.InvalidParam):
            fk.dirichlet_norm(su2, mu, fk.indicator(su2, [0]), 0)

    def test_energy_identity(self, su2, z1):
        rng = random.Random(53)
        for ring in (su2, z1):
            pool = pool_for(ring, 3)
            for _ in range(10):
                mu = random_symmetric_measure(ring, rng, pool)
                labels = rng.sample(pool, 3)
                f = fk.Element(ring, {l: rng.uniform(-1, 1) for l in labels})
                lhs = fk.dirichlet_norm(ring, mu, f, 2) ** 2
                rho_f = fk.rho_measure_apply(ring, mu, f)
                rhs = fk.inner_sigma(f, f) - fk.inner_sigma(rho_f, f)
                assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-10)


class TestSigmaNormsPastFloatRange:
    """Deformed SU(2) (n = 3) with mu = delta_1 and f = chi_[0,b]: the
    energy sums sigma(b) p(b, b + 1) + sigma(b + 1) p(b + 1, b), so
    ||f||_D(2)**2 = d(b) d(b + 1) / 3, and ||f||_{2,sigma}**2 is the sum of
    d(k)**2 for k <= b.  Both sums leave the float range at b = 369."""

    @staticmethod
    def assert_root_of(value, exact):
        # value equals sqrt(exact) to a relative error of 1e-12
        assert abs(Fraction(value) ** 2 / exact - 1) < 2e-12

    @pytest.mark.parametrize("b", [5, 40, 250, 399])
    def test_closed_forms(self, dsu2, b):
        mu = fk.ProbMeasure.delta(dsu2, 1)
        f = fk.indicator(dsu2, range(b + 1))
        d = dsu2.dim
        D, L = fk.dirichlet_norm(dsu2, mu, f, 2), fk.lp_sigma_norm(f, 2)
        self.assert_root_of(D, Fraction(d(b) * d(b + 1), 3))
        self.assert_root_of(L, sum(d(k) ** 2 for k in range(b + 1)))
        assert fk.nw_ratio(dsu2, mu, f, 2) == D / L

    def test_roots_of_sums_past_float_range(self, dsu2):
        f = fk.indicator(dsu2, range(400))
        with pytest.raises(OverflowError):
            float(sum(dsu2.dim(k) ** 2 for k in range(400)))
        assert 1e166 < fk.lp_sigma_norm(f, 2) < 1e167
        assert fk.lp_sigma_norm(f, 1) == math.inf

    def test_inner_product_saturates(self, dsu2):
        f = fk.indicator(dsu2, range(400))
        rho_f = fk.rho_measure_apply(dsu2, fk.ProbMeasure.delta(dsu2, 1), f)
        assert fk.inner_sigma(f, f) == fk.inner_sigma(rho_f, f) == math.inf
        assert fk.inner_sigma(f, -f) == -math.inf


class TestDirichletOracle:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(["z2", "su2", "dsu2", "f2", "su2xz", "fibz"]),
           st.integers(1, 3), st.data())
    def test_matches_pair_formula_exactly(self, name, r, data):
        # measures need not be symmetric; f is integer or real valued
        ring, _ = search_ring(name)
        pool = pool_for(ring, 2)
        support = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                     max_size=3, unique=True))
        parts = data.draw(st.lists(st.integers(1, 5), min_size=len(support),
                                   max_size=len(support)))
        total = sum(parts)
        mu = fk.ProbMeasure(ring, [(label, float(Fraction(k, total)))
                                   for label, k in zip(support, parts)])
        labels = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                    max_size=5, unique=True))
        values = st.integers(-3, 3) | st.floats(-2, 2, allow_nan=False)
        f = fk.Element(ring, [(label, data.draw(values)) for label in labels])
        assert fk.dirichlet_norm(ring, mu, f, r).hex() == \
            direct_dirichlet(ring, mu, f, r).hex()
        for xi in labels:
            for eta in pool:
                assert fk.transition_kernel_exact(ring, mu, xi, eta) == \
                    direct_kernel(ring, mu, xi, eta)


class TestNWRatio:
    def test_su2_worked_value(self, su2):
        mu = fk.ProbMeasure.delta(su2, 1)
        f = fk.indicator(su2, range(4))
        assert fk.nw_ratio(su2, mu, f, 1) == pytest.approx(1 / 3, abs=1e-12)

    def test_interval_ratios_shrink(self, su2):
        mu = fk.ProbMeasure.delta(su2, 1)
        ratios = [fk.nw_ratio(su2, mu, fk.indicator(su2, range(n + 1)), 1)
                  for n in (3, 10, 60)]
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] < 0.05

    def test_zero_function_rejected(self, su2):
        mu = fk.ProbMeasure.delta(su2, 1)
        with pytest.raises(fk.ZeroFunction):
            fk.nw_ratio(su2, mu, fk.Element(su2, {}), 1)

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("value", [1e-200, Fraction(10 ** 400)],
                             ids=["underflow", "overflow"])
    def test_scale_invariant_past_floats(self, su2, value, r):
        # both norms underflow to 0.0 or overflow to inf; their ratio is
        # that of f = delta_0 all the same
        mu = fk.ProbMeasure.delta(su2, 1)
        assert fk.nw_ratio(su2, mu, fk.Element(su2, {0: 1}), r) == 1.0
        assert fk.nw_ratio(su2, mu, fk.Element(su2, {0: value}), r) == 1.0


#: the sigma-functions, each the call on (ring, f) of a counting SU(2)
SIGMA_FUNCTIONS = {
    "lp_sigma_norm": lambda ring, f: fk.lp_sigma_norm(f, 2),
    "dirichlet_norm": lambda ring, f: fk.dirichlet_norm(
        ring, fk.ProbMeasure.delta(ring, 1), f, 2),
    "nw_ratio": lambda ring, f: fk.nw_ratio(ring, fk.ProbMeasure.delta(ring, 1),
                                            f, 2),
    "inner_sigma f": lambda ring, f: fk.inner_sigma(f, fk.indicator(ring, [3])),
    "inner_sigma g": lambda ring, f: fk.inner_sigma(fk.indicator(ring, [3]), f),
}


class TestSigmaFunctionsRefuseNonReals:
    """An Element may hold complex coefficients; the sigma-functions take
    finite reals only, and refuse the rest before any product is read."""

    @pytest.mark.parametrize("name", sorted(SIGMA_FUNCTIONS))
    @pytest.mark.parametrize("value", [1 + 2j, 2 + 0j, np.complex128(1),
                                       math.nan, np.float64("nan"), math.inf,
                                       -math.inf, Decimal("NaN"),
                                       Decimal("Infinity")],
                             ids=["complex", "complex-real", "np-complex", "nan",
                                  "np-nan", "inf", "-inf", "decimal-nan",
                                  "decimal-inf"])
    def test_refused_naming_label_and_value(self, name, value):
        ring, calls = counting_ring(fk.build_su2_ring())
        f = fk.Element(ring, {0: 1, 3: value})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fk.InvalidParam, match=rf"{re.escape(repr(value))} at 3"):
                SIGMA_FUNCTIONS[name](ring, f)
        assert calls == []

    def test_decimal_coefficients_read_exactly(self, su2):
        mu = fk.ProbMeasure.delta(su2, 1)
        f = fk.Element(su2, {0: Decimal("1.5"), 3: Decimal(2)})
        g = fk.Element(su2, {0: Fraction(3, 2), 3: 2})
        assert fk.lp_sigma_norm(f, 2) == fk.lp_sigma_norm(g, 2)
        assert fk.dirichlet_norm(su2, mu, f, 2) == fk.dirichlet_norm(su2, mu, g, 2)
        assert fk.nw_ratio(su2, mu, f, 2) == fk.nw_ratio(su2, mu, g, 2)
        assert fk.inner_sigma(f, f) == 66.25
        # a Decimal beside a float coefficient or a float dimension
        assert fk.inner_sigma(f, fk.Element(su2, {3: 0.5})) == 16.0
        fib = fibonacci_ring()
        assert fk.inner_sigma(fk.Element(fib, {"t": Decimal(2)}),
                              fk.indicator(fib, ["t"])) == 2 * fib.sigma("t")


class TestFoelnerSearch:
    def test_su2_balls(self, su2):
        result = fk.foelner_search(su2, {1}, 0.1, strategy="balls", budget=200)
        assert result.found
        assert result.labels == tuple(range(60))
        assert result.report.extra["ratio"] < 0.1
        # curve reports every tested radius
        assert [p.step for p in result.curve] == list(range(1, 60))

    def test_lattice_balls(self, z1):
        result = fk.foelner_search(z1, {1, -1}, 0.1, strategy="balls", budget=200)
        assert result.found
        assert set(result.labels) == set(range(-20, 21))
        assert result.report.extra["ratio"] == pytest.approx(4 / 41)

    def test_deformed_budget_exhausted(self, dsu2):
        result = fk.foelner_search(dsu2, {1}, 0.5, strategy="balls", budget=500)
        assert not result.found
        assert result.report.extra["ratio"] > 1.0
        assert not result.report.satisfied

    def test_greedy_on_lattice(self, z1):
        result = fk.foelner_search(z1, {1, -1}, 0.2, strategy="greedy", budget=100)
        assert result.found
        # greedy grows a contiguous interval around 0
        labels = sorted(result.labels)
        assert labels == list(range(labels[0], labels[-1] + 1))
        assert result.report.satisfied
        assert result.report.extra["ratio"] <= 0.2

    def test_greedy_on_su2(self, su2):
        result = fk.foelner_search(su2, {1}, 0.5, strategy="greedy", budget=50)
        assert result.found
        labels = sorted(result.labels)
        assert labels == list(range(len(labels)))

    def test_finite_ring_terminates(self, z6):
        result = fk.foelner_search(z6, {1, 5}, 1e-6, strategy="balls", budget=50)
        # the whole group has empty boundary, so the search succeeds exactly
        assert result.found
        assert sorted(result.labels) == list(range(6))

    def test_bad_arguments(self, su2):
        with pytest.raises(fk.InvalidParam):
            fk.foelner_search(su2, {1}, 0.0)
        with pytest.raises(fk.InvalidParam):
            fk.foelner_search(su2, {1}, 0.1, strategy="magic")
        with pytest.raises(fk.EmptySet):
            fk.foelner_search(su2, set(), 0.1)

    def test_budget_below_radius_one(self, z2):
        # the radius-1 ball of Z^2 has 5 labels; nothing fits a budget of 4
        with pytest.raises(fk.BudgetExceeded):
            fk.foelner_search(z2, z2.generators, 0.1, strategy="balls", budget=4)


class TestSearchPins:
    """Search outputs pinned to closed forms and to values fixed at the
    seed commit (the benchmark checks the same ones)."""

    def test_z2_greedy_stalls(self, z2):
        result = fk.foelner_search(z2, z2.generators, 0.05, strategy="greedy",
                                   budget=80)
        rep = result.report
        assert (result.found, rep.set_size, rep.extra["weight_boundary"],
                rep.weight_F, len(result.curve)) == (False, 80, 164, 80, 80)

    def test_z2_balls_l1_curve(self, z2):
        # the l1 ball of radius r has 2r^2 + 2r + 1 points, 4r inner and
        # 4(r + 1) outer boundary points; 12/25 > 0.1 > 324/3281 at r = 40
        result = fk.foelner_search(z2, z2.generators, 0.1, strategy="balls",
                                   budget=4000)
        assert result.found
        assert [p.step for p in result.curve] == list(range(1, 41))
        for p in result.curve:
            r = p.step
            assert (p.weight_boundary, p.weight_F) == (8 * r + 4, 2 * r * r + 2 * r + 1)
        assert set(result.labels) == {(x, y) for x in range(-40, 41)
                                      for y in range(-40, 41)
                                      if abs(x) + abs(y) <= 40}

    def test_z2_balls_products(self):
        # the rows c * t of the 3,281 labels of the radius-40 ball by the 4
        # steps, each read once from the rule: the rows of radius r give
        # both the boundary of B_r and the labels of radius r + 1
        ring, calls = counting_ring(fk.integer_lattice_ring(2))
        result = fk.foelner_search(ring, ring.generators, 0.1, strategy="balls",
                                   budget=4000)
        assert (result.found, len(result.labels)) == (True, 3281)
        assert len(calls) == len(set(calls)) == 13_124
        assert ring._cache == {}

    def test_deformed_balls_products(self):
        # the rows k * 1 of the 600 labels 0..599: the budget stops the
        # search while it expands radius 600
        ring, calls = counting_ring(fk.build_deformed_su2_ring(3))
        result = fk.foelner_search(ring, {1}, 0.5, strategy="balls", budget=600)
        assert not result.found
        assert len(calls) == len(set(calls)) == 600
        assert ring._cache == {}

    def test_fc3_on_a_ball_products(self, z2):
        # the rows of the 1,861 labels of the radius-30 ball by 4 steps
        ball = fk.build_window(z2, z2.generators, 30).labels
        ring, calls = counting_ring(z2)
        report = fk.fc3_check(ring, ring.generators, ball, 0.5)
        assert (report.satisfied, report.extra["weight_boundary"]) == (True, 244)
        assert len(calls) == len(set(calls)) == 7_444
        assert ring._cache == {}

    def test_z2_greedy_products(self):
        # the greedy cut reads products again, so it reads through the
        # cache: every rule evaluation is a miss the cache kept
        ring, calls = counting_ring(fk.integer_lattice_ring(2))
        fk.foelner_search(ring, ring.generators, 0.05, strategy="greedy",
                          budget=80)
        assert len(calls) == len(ring._cache) == 648
        assert set(calls) == ring._cache.keys()

    def test_deformed_balls_curve(self, dsu2):
        # balls are the intervals [0, r] with boundary {r, r + 1}; the
        # dimensions of the n = 3 family obey d(k+1) = 3 d(k) - d(k-1)
        d = [1, 3]
        while len(d) < 602:
            d.append(3 * d[-1] - d[-2])
        result = fk.foelner_search(dsu2, {1}, 0.5, strategy="balls", budget=600)
        assert not result.found
        assert [p.step for p in result.curve] == list(range(1, 600))
        for p in result.curve:
            r = p.step
            assert p.set_size == r + 1
            assert (p.weight_boundary, p.weight_F) == (
                d[r] ** 2 + d[r + 1] ** 2, sum(x * x for x in d[:r + 1]))

    @pytest.mark.parametrize("strategy,eps", [("balls", 0.1), ("greedy", 0.3)])
    def test_float_dims_curve_matches_fc3(self, strategy, eps):
        ring = fk.tensor_product(fibonacci_ring(), fk.integer_lattice_ring(1))
        S = {("t", 0), ("1", 1)}
        result = fk.foelner_search(ring, S, eps, strategy=strategy, budget=400)
        assert result.found
        for p in result.curve:
            rep = fk.fc3_check(ring, S, result.labels[:p.set_size], eps)
            assert math.isclose(p.weight_F, rep.weight_F, rel_tol=1e-12)
            assert math.isclose(p.weight_boundary, rep.extra["weight_boundary"],
                                rel_tol=1e-12)
            assert math.isclose(p.ratio, rep.extra["ratio"], rel_tol=1e-12)



@functools.cache
def search_ring(name):
    """A ring and the support S that the search-report test grows F by."""
    ring = {"z2": lambda: fk.integer_lattice_ring(2),
            "su2": fk.build_su2_ring,
            "f2": lambda: fk.free_group_ring(2),
            "dsu2": lambda: fk.build_deformed_su2_ring(3),
            "fibz": lambda: fk.tensor_product(fibonacci_ring(),
                                              fk.integer_lattice_ring(1)),
            "su2xz": lambda: fk.tensor_product(fk.build_su2_ring(),
                                               fk.integer_lattice_ring(1))}[name]()
    return ring, set(ring.generators)


def bits(value):
    """A value with its floats spelled exactly, for bitwise comparison."""
    if isinstance(value, float):
        return float, value.hex()
    if isinstance(value, (tuple, list)):
        return type(value), [bits(v) for v in value]
    if isinstance(value, dict):
        return dict, {k: bits(v) for k, v in value.items()}
    return type(value), value


def assert_report_equal(got, want):
    for f in dataclasses.fields(fk.FoelnerReport):
        assert bits(getattr(got, f.name)) == bits(getattr(want, f.name)), f.name


class TestLabelsCheckedOnce:
    # a label is checked where it enters the public API; the labels read
    # off products of checked labels are not checked again

    def test_z2_balls_search(self):
        # S at the door; reading sigma through the checking
        # FusionRing.sigma asked 16,411 times
        ring, asked = label_counting_ring(fk.integer_lattice_ring(2))
        result = fk.foelner_search(ring, ring.generators, 0.1, strategy="balls",
                                   budget=4000)
        assert (result.found, len(result.labels)) == (True, 3281)
        assert sorted(asked) == sorted(ring.generators)

    def test_fc3_on_a_ball(self, z2):
        # 4 + 1,861 door checks (9,676 asks with a checking sigma)
        ring, asked = label_counting_ring(z2)
        ball = fk.build_window(z2, z2.generators, 30).labels
        assert fk.fc3_check(ring, ring.generators, ball, 0.5).satisfied
        assert asked == [*ring.generators, *ball]

    def test_fc1_on_an_interval(self, su2):
        # the 401 labels of F at the door (2,404 asks with a checking
        # sigma)
        ring, asked = label_counting_ring(su2)
        mu = fk.measure_from_decomposition(ring, {0: 1, 1: 1})
        assert asked == [0, 1]
        del asked[:]
        report = fk.fc1_check(ring, mu, range(401), 0.05)
        assert report.satisfied and report.extra["support_identity_holds"]
        assert asked == list(range(401))


class TestSearchReport:
    """The search reports from its own cut exactly what fc3_check reports
    for the returned set."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["z2", "su2", "f2", "dsu2", "fibz", "su2xz"]),
           st.sampled_from(["balls", "greedy"]),
           st.sampled_from([0.01, 0.1, 0.3, 1.0, 2.5]), st.integers(1, 60))
    def test_report_equals_fc3_check(self, name, strategy, eps, budget):
        ring, S = search_ring(name)
        try:
            result = fk.foelner_search(ring, S, eps, strategy=strategy,
                                       budget=budget)
        except fk.BudgetExceeded:
            return  # the radius-1 ball does not fit the budget
        assert_report_equal(result.report,
                            fk.fc3_check(ring, S, set(result.labels), eps))

    @pytest.mark.parametrize("name", ["z2", "su2", "f2", "dsu2", "fibz", "su2xz"])
    def test_balls_curve_points_are_fc3_of_their_balls(self, name):
        # each point's boundary weight is the subset sum fc3_check reports
        # for the ball of its step, to the bit on float dimensions too
        ring, S = search_ring(name)
        result = fk.foelner_search(ring, S, 0.01, strategy="balls", budget=400)
        for p in result.curve:
            ball = fk.build_window(ring, S, p.step).labels
            rep = fk.fc3_check(ring, S, ball, 0.01)
            assert p.set_size == len(ball)
            assert bits(p.weight_boundary) == bits(rep.extra["weight_boundary"])
            assert bits(p.ratio) == bits(float(
                Fraction(p.weight_boundary) / Fraction(p.weight_F)))

    def test_best_prefix_shorter_than_final_set(self):
        ring, S = search_ring("su2xz")
        result = fk.foelner_search(ring, S, 0.01, strategy="greedy", budget=10)
        assert len(result.labels) < result.curve[-1].set_size
        assert_report_equal(result.report,
                            fk.fc3_check(ring, S, set(result.labels), 0.01))

    @pytest.mark.parametrize("strategy", ["balls", "greedy"])
    def test_float_dims_bitwise(self, strategy):
        # the curve's running weight sums differ from the once-rounded
        # subset weights in the last bits here; the report has the latter
        ring, S = search_ring("fibz")
        result = fk.foelner_search(ring, S, 0.01, strategy=strategy, budget=60)
        last = result.curve[-1]
        assert len(result.labels) == last.set_size
        assert last.weight_F != result.report.weight_F
        assert_report_equal(result.report,
                            fk.fc3_check(ring, S, result.labels, 0.01))


class TestSupportIdentity:
    def test_supp_convolution_equals_F_union_boundary(self, su2, z1, f2):
        rng = random.Random(59)
        for ring in (su2, z1, f2):
            pool = pool_for(ring, 3)
            for _ in range(10):
                mu = random_symmetric_measure(ring, rng, pool, include_unit=True)
                F = set(rng.sample(pool, rng.randint(1, min(5, len(pool)))))
                chi = fk.indicator(ring, F)
                conv = fk.convolve(chi, mu.as_element())
                b = fk.boundary(ring, set(mu.support), F)
                assert set(conv.support) == F | b.labels

    def test_broken_frobenius_next_to_F(self, su2):
        # 3 * 1 patched to reach 7, whose products by S = {0, 1} stay
        # outside F = [0, 3]: 7 is in supp(chi_F * mu) but not in the
        # outer boundary, which holds only the labels whose rows meet F
        for ring, size, holds in ((su2, 5, True),
                                  (patched_ring(su2, {(3, 1): {2: 1, 4: 1, 7: 1}}),
                                   6, False)):
            mu = fk.ProbMeasure.uniform(ring, [0, 1])
            rep = fk.fc1_check(ring, mu, range(4), 0.5)
            assert rep.extra["support_size"] == size
            assert rep.extra["support_identity_holds"] is holds

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 6), st.integers(1, 6), st.sampled_from([1, 2]),
           st.integers(0, 20), st.data())
    def test_identity_matches_the_definition_on_broken_rings(
            self, lo, size, xi, extra, data):
        # one product alpha * xi (alpha in F) gains the label ``extra``;
        # the identity holds iff every support label outside F has a
        # product by S that meets F (brute scan of the definition)
        F = set(range(lo, lo + size))
        alpha = data.draw(st.sampled_from(sorted(F)))
        base = fk.build_su2_ring()
        ring = patched_ring(base, {(alpha, xi): {**base.product(alpha, xi),
                                                 extra: 1}})
        S = {0, xi}
        rep = fk.fc1_check(ring, fk.ProbMeasure.uniform(ring, S), F, 0.5)
        support = F.union(*(ring.product(a, t) for a in F for t in S))
        _, outer = brute_boundary(ring, S, F, support)
        assert rep.extra["support_size"] == len(support)
        assert rep.extra["support_identity_holds"] == (support - F <= outer)


class TestFCChain:
    def test_fc3_implies_fc1_at_fixed_witnesses(self, su2, z1, f2):
        # whenever FC3 holds for a symmetric S containing e, FC1 holds for
        # the uniform measure on S with the same F and epsilon
        rng = random.Random(61)
        for ring in (su2, z1, f2):
            pool = pool_for(ring, 3)
            chained = 0
            for _ in range(40):
                raw = set(rng.sample(pool, rng.randint(1, 3)))
                S = {ring.unit} | raw | {ring.conj(x) for x in raw}
                F = set(rng.sample(pool, rng.randint(1, min(6, len(pool)))))
                eps = rng.choice([0.3, 0.8, 1.5, 4.0])
                if fk.fc3_check(ring, S, F, eps).satisfied:
                    mu = fk.ProbMeasure.uniform(ring, S)
                    assert fk.fc1_check(ring, mu, F, eps).satisfied
                    chained += 1
            assert chained  # the implication was actually exercised
