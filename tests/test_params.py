"""Every numeric parameter of the public API goes through ``count`` or
``positive``.

One table lists each parameter with the call that feeds it a value.  Every
junk value and every value just past a bound must raise InvalidParam before
any product rule is evaluated, and a numpy int must give the same result as
the int it stands for.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

import fusionkit as fk
from conftest import counting_ring
from fusionkit.catalog import MAX_LATTICE_RANK
from fusionkit.errors import count, positive


def _top_eigenvalue(ring):
    window = fk.build_window(ring, {1}, 4)
    op = fk.l_measure_operator(ring, fk.ProbMeasure.delta(ring, 1), window)
    return lambda v: fk.top_eigenvalue(op, tol=v)


def _dirichlet(ring):
    mu, f = fk.ProbMeasure.delta(ring, 1), fk.indicator(ring, [0, 1])
    return lambda v: fk.dirichlet_norm(ring, mu, f, v)


def _builtin(name, key):
    return lambda ring: lambda v: fk.ring_from_doc(
        {"type": "builtin", "name": name, "params": {key: v}})


#: parameter -> (setup, least, most, a valid value); setup(ring) runs on a
#: counting copy of SU(2) and returns the call that takes the value, and
#: least/most are the bounds of a count (most None: unbounded), or None
#: for a positive number
PARAMS = {
    "build_window radius": (
        lambda ring: lambda v: fk.build_window(ring, {1}, v), 0, None, 4),
    "build_window cap": (
        lambda ring: lambda v: fk.build_window(ring, {1}, 3, cap=v), 1, None, 10),
    "amenability_estimate radii": (
        lambda ring: lambda v: fk.amenability_estimate(
            ring, fk.ProbMeasure.delta(ring, 1), [v]), 0, None, 4),
    "amenability_estimate cap": (
        lambda ring: lambda v: fk.amenability_estimate(
            ring, fk.ProbMeasure.delta(ring, 1), [3], cap=v), 1, None, 10),
    "amenability_estimate tol": (
        lambda ring: lambda v: fk.amenability_estimate(
            ring, fk.ProbMeasure.delta(ring, 1), [3], tol=v), None, None, 1e-9),
    "top_eigenvalue tol": (_top_eigenvalue, None, None, 1e-9),
    "prefix radius": (
        lambda ring: fk.build_window(ring, {1}, 5).prefix, 0, 5, 3),
    "fc1_check eps": (
        lambda ring: lambda v: fk.fc1_check(
            ring, fk.ProbMeasure(ring, {0: 0.5, 1: 0.5}), {0, 1}, v),
        None, None, 0.5),
    "fc2_check eps": (
        lambda ring: lambda v: fk.fc2_check(ring, {1}, {0, 1}, v), None, None, 0.5),
    "fc3_check eps": (
        lambda ring: lambda v: fk.fc3_check(ring, {1}, {0, 1}, v), None, None, 0.5),
    "foelner_search eps": (
        lambda ring: lambda v: fk.foelner_search(ring, {1}, v), None, None, 0.5),
    "foelner_search budget": (
        lambda ring: lambda v: fk.foelner_search(ring, {1}, 0.5, budget=v),
        1, None, 50),
    "dirichlet_norm r": (_dirichlet, 1, None, 2),
    "lp_sigma_norm r": (
        lambda ring: lambda v: fk.lp_sigma_norm(fk.indicator(ring, [0, 1]), v),
        1, None, 2),
    "integer_lattice_ring d": (
        lambda ring: fk.integer_lattice_ring, 1, MAX_LATTICE_RANK, 2),
    "cyclic_ring n": (lambda ring: fk.cyclic_ring, 1, None, 6),
    "free_group_ring rank": (lambda ring: fk.free_group_ring, 1, 26, 2),
    "build_deformed_su2_ring n": (
        lambda ring: fk.build_deformed_su2_ring, 2, None, 3),
    "measure_from_decomposition multiplicity": (
        lambda ring: lambda v: fk.measure_from_decomposition(ring, {0: 1, 1: v}),
        1, None, 2),
    "ring document zd d": (_builtin("zd", "d"), 1, MAX_LATTICE_RANK, 2),
    "ring document cyclic n": (_builtin("cyclic", "n"), 1, None, 6),
    "ring document free rank": (_builtin("free", "rank"), 1, 26, 2),
    "ring document deformed_su2 n": (_builtin("deformed_su2", "n"), 2, None, 3),
}

#: refused by both kinds of parameter
JUNK = (None, "5", True, math.nan, math.inf)


def _bad_values(least, most):
    if least is None:  # a positive number: 2.5 is valid, 0 is just past
        return (*JUNK, 0, -0.5, -math.inf)
    return (*JUNK, 2.5, least - 1) + (() if most is None else (most + 1,))


BAD_CASES = [(name, value) for name, (_, least, most, _) in PARAMS.items()
             for value in _bad_values(least, most)]


def _fresh(name):
    # the call of a parameter, on a counting SU(2) whose rule calls and
    # cache are cleared after its setup
    ring, calls = counting_ring(fk.build_su2_ring())
    call = PARAMS[name][0](ring)
    calls.clear()
    return call, ring, calls, dict(ring._cache)


@pytest.mark.parametrize("name, value", BAD_CASES,
                         ids=[f"{name}={value!r}" for name, value in BAD_CASES])
def test_invalid_value_rejected_before_any_product(name, value):
    call, ring, calls, cache = _fresh(name)
    with pytest.raises(fk.InvalidParam):
        call(value)
    assert calls == [] and ring._cache == cache


def _view(result):
    # a comparable form of what a call returns
    if isinstance(result, fk.TruncationWindow):
        return result.labels, result.radius, result.level_sizes
    if isinstance(result, fk.FusionRing):
        return result.description, result.unit, result.generators
    if isinstance(result, fk.ProbMeasure):
        return result.weights
    return result


@pytest.mark.parametrize("name", [name for name, (_, least, _, _) in PARAMS.items()
                                  if least is not None])
def test_numpy_int_gives_the_int_result(name):
    good = PARAMS[name][3]
    want = _view(_fresh(name)[0](good))
    got = _view(_fresh(name)[0](np.int64(good)))
    assert got == want


@pytest.mark.parametrize("name", [name for name, (_, least, _, _) in PARAMS.items()
                                  if least is None])
def test_exact_and_integer_positives_accepted(name):
    call = _fresh(name)[0]
    good = PARAMS[name][3]
    assert _view(call(Fraction(good))) == _view(call(good))
    call(1)
    call(np.int64(1))


class TestChecks:
    def test_count_bounds(self):
        assert count(0, "x", 0) == 0
        assert count(26, "x", 1, 26) == 26
        assert type(count(np.int64(7), "x", 1)) is int
        with pytest.raises(fk.InvalidParam, match="in 1..26"):
            count(27, "x", 1, 26)
        with pytest.raises(fk.InvalidParam, match=">= 1"):
            count(0, "x", 1)

    @pytest.mark.parametrize("value", [None, "5", 2.5, 2.0, True, np.bool_(True),
                                       math.nan, Fraction(2)])
    def test_count_refuses_non_integers(self, value):
        with pytest.raises(fk.InvalidParam, match="must be an integer"):
            count(value, "x", 0)

    def test_positive_keeps_exact_values(self):
        third = Fraction(1, 3)
        assert positive(third, "x") is third
        assert positive(10 ** 400, "x") == 10 ** 400
        assert type(positive(np.int64(3), "x")) is int
        assert positive(np.float64(0.25), "x") == 0.25

    @pytest.mark.parametrize("value", [0, -1, 0.0, -0.0, None, "0.1", True,
                                       math.nan, math.inf, np.float32(0.5), 1j])
    def test_positive_refuses(self, value):
        with pytest.raises(fk.InvalidParam, match="finite number > 0"):
            positive(value, "x")
