"""Only the greedy Foelner search caches products.

Every other entry reads the product rule and leaves the ring's product
cache empty; the boundary, FC1-FC3 and the balls search among them, since
they read each product once.  The greedy search's cut scores candidates
by reading their products again, so it reads through the cache: the rule
is evaluated only on a miss, and a second run only hits.
"""
import pytest

import fusionkit as fk
from conftest import counting_ring

BASES = {
    "su2": fk.build_su2_ring,
    "f2": lambda: fk.free_group_ring(2),
    "z2": lambda: fk.integer_lattice_ring(2),
    "z6": lambda: fk.cyclic_ring(6),
}


def su2_element(ring, value=1):
    return fk.Element(ring, {k: value for k in range(20)})


def delta1(ring):
    return fk.ProbMeasure.delta(ring, 1)


def tensor_factor(ring):
    # a tensor ring over ``ring``, read by every layer, Foelner's included
    tensor = fk.tensor_product(ring, fk.cyclic_ring(3))
    S = tensor.generators
    fk.verify_axioms(tensor, fk.build_window(tensor, S, 3))
    fk.multiply(*[fk.indicator(tensor, fk.build_window(tensor, S, 2))] * 2)
    fk.foelner_search(tensor, S, 0.5, strategy="balls", budget=60)


#: entry -> (base ring, call, whether it reads through the cache)
ENTRIES = {
    "product": ("su2", lambda r: r.product(3, 4), False),
    "build_window": ("f2", lambda r: fk.build_window(r, r.generators, 3), False),
    "verify_axioms": ("su2", lambda r: fk.verify_axioms(r, range(10)), False),
    "export_table": ("z6", lambda r: fk.export_table(r, range(6)), False),
    "multiply": ("su2", lambda r: fk.multiply(su2_element(r), su2_element(r)),
                 False),
    "convolve": ("su2", lambda r: fk.convolve(su2_element(r, 0.5),
                                              su2_element(r, 0.25)), False),
    "rho1_operator_apply": (
        "su2", lambda r: fk.rho1_operator_apply(r, 1, su2_element(r)), False),
    "rho_measure_apply": (
        "su2", lambda r: fk.rho_measure_apply(r, delta1(r), su2_element(r)),
        False),
    "lambda_operator_apply": (
        "su2", lambda r: fk.lambda_operator_apply(r, 1, su2_element(r)), False),
    "lambda_measure_apply": (
        "su2", lambda r: fk.lambda_measure_apply(r, delta1(r), su2_element(r)),
        False),
    "l_measure_operator": (
        "f2", lambda r: fk.l_measure_operator(
            r, fk.ProbMeasure.uniform(r, r.generators),
            fk.build_window(r, r.generators, 3)), False),
    "gns_operator": (
        "su2", lambda r: fk.gns_operator(r, su2_element(r),
                                         fk.build_window(r, [1], 30)), False),
    "amenability_estimate": (
        "f2", lambda r: fk.amenability_estimate(
            r, fk.ProbMeasure.uniform(r, r.generators), [1, 2, 3]), False),
    "transition_kernel_exact": (
        "su2", lambda r: fk.transition_kernel_exact(r, delta1(r), 2, 3), False),
    "dirichlet_norm": ("su2", lambda r: fk.dirichlet_norm(
        r, fk.ProbMeasure.uniform(r, [1, 2]), su2_element(r), 2), False),
    "tensor_factor": ("su2", tensor_factor, False),
    "boundary": ("su2", lambda r: fk.boundary(r, [1, 2], range(10)), False),
    "fc1_check": ("su2", lambda r: fk.fc1_check(
        r, fk.ProbMeasure.uniform(r, [0, 1]), range(10), 0.5), False),
    "fc2_check": ("su2", lambda r: fk.fc2_check(r, [1], range(10), 0.5), False),
    "fc3_check": ("su2", lambda r: fk.fc3_check(r, [1], range(10), 0.5), False),
    "foelner_search_balls": ("z2", lambda r: fk.foelner_search(
        r, r.generators, 0.1, strategy="balls", budget=300), False),
    "foelner_search_greedy": ("z2", lambda r: fk.foelner_search(
        r, r.generators, 0.05, strategy="greedy", budget=30), True),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_only_the_foelner_layer_caches_products(entry):
    name, run, cached = ENTRIES[entry]
    ring, calls = counting_ring(BASES[name]())
    run(ring)
    assert calls
    if not cached:
        assert ring._cache == {}
        return
    # every rule evaluation was a miss that the cache kept
    assert len(calls) == len(ring._cache)
    assert set(calls) == ring._cache.keys()
    del calls[:]
    run(ring)
    assert calls == []
