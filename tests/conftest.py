from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported: the Lanczos search
# makes many small BLAS calls, and a thread pool's hand-offs slow them
# down several times over on a busy host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import collections
import itertools
import random
import types
from fractions import Fraction

import pytest

import fusionkit as fk


@pytest.fixture(scope="session")
def su2():
    return fk.build_su2_ring()


@pytest.fixture(scope="session")
def dsu2():
    return fk.build_deformed_su2_ring(3)


@pytest.fixture(scope="session")
def z1():
    return fk.integer_lattice_ring(1)


@pytest.fixture(scope="session")
def z2():
    return fk.integer_lattice_ring(2)


@pytest.fixture(scope="session")
def f2():
    return fk.free_group_ring(2)


@pytest.fixture(scope="session")
def z6():
    return fk.cyclic_ring(6)


@pytest.fixture(scope="session")
def su2xz(su2, z1):
    return fk.tensor_product(su2, z1)


def fibonacci_ring():
    # Fibonacci rules t*t = 1 + t with d(t) the golden ratio (a float)
    phi = (1 + 5 ** 0.5) / 2
    prods = {("1", "1"): {"1": 1}, ("1", "t"): {"t": 1},
             ("t", "1"): {"t": 1}, ("t", "t"): {"1": 1, "t": 1}}
    return fk.FusionRing(unit="1", product_rule=lambda x, y: prods[(x, y)],
                         conjugate_rule=lambda x: x,
                         dim_rule=lambda x: phi if x == "t" else 1,
                         generators=("t",), is_label=lambda x: x in ("1", "t"))


def counting_ring(base):
    """A fresh copy of ``base`` with an empty product cache, and the list
    of the (xi, eta) pairs its product rule is evaluated on."""
    calls = []

    def product_rule(xi, eta):
        calls.append((xi, eta))
        return base._product_rule(xi, eta)

    ring = fk.FusionRing(unit=base.unit, product_rule=product_rule,
                         conjugate_rule=base._conjugate_rule,
                         dim_rule=base._dim_rule, generators=base.generators,
                         is_label=base._is_label, description=base.description)
    return ring, calls


def patched_ring(base, overrides, generators=()):
    """``base`` with the products of the pairs in ``overrides`` replaced,
    declaring ``generators`` (by default none, so that ``verify_axioms``
    tests every window triple for associativity)."""
    def rule(x, y):
        p = overrides.get((x, y))
        return dict(p) if p is not None else base.product(x, y)

    return fk.FusionRing(unit=base.unit, product_rule=rule,
                         conjugate_rule=base.conj, dim_rule=base.dim,
                         description=f"patched {base.description}",
                         generators=generators, is_label=base.contains,
                         format_label=base.format_label)


def reshape(product, shape, zeros):
    """``product`` as a Counter, a read-only proxy, or a dict with an
    explicit zero (False, then 0.0) at each label of ``zeros`` that it does
    not hold."""
    if shape == "counter":
        return collections.Counter(product)
    if shape == "proxy":
        return types.MappingProxyType(dict(product))
    if shape == "zeros":
        return dict(zip(zeros, (False, 0.0))) | product
    return product


def reshaped_ring(base, shape):
    """``base`` with every product returned as ``reshape`` makes it."""
    return fk.FusionRing(
        unit=base.unit,
        product_rule=lambda x, y: reshape(base._product_rule(x, y), shape, (x, y)),
        conjugate_rule=base._conjugate_rule, dim_rule=base._dim_rule,
        description=base.description, is_label=base._is_label,
        format_label=base.format_label)


#: the maps a raw product rule may return: Counters, read-only proxies,
#: dicts with explicit zeros at x and y, and at the labels of (x*y)*y
RAW_SHAPES = ["counter", "proxy", "zeros", "far-zeros"]


def raw_ring(base, shape):
    """``base`` with every product returned in one of the RAW_SHAPES.  The
    far zeros lie mostly where the window search has not been yet, while
    x and y of a product it reads are reached already."""
    if shape != "far-zeros":
        return reshaped_ring(base, shape)

    def rule(x, y):
        product = base._product_rule(x, y)
        farther = [a for z in product for a in base._product_rule(z, y)]
        return dict(zip(farther, itertools.cycle((False, 0.0)))) | product

    return fk.FusionRing(unit=base.unit, product_rule=rule,
                         conjugate_rule=base._conjugate_rule,
                         dim_rule=base._dim_rule, is_label=base._is_label,
                         description=base.description)


def label_counting_ring(base):
    """A copy of ``base`` and the list of the values its label rule is
    asked about, in order."""
    asked = []

    def is_label(x):
        asked.append(x)
        return base.contains(x)

    ring = fk.FusionRing(unit=base.unit, product_rule=base._product_rule,
                         conjugate_rule=base._conjugate_rule,
                         dim_rule=base._dim_rule, generators=base.generators,
                         is_label=is_label, description=base.description,
                         parse_label=base.parse_label,
                         format_label=base.format_label)
    return ring, asked


def pool_for(ring, radius=4):
    """A finite label pool: the window generated by the declared generators."""
    gens = ring.generators if ring.generators else (ring.unit,)
    return list(fk.build_window(ring, gens, radius).labels)


def random_symmetric_measure(ring, rng: random.Random, pool, *,
                             include_unit=False, max_classes=3):
    """A random symmetric measure with exactly equal weights on conjugate
    pairs (rational construction, floats only at the end)."""
    labels = list(pool)
    rng.shuffle(labels)
    classes = []
    used = set()
    for label in labels:
        if len(classes) >= max_classes:
            break
        if label in used:
            continue
        cls = frozenset({label, ring.conj(label)})
        classes.append(cls)
        used |= cls
    if include_unit and ring.unit not in used:
        classes.append(frozenset({ring.unit}))
    ints = [rng.randint(1, 5) for _ in classes]
    total = sum(ints)
    weights = {}
    for cls, w in zip(classes, ints):
        share = Fraction(w, total)
        if len(cls) == 1:
            (label,) = cls
            weights[label] = float(share)
        else:
            for label in cls:
                weights[label] = float(share / 2)
    return fk.ProbMeasure(ring, weights)


def random_real_function(ring, rng: random.Random, pool, size=4):
    labels = rng.sample(list(pool), min(size, len(pool)))
    return fk.Element(ring, {l: rng.uniform(-2.0, 2.0) for l in labels})


def random_integer_function(ring, rng: random.Random, pool, size=4, lo=-3, hi=3):
    labels = rng.sample(list(pool), min(size, len(pool)))
    return fk.Element(ring, {l: rng.randint(lo, hi) for l in labels})


def random_subset(rng: random.Random, pool, max_size=6):
    k = rng.randint(1, min(max_size, len(pool)))
    return set(rng.sample(list(pool), k))


def nested_tensor_text(depth):
    """A tensor builtin of cyclic(2) rings nested ``depth`` deep, as JSON
    text (json.dumps itself would recurse too deeply at depth 2,000)."""
    leaf = '{"type": "builtin", "name": "cyclic", "params": {"n": 2}}'
    head = '{"type": "builtin", "name": "tensor", "params": {"left": '
    return head * depth + leaf + (', "right": ' + leaf + '}}') * depth
