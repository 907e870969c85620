"""Concrete fusion rings: group rings, SU(2)-type rules, tensor products.

Group rings carry the trivial dimension function and inversion as the
involution.  The SU(2) ring has labels k = 0, 1, 2, ... with the usual
truncated tensor-product rules and d(k) = k + 1; its deformed variant keeps
the same rules but replaces the dimensions by the quantum dimensions
d(0) = 1, d(1) = n, d(k+1) = n d(k) - d(k-1), which is what the free
orthogonal deformations contribute at the fusion-rule level.  All catalog
rings have exact integer dimensions.
"""
from __future__ import annotations

import operator
import string
from fractions import Fraction
from typing import Mapping

from .core import FusionRing, ProbMeasure, _kind, check_labels, verify_axioms
from .errors import InvalidParam, InvalidTable, count


# ---------------------------------------------------------------------------
# group rings
# ---------------------------------------------------------------------------

def trivial_ring() -> FusionRing:
    """The one-element ring, handy for identity-law tests."""
    return FusionRing(
        unit="e",
        product_rule=lambda x, y: {"e": 1},
        conjugate_rule=lambda x: "e",
        dim_rule=lambda x: 1,
        description="trivial ring",
        generators=(),
        is_label=lambda x: x == "e",
        parse_label=lambda text: "e" if text in ("e", "1") else text,
    )


#: largest rank of Z^d: its 2d generators are d-tuples, built up front
MAX_LATTICE_RANK = 64


def integer_lattice_ring(d: int) -> FusionRing:
    """The group ring of Z^d for d in 1..MAX_LATTICE_RANK.  Labels are ints
    for d = 1, int tuples otherwise."""
    d = count(d, "lattice rank", 1, MAX_LATTICE_RANK)
    if d == 1:
        return FusionRing(
            unit=0,
            product_rule=lambda x, y: {x + y: 1},
            conjugate_rule=lambda x: -x,
            dim_rule=lambda x: 1,
            description="group ring of Z",
            generators=(1, -1),
            is_label=lambda x: isinstance(x, int) and not isinstance(x, bool),
            parse_label=lambda text: int(text),
        )

    def is_label(x):
        return (isinstance(x, tuple) and len(x) == d
                and all(isinstance(c, int) and not isinstance(c, bool) for c in x))

    def parse(text: str):
        parts = text.strip().lstrip("(").rstrip(")").split(";")
        if len(parts) != d:
            raise InvalidParam(f"expected {d} components in {text!r}")
        return tuple(int(p) for p in parts)

    gens = []
    for i in range(d):
        e_i = tuple(1 if j == i else 0 for j in range(d))
        gens.append(e_i)
        gens.append(tuple(-c for c in e_i))
    return FusionRing(
        unit=(0,) * d,
        product_rule=lambda x, y: {tuple(map(operator.add, x, y)): 1},
        conjugate_rule=lambda x: tuple(map(operator.neg, x)),
        dim_rule=lambda x: 1,
        description=f"group ring of Z^{d}",
        generators=tuple(gens),
        is_label=is_label,
        parse_label=parse,
        format_label=lambda x: ";".join(str(c) for c in x),
    )


def cyclic_ring(n: int) -> FusionRing:
    """The group ring of Z/n with labels 0..n-1."""
    n = count(n, "cyclic order", 1)
    gens = tuple(sorted({1 % n, (n - 1) % n} - {0}))
    return FusionRing(
        unit=0,
        product_rule=lambda x, y: {(x + y) % n: 1},
        conjugate_rule=lambda x: (-x) % n,
        dim_rule=lambda x: 1,
        description=f"group ring of Z/{n}",
        generators=gens,
        is_label=lambda x: isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n,
        parse_label=lambda text: int(text),
    )


def free_group_ring(rank: int) -> FusionRing:
    """The group ring of the free group F_rank.

    Labels are reduced words over the letters a, b, c, ... with uppercase
    letters denoting inverses; the empty word is the unit (rendered "e").
    """
    rank = count(rank, "free rank", 1, 26)
    letters = string.ascii_lowercase[:rank]
    alphabet = letters + letters.upper()
    cancelling = tuple(ch + ch.swapcase() for ch in alphabet)
    inverse = dict(zip(alphabet, alphabet.swapcase()))  # letter -> its inverse

    def is_label(w):
        # a reduced word: only alphabet letters (strip leaves nothing) and no
        # letter next to its inverse; both tests run as string methods in C
        return (isinstance(w, str) and not w.strip(alphabet)
                and not any(pair in w for pair in cancelling))

    def product(u, v):
        if not (u and v and u[-1] == inverse[v[0]]):
            return {u + v: 1}  # nothing cancels
        i = len(u)
        j = 0
        while i > 0 and j < len(v) and u[i - 1] == inverse[v[j]]:
            i -= 1
            j += 1
        return {u[:i] + v[j:]: 1}

    def parse(text: str):
        if text in ("e", "1"):
            return ""
        return text

    gens = tuple(letters) + tuple(ch.upper() for ch in letters)
    return FusionRing(
        unit="",
        product_rule=product,
        conjugate_rule=lambda w: w[::-1].swapcase(),
        dim_rule=lambda w: 1,
        description=f"group ring of F_{rank}",
        generators=gens,
        is_label=is_label,
        parse_label=parse,
        format_label=lambda w: w if w else "e",
    )


def group_ring_from_table(labels, table, *, description: str = "finite group ring") -> FusionRing:
    """The group ring of a finite group given by its multiplication table.

    ``table`` maps ordered pairs of labels to labels, either as a
    ``{(g, h): k}`` mapping or a nested ``{g: {h: k}}`` mapping.  The table
    must be closed, with an identity and inverses, and its ring must pass
    ``verify_axioms``; anything else raises InvalidTable.
    """
    try:
        labels = list(labels)
        label_set = set(labels)
    except TypeError:
        raise InvalidTable(
            f"labels must be an iterable of hashable labels, got {labels!r}") from None
    if len(label_set) != len(labels) or not labels:
        raise InvalidTable("labels must be a non-empty list without repeats")
    if not isinstance(table, Mapping):
        raise InvalidTable(f"table must be a mapping, not {type(table).__name__}")

    if table and isinstance(next(iter(table.values())), Mapping):
        for g, row in table.items():
            if not isinstance(row, Mapping):
                raise InvalidTable(
                    f"table row {g!r} must be a mapping, not {type(row).__name__}")
        flat = {(g, h): k for g, row in table.items() for h, k in row.items()}
    else:
        flat = dict(table)
    for g in labels:
        for h in labels:
            k = flat.get((g, h))
            if k is None:
                raise InvalidTable(f"missing table entry for ({g!r}, {h!r})")
            try:
                inside = k in label_set
            except TypeError:  # unhashable, so no label
                inside = False
            if not inside:
                raise InvalidTable(f"table entry ({g!r}, {h!r}) -> {k!r} leaves the label set")

    unit = next((e for e in labels
                 if all(flat[(e, g)] == g == flat[(g, e)] for g in labels)), None)
    if unit is None:
        raise InvalidTable("table has no two-sided identity")

    # h runs backwards, so the first two-sided inverse in label order stays
    inverse = {g: h for g in labels for h in reversed(labels)
               if flat[(g, h)] == unit == flat[(h, g)]}
    for g in labels:
        if g not in inverse:
            raise InvalidTable(f"element {g!r} has no inverse")

    return _verified_table_ring(FusionRing(
        unit=unit,
        product_rule=lambda x, y: {flat[(x, y)]: 1},
        conjugate_rule=lambda x: inverse[x],
        dim_rule=lambda x: 1,
        description=description,
        generators=tuple(g for g in labels if g != unit),
        is_label=lambda x: x in label_set,
    ), labels)


def _verified_table_ring(ring: FusionRing, labels: list) -> FusionRing:
    # the ring of a table on labels once verify_axioms passes on them all,
    # else InvalidTable naming the first failing axiom
    report = verify_axioms(ring, labels)
    if report.passed:
        return ring
    first = report.failures()[0]
    raise InvalidTable(f"table violates {first.name}: {first.counterexample}",
                       report=report)


# ---------------------------------------------------------------------------
# SU(2)-type rings
# ---------------------------------------------------------------------------

def _su2_product(m: int, n: int) -> dict:
    return {k: 1 for k in range(abs(m - n), m + n + 1, 2)}


def _su2_is_label(k) -> bool:
    return isinstance(k, int) and not isinstance(k, bool) and k >= 0


def _su2_type_ring(dim_rule, description: str) -> FusionRing:
    # the SU(2) fusion rules on labels 0, 1, 2, ... with dimensions dim_rule
    return FusionRing(
        unit=0,
        product_rule=_su2_product,
        conjugate_rule=lambda k: k,
        dim_rule=dim_rule,
        description=description,
        generators=(1,),
        is_label=_su2_is_label,
        parse_label=int,
    )


def build_su2_ring() -> FusionRing:
    """The representation ring of SU(2): labels are highest weights.

    N(m, n -> k) = 1 iff |m - n| <= k <= m + n with m + n + k even, and
    d(k) = k + 1.  Self-conjugate.  (This is also the fusion ring of the
    q-deformations of SU(2), which share the same rules.)
    """
    return _su2_type_ring(lambda k: k + 1, "SU(2) fusion ring")


def build_deformed_su2_ring(n: int) -> FusionRing:
    """SU(2) fusion rules with the deformed dimensions of the free
    orthogonal family: d(0) = 1, d(1) = n, d(k+1) = n d(k) - d(k-1).

    For n = 2 the recursion collapses to d(k) = k + 1.  Dimensions are
    exact integers.  Only the (rules, dimensions) pair is modeled, not the
    full quantum-group object.
    """
    n = count(n, "deformation parameter", 2)
    dims = [1, n]  # d(0), d(1), ..., extended as far as a label asks

    def dim(k: int) -> int:
        while len(dims) <= k:
            dims.append(n * dims[-1] - dims[-2])
        return dims[k]

    return _su2_type_ring(dim, f"deformed SU(2) fusion ring (n={n})")


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def _parse_pair(text: str):
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    depth = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == ";" and depth == 0:
            return body[:i], body[i + 1:]
    raise InvalidParam(f"expected a pair '(left;right)', got {text!r}")


def tensor_product(ring1: FusionRing, ring2: FusionRing) -> FusionRing:
    """The tensor product ring on pairs of labels.

    The unit is the pair of units, conjugation and dimensions act
    componentwise, and N((a,b),(c,d) -> (x,y)) = N1(a,c->x) * N2(b,d->y).
    The factor products are read from the factors' rules, uncached; a
    zero a factor returns gives zeros here, which every reader skips.
    """
    _kind(ring1, FusionRing, "ring1")
    _kind(ring2, FusionRing, "ring2")
    def product(x, y):
        p = ring1._product_rule(x[0], y[0])
        q = ring2._product_rule(x[1], y[1])
        return {(u, v): m * n for u, m in p.items() for v, n in q.items()}

    def is_label(x):
        return (isinstance(x, tuple) and len(x) == 2
                and ring1.contains(x[0]) and ring2.contains(x[1]))

    def parse(text: str):
        left, right = _parse_pair(text)
        return (ring1.parse_label(left), ring2.parse_label(right))

    gens = tuple((g, ring2.unit) for g in ring1.generators) \
        + tuple((ring1.unit, g) for g in ring2.generators)
    return FusionRing(
        unit=(ring1.unit, ring2.unit),
        product_rule=product,
        conjugate_rule=lambda x: (ring1._conjugate_rule(x[0]),
                                  ring2._conjugate_rule(x[1])),
        dim_rule=lambda x: ring1._dim_rule(x[0]) * ring2._dim_rule(x[1]),
        description=f"tensor({ring1.description}, {ring2.description})",
        generators=gens,
        is_label=is_label,
        parse_label=parse,
        format_label=lambda x: f"({ring1.format_label(x[0])};{ring2.format_label(x[1])})",
    )


# ---------------------------------------------------------------------------
# measures from corepresentation decompositions
# ---------------------------------------------------------------------------

def measure_from_decomposition(ring: FusionRing, decomp: Mapping) -> ProbMeasure:
    """The symmetrized measure attached to a decomposed corepresentation.

    Given multiplicities k_alpha >= 1 of the irreducibles occurring in some
    finite-dimensional corepresentation of total dimension
    n = sum k_alpha d(alpha), the measure puts k_alpha d(alpha) / n on
    alpha, and the returned measure is the symmetrization (half on alpha,
    half on conj(alpha)).  The weights are built in exact rational
    arithmetic (they sum to 1 exactly) and converted to floats at the end,
    so the result is always symmetric by exact comparison.
    """
    if not _kind(decomp, Mapping, "decomposition"):
        raise InvalidParam("decomposition must be non-empty")
    check_labels(ring, decomp)
    decomp = {alpha: count(k, f"multiplicity at {ring.format_label(alpha)}", 1)
              for alpha, k in decomp.items()}
    dim, conj = ring._dim_rule, ring._conjugate_rule
    total = sum(Fraction(k) * Fraction(dim(alpha)) for alpha, k in decomp.items())
    weights: dict = {}
    for alpha, k in decomp.items():
        half = Fraction(k) * Fraction(dim(alpha)) / (2 * total)
        weights[alpha] = weights.get(alpha, Fraction(0)) + half
        abar = conj(alpha)
        weights[abar] = weights.get(abar, Fraction(0)) + half
    assert sum(weights.values()) == 1
    return ProbMeasure._trusted(ring, {a: float(w) for a, w in weights.items()})

