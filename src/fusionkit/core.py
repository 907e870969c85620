"""Fusion rings as lazy rule oracles, with elements, measures and the axiom verifier.

A fusion ring here is a unital ring, free as a Z-module over a distinguished
basis, whose structure constants N(xi, eta -> alpha) are non-negative
integers, together with a basis-preserving involution (conjugation), a
dimension function d >= 1 satisfying Frobenius reciprocity and dimension
multiplicativity, and the natural trace picking out the coefficient at the
unit.  Bases may be countably infinite, so a ring is represented purely by
its rules and is never materialized; every global statement is only ever
checked on an explicitly named finite window of labels.
"""
from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping

import numpy as np

from .errors import InvalidLabel, InvalidParam, RingMismatch

Label = Hashable

#: absolute tolerance for floating-point equality checks package-wide
FLOAT_TOL = 1e-12


class FusionRing:
    """A fusion ring presented as a lazy fusion-rule oracle.

    The ring is defined by its unit label, a conjugation map, a dimension
    function, and a product rule returning the structure constants of the
    product of two basis labels as a finitely supported ``{label: int}`` map.
    The three rules must be callable, and so must each label hook given
    (``is_label``, ``parse_label``, ``format_label``), ``description``
    must be a ``str`` and ``generators`` an iterable of hashable labels;
    anything else raises InvalidParam.

    The ring is immutable after construction except for its product
    cache, which only the greedy Foelner search's cut fills, through
    ``_product_cached``; every other reader reads the rule through
    ``_row``.  The rules are given only labels checked where they entered
    the public API (``check_label``, ``check_labels``) and labels read
    off their products.
    """

    __slots__ = ("unit", "description", "generators", "parse_label",
                 "format_label", "_product_rule", "_conjugate_rule",
                 "_dim_rule", "_is_label", "_cache")

    def __init__(self, unit, product_rule, conjugate_rule, dim_rule, *,
                 description: str = "fusion ring",
                 generators: Iterable[Label] = (),
                 is_label: Callable[[Label], bool] | None = None,
                 parse_label: Callable[[str], Label] | None = None,
                 format_label: Callable[[Label], str] | None = None):
        for what, rule in (("product_rule", product_rule),
                           ("conjugate_rule", conjugate_rule),
                           ("dim_rule", dim_rule), ("is_label", is_label),
                           ("parse_label", parse_label),
                           ("format_label", format_label)):
            # the three rules are required, the label hooks optional
            if not (callable(rule) or rule is None and what.endswith("label")):
                raise InvalidParam(
                    f"{what} must be callable, not {type(rule).__name__}")
        if not isinstance(description, str):
            raise InvalidParam("description must be a str, not "
                               f"{type(description).__name__}")
        try:
            self.generators = tuple(generators)
            hash(self.generators)
        except TypeError:
            raise InvalidParam("generators must be an iterable of hashable "
                               f"labels, got {generators!r}") from None
        self.unit = unit
        self.description = description
        self.parse_label = parse_label if parse_label is not None else _parse_identity
        self.format_label = format_label if format_label is not None else str
        self._product_rule = product_rule
        self._conjugate_rule = conjugate_rule
        self._dim_rule = dim_rule
        self._is_label = is_label
        self._cache: dict = {}

    def __repr__(self):
        return f"FusionRing({self.description!r})"

    def contains(self, xi) -> bool:
        """Whether ``xi`` is a basis label of this ring.  An unhashable
        value never is: a TypeError from a label rule that hashes it reads
        as no."""
        try:
            if self._is_label is None:
                hash(xi)
                return True
            return bool(self._is_label(xi))
        except TypeError:
            return False

    def check_label(self, xi) -> None:
        if not self.contains(xi):
            raise InvalidLabel(
                f"{xi!r} is not a basis label of {self.description}")

    def product(self, xi, eta) -> dict:
        """Structure constants of ``xi * eta`` as a fresh ``{label: N}`` map.

        Both labels are checked.  Zero coefficients are dropped.  The map
        is read from the rule, not cached, so callers may mutate it freely.
        """
        self.check_label(xi)
        self.check_label(eta)
        return dict(_row(self, xi, (eta,))[0])

    def _product_cached(self, xi, eta) -> dict:
        # Internal read-only view of the memoized product, for the greedy
        # search's cut alone, since only it reads products again.
        # Callers must not mutate it, and pass labels checked at the public
        # API or read off products of such labels.
        key = (xi, eta)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        raw = self._product_rule(xi, eta)
        result = {alpha: n for alpha, n in raw.items() if n != 0}
        self._cache[key] = result
        return result

    def conj(self, xi):
        """The conjugate basis label."""
        self.check_label(xi)
        return self._conjugate_rule(xi)

    def dim(self, xi):
        """The dimension d(xi); exact int for all catalog rings."""
        self.check_label(xi)
        return self._dim_rule(xi)

    def sigma(self, xi):
        """The basis weight sigma(xi) = d(xi)**2."""
        self.check_label(xi)
        return self._sigma(xi)

    def _sigma(self, xi):
        d = self._dim_rule(xi)
        return d * d


def _parse_identity(text: str):
    return text


def product_basis(ring: FusionRing, xi, eta) -> dict:
    """Coefficient map of the basis product ``xi * eta`` (exact)."""
    return _kind(ring, FusionRing, "ring").product(xi, eta)


class Element:
    """A finitely supported formal combination of basis labels.

    Coefficients are exact integers for ring elements and floats for
    function-space vectors; zero coefficients are never stored, so the
    support is exactly the set of stored keys.  Every given label is
    checked, a zero coefficient's too, and every coefficient must be a
    ``numbers.Number`` other than a bool.  Instances are immutable values.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: FusionRing, coeffs: Mapping | Iterable = ()):
        coeffs = _checked_items(ring, coeffs)
        for value in coeffs.values():
            if isinstance(_kind(value, numbers.Number, "coefficient"), bool):
                raise InvalidParam("coefficient must be a Number, not bool")
        self.ring = ring
        self.coeffs = {l: v for l, v in coeffs.items() if v != 0}

    @classmethod
    def _trusted(cls, ring: FusionRing, coeffs: dict) -> "Element":
        # an element of checked labels, built without checking them again;
        # zero coefficients are dropped
        element = object.__new__(cls)
        element.ring = ring
        element.coeffs = {l: v for l, v in coeffs.items() if v != 0}
        return element

    @property
    def support(self):
        return self.coeffs.keys()

    def __getitem__(self, label):
        return self.coeffs.get(label, 0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.ring is other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.ring), frozenset(self.coeffs.items())))

    def _fold(self, base: dict, other: dict, op) -> "Element":
        # +, -, negation and scaling: base with other folded in by op
        out = dict(base)
        try:
            for label, value in other.items():
                out[label] = op(out.get(label, 0), value)
        except OverflowError:
            raise _past_float_range(self.ring, base, other) from None
        return Element._trusted(self.ring, out)

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        _over(self.ring, other, Element, "operand")
        return self._fold(self.coeffs, other.coeffs, operator.add)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        _over(self.ring, other, Element, "operand")
        return self._fold(self.coeffs, other.coeffs, operator.sub)

    def __neg__(self):
        return self._fold({}, self.coeffs, operator.sub)

    def __mul__(self, other):
        if isinstance(other, Element):
            return multiply(self, other)
        if not isinstance(other, numbers.Number):
            return NotImplemented
        return self._fold({}, self.coeffs, lambda _, v: v * other)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.coeffs:
            return "Element(0)"
        fmt = self.ring.format_label
        parts = [f"{v!r}*{fmt(l)}" for l, v in sorted(self.coeffs.items())]
        return "Element(" + " + ".join(parts) + ")"


def _past_float_range(ring: FusionRing, *maps) -> InvalidParam:
    """The error for arithmetic that raised OverflowError: an exact
    coefficient past the float range met a float.  It names the first
    label of the coefficient ``maps`` whose coefficient float() cannot
    hold, or, when each can, says that an exact value reached on the way
    could not."""
    for coeffs in maps:
        for label, value in coeffs.items():
            try:
                float(value)
            except OverflowError:
                q = abs(Fraction(value))
                size = math.log2(q.numerator) - math.log2(q.denominator)
                return InvalidParam(
                    f"coefficient at {ring.format_label(label)} is "
                    f"{'-' if value < 0 else ''}2**{size:.1f}, past the float range")
    return InvalidParam("an exact value past the float range met a float")


def check_labels(ring: FusionRing, labels: Iterable) -> list:
    """The labels of an iterable as a list, in order, each checked by
    ``ring.check_label`` before anything hashes it: the one check of a label
    collection passed to the public API.  A ``ring`` that is no FusionRing,
    a str, or a value that is not iterable raises InvalidParam."""
    _kind(ring, FusionRing, "ring")
    if isinstance(labels, str):
        raise InvalidParam(
            f"expected a collection of labels, got the string {labels!r}")
    try:
        labels = iter(labels)
    except TypeError:
        raise InvalidParam(
            f"expected a collection of labels, got {labels!r}") from None
    labels = list(labels)
    for label in labels:
        ring.check_label(label)
    return labels


def _checked_items(ring: FusionRing, coeffs: Mapping | Iterable) -> dict:
    # a mapping or an iterable of (label, value) pairs as a dict, else
    # InvalidParam; the labels are checked before the dict hashes them
    try:
        pairs = [(label, value) for label, value in (
            coeffs.items() if isinstance(coeffs, Mapping) else coeffs)]
    except (TypeError, ValueError):
        raise InvalidParam("expected a mapping or (label, value) pairs, "
                           f"got {coeffs!r}") from None
    check_labels(ring, [label for label, _ in pairs])
    return dict(pairs)


def _kind(value, kind: type, what: str):
    """``value`` if it is a ``kind``, else InvalidParam: the one type check
    of a ring, a ring-bound argument and an Element coefficient."""
    if not isinstance(value, kind):
        raise InvalidParam(
            f"{what} must be a {kind.__name__}, not {type(value).__name__}")
    return value


def _over(ring: FusionRing, value, kind: type, what: str):
    """``value``, checked as a ``kind`` over ``ring``: InvalidParam when
    it is no ``kind`` or ``ring`` no FusionRing, RingMismatch when it
    belongs to another ring.  The one check of every ring-bound argument."""
    _kind(value, kind, what)
    if _kind(ring, FusionRing, "ring") is not value.ring:
        if value.ring.description == ring.description:
            # rings are compared by identity, not by description
            raise RingMismatch(f"{what} belongs to another ring object with "
                               f"the same description {ring.description!r}")
        raise RingMismatch(f"{what} belongs to {value.ring.description!r}, "
                           f"not to {ring.description!r}")
    return value


def _exact_dim(ring: FusionRing, label):
    # d(label) exactly: an int as it is, a float (or any other) as a Fraction
    d = ring._dim_rule(label)
    return d if isinstance(d, int) else Fraction(d)


def indicator(ring: FusionRing, labels: Iterable) -> Element:
    """The characteristic function chi_F of a finite label set, as an Element."""
    return Element._trusted(ring, dict.fromkeys(check_labels(ring, labels), 1))


def multiply(x: Element, y: Element) -> Element:
    """Ring product, the bilinear extension of the basis fusion rules.

    Exact integer arithmetic whenever both inputs have integer coefficients.
    """
    ring = _kind(x, Element, "x").ring
    _over(ring, y, Element, "y")
    out: dict = {}
    try:
        for xi, a in x.coeffs.items():
            for (eta, b), p in zip(y.coeffs.items(), _row(ring, xi, y.coeffs)):
                ab = a * b
                for alpha, n in p.items():
                    out[alpha] = out.get(alpha, 0) + ab * n
    except OverflowError:
        raise _past_float_range(ring, x.coeffs, y.coeffs) from None
    return Element._trusted(ring, out)


def conjugate_element(x: Element) -> Element:
    """The involution: the coefficient at alpha moves to conj(alpha)."""
    conj = _kind(x, Element, "x").ring._conjugate_rule
    return Element._trusted(x.ring, {conj(l): v for l, v in x.coeffs.items()})


def natural_trace(x: Element):
    """The natural trace: the coefficient at the unit label (0 if absent)."""
    return _kind(x, Element, "x").coeffs.get(x.ring.unit, 0)


def convolve(f: Element, g: Element) -> Element:
    """Weighted convolution of finitely supported functions.

    On Dirac masses,
        delta_xi * delta_eta = sum_alpha d(alpha)/(d(xi) d(eta)) * N(xi,eta->alpha) delta_alpha,
    extended bilinearly.  Probability measures convolve to probability
    measures (up to roundoff), and the plain l1 norm is submultiplicative.
    Dimensions are read exactly (``_exact_dim``): float coefficients give
    the floats of float arithmetic, and Fraction coefficients exact
    rationals, on float dimensions too.
    """
    ring = _kind(f, Element, "f").ring
    _over(ring, g, Element, "g")
    out: dict = {}
    try:
        for xi, a in f.coeffs.items():
            dxi = _exact_dim(ring, xi)
            for (eta, b), p in zip(g.coeffs.items(), _row(ring, xi, g.coeffs)):
                w = (a * b) / (dxi * _exact_dim(ring, eta))
                for alpha, n in p.items():
                    out[alpha] = (out.get(alpha, 0)
                                  + w * n * _exact_dim(ring, alpha))
    except OverflowError:
        raise _past_float_range(ring, f.coeffs, g.coeffs) from None
    return Element._trusted(ring, out)


def subset_weight(ring: FusionRing, labels: Iterable):
    """The sigma-weight of a finite label set: sum of d(alpha)**2 over it.

    Exact (int or Fraction) when every sigma is; float sigmas are summed
    with ``math.fsum``, which rounds once, so the weight does not depend on
    the iteration order of the set.  The empty set weighs 0.
    """
    return _weight(ring, set(check_labels(ring, labels)))


def _weight(ring: FusionRing, labels) -> object:
    # subset_weight of distinct labels that are known good
    sigmas = list(map(ring._sigma, labels))
    if any(isinstance(s, float) for s in sigmas):
        return math.fsum(sigmas)
    return sum(sigmas)


class ProbMeasure:
    """A finitely supported probability measure on the basis.

    Weights are ``numbers.Number``s other than bools, stored as floats in
    (0, 1] summing to 1 within 1e-12, given as a mapping or as (label,
    weight) pairs.  ``symmetric`` is computed, never asserted: it holds iff
    the stored weight at conj(label) equals the weight at label exactly,
    for every support label.  Instances are immutable values.
    """

    __slots__ = ("ring", "weights", "symmetric")

    def __init__(self, ring: FusionRing, weights: Mapping | Iterable):
        self._set(ring, _checked_items(ring, weights))

    @classmethod
    def _trusted(cls, ring: FusionRing, weights: dict) -> "ProbMeasure":
        # the measure of a dict of checked labels; only its weights are checked
        return object.__new__(cls)._set(ring, weights)

    def _set(self, ring: FusionRing, weights: dict) -> None:
        clean = {}
        for label, w in weights.items():
            try:  # float() also reads True, "1" and b"1"; none is a weight
                weight = (float(w) if isinstance(w, numbers.Number)
                          and not isinstance(w, bool) else math.nan)
            except (TypeError, ValueError, OverflowError):
                weight = math.nan  # not a real number: refused below
            if not 0.0 < weight <= 1.0:
                raise InvalidParam(
                    f"measure weight {w!r} at {ring.format_label(label)} "
                    f"is not a number in (0, 1]")
            clean[label] = weight
        if not clean:
            raise InvalidParam("a probability measure needs non-empty support")
        total = math.fsum(clean.values())
        if abs(total - 1.0) > FLOAT_TOL:
            raise InvalidParam(f"measure weights sum to {total!r}, not 1")
        self.ring = ring
        self.weights = clean
        conj = ring._conjugate_rule
        self.symmetric = all(
            clean.get(conj(label)) == w for label, w in clean.items())
        return self

    @property
    def support(self):
        return self.weights.keys()

    def __call__(self, label) -> float:
        return self.weights.get(label, 0.0)

    def items(self):
        return self.weights.items()

    def sorted_items(self):
        return sorted(self.weights.items())

    def as_element(self) -> Element:
        return Element._trusted(self.ring, self.weights)

    def __repr__(self):
        fmt = self.ring.format_label
        parts = [f"{fmt(l)}: {w:.6g}" for l, w in sorted(self.weights.items())]
        tag = "symmetric" if self.symmetric else "non-symmetric"
        return "ProbMeasure({" + ", ".join(parts) + "}, " + tag + ")"

    @staticmethod
    def delta(ring: FusionRing, label) -> "ProbMeasure":
        return ProbMeasure(ring, [(label, 1.0)])

    @staticmethod
    def uniform(ring: FusionRing, labels: Iterable) -> "ProbMeasure":
        labels = sorted(set(check_labels(ring, labels)))
        if not labels:
            raise InvalidParam("uniform measure needs non-empty support")
        return ProbMeasure._trusted(ring, dict.fromkeys(labels, 1.0 / len(labels)))


# ---------------------------------------------------------------------------
# axiom verification on a finite window
# ---------------------------------------------------------------------------

AXIOM_NAMES = (
    "unit_law",
    "involution",
    "structure_constants",
    "frobenius_reciprocity",
    "dimension_multiplicativity",
    "associativity",
    "dimension_bound",
)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    counterexample: str | None = None


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom pass/fail over one named finite window."""

    description: str
    window_labels: tuple
    checks: tuple

    @property
    def window_size(self) -> int:
        return len(self.window_labels)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self):
        return [check for check in self.checks if not check.passed]

    def summary(self) -> str:
        lines = [f"axiom report for {self.description} "
                 f"(window of {self.window_size} labels)"]
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            line = f"  {check.name}: {status}"
            if check.counterexample:
                line += f"  [{check.counterexample}]"
            lines.append(line)
        return "\n".join(lines)


def _finite(d) -> bool:
    # ints and Fractions are finite however large; math.isfinite would
    # overflow converting a huge int to a float
    return isinstance(d, (int, Fraction)) or math.isfinite(d)


def _frobenius_counterexample(ring, labels, conj, P):
    """The first window triple (xi, eta, alpha) violating Frobenius
    reciprocity, as a message, or None.  ``P`` holds the window products,
    row i*n + j for xi_i * eta_j, the window labels in its first n columns.

    Each side holds the nonzero entries of one of N(xi_i, eta_j ->
    alpha_k), N(conj xi_i, alpha_k -> eta_j) and N(alpha_k, conj eta_j ->
    xi_i) as int64 keys (i*n + j)*n + k and their coefficients.  The first
    reads the window columns of P, the others those of P's rows
    (conj xi_i, alpha_k) and (alpha_k, conj eta_j), or of rows read from
    the rule, window terms only, where the conjugate lies outside the
    window.  A triple fails where the second or the third disagrees with
    the first.
    """
    n = len(labels)
    index = {label: i for i, label in enumerate(labels)}
    bar = np.array([index.get(conj[x], -1) for x in labels], dtype=np.int64)
    cross = [conj[x] for x, b in zip(labels, bar.tolist()) if b < 0]
    out = np.cumsum(bar < 0) - 1  # the place of conj x in cross, if there
    k = np.arange(n)

    def entries(csr, rows):
        # (t, column, coefficient) of each entry of row rows[t] of csr in
        # a window column
        data, indices, indptr = csr
        counts = indptr[rows + 1] - indptr[rows]
        at = _ragged(indptr[rows], counts)
        t, c = np.repeat(np.arange(len(rows)), counts), indices[at]
        keep = c < n
        return t[keep], c[keep], data[at[keep]]

    t, c, v = entries(P, np.arange(n * n))
    direct = t * n + c, v
    # t = i*n + k: row (conj xi_i, alpha_k), the read rows after P's
    rows = _stack(P, _product_csr(ring, cross, labels, index, grow=False))
    t, c, v = entries(rows, np.where(bar[:, None] >= 0, bar[:, None] * n + k,
                                     n * n + out[:, None] * n + k).ravel())
    left = (t // n * n + c) * n + t % n, v
    # t = k*n + j: row (alpha_k, conj eta_j), the read rows after P's
    rows = _stack(P, _product_csr(ring, labels, cross, index, grow=False))
    t, c, v = entries(rows, np.where(bar >= 0, k[:, None] * n + bar,
                                     n * n + k[:, None] * len(cross) + out).ravel())
    right = (c * n + t % n) * n + t // n, v

    found_left = _first_mismatch(direct, left)
    found_right = _first_mismatch(direct, right)
    if found_left is None and found_right is None:
        return None
    use_left = found_right is None or (found_left is not None
                                       and found_left[0] <= found_right[0])
    key, value, other = found_left if use_left else found_right
    fmt = ring.format_label
    xi, eta, alpha = (fmt(labels[i]) for i in (key // n // n, key // n % n, key % n))
    if use_left:
        return (f"N({xi},{eta}->{alpha}) = {value} but "
                f"N(conj {xi},{alpha}->{eta}) = {other}")
    return (f"N({xi},{eta}->{alpha}) = {value} but "
            f"N({alpha},conj {eta}->{xi}) = {other}")


def _first_mismatch(one, other):
    """(key, value in ``one``, value in ``other``) at the least key where
    two sides, each a pair (distinct int64 keys, coefficients), differ, an
    absent key reading 0; or None."""
    keys = np.sort(np.concatenate((one[0], other[0])))
    a, b = _values_at(keys, one), _values_at(keys, other)
    differ = np.flatnonzero(a != b)
    if not differ.size:
        return None
    at = differ[0]
    return int(keys[at]), a[at:at + 1].tolist()[0], b[at:at + 1].tolist()[0]


def _values_at(keys, side):
    """The coefficients of ``side``, a pair (distinct int64 keys,
    coefficients), at ``keys``, 0 where it has none."""
    own, values = side
    order = np.argsort(own)
    at = np.searchsorted(own, keys, sorter=order)
    found = at < len(own)
    found[found] = own[order[at[found]]] == keys[found]
    out = np.zeros(len(keys), dtype=values.dtype)
    out[found] = values[order[at[found]]]
    return out


_chain = itertools.chain.from_iterable

#: product maps _product_csr holds at once; only their CSR arrays outlive
#: a chunk, however many products a caller reads
_CHUNK = 4096

#: int64 sums of products of structure constants are exact below this bound
_INT64_LIMIT = 2 ** 63

#: ints below this are exact float64s
_FLOAT_EXACT = 2 ** 53

#: an associativity block is compared in dense float64 products (BLAS)
#: when its n**2 * G result cells are fewer than this many per term of its
#: sparse products, else by sorting int64 keys
_DENSE_CELLS_PER_TERM = 4

#: float64 cells or int64 terms one chunk of an associativity block holds,
#: and the most row-group terms kept between blocks beyond those the next
#: block uses
_BLOCK_CHUNK = 2 ** 16


class _Inexact(Exception):
    """args (x, y, label, N): int64 cannot sum the coefficient N of x*y at
    label exactly."""


def _abs_max(array) -> int:
    """max |v| over a non-empty int64 array, as an int (no overflow at
    -2**63)."""
    return max(int(array.max()), -int(array.min()))


def _exact(csr, width: int, left, right, labels):
    """``csr``, CSR arrays of the products x*y for (x, y) in
    ``itertools.product(left, right)``, with int64 data.  Raises _Inexact
    at its first coefficient that int64 cannot sum exactly over ``width``
    terms (not an int, a bool, or N**2 * width >= 2**63), naming its label
    from ``labels``, the label of each column in order."""
    data = csr[0]
    if data.dtype == np.int64 and (
            not data.size or _abs_max(data) ** 2 * width < _INT64_LIMIT):
        return csr
    for at, c in enumerate(data.tolist()):
        if not isinstance(c, int) or isinstance(c, bool) \
                or c * c * width >= _INT64_LIMIT:
            row = int(np.searchsorted(csr[2], at, side="right")) - 1
            x, y = divmod(row, len(right))
            raise _Inexact(left[x], right[y], [*labels][csr[1][at]], c)
    return data.astype(np.int64), csr[1], csr[2]  # int subclasses


def _rebuilt(ring: FusionRing, products: list, pairs) -> list:
    """A copy of ``products`` in which every map that is not a plain dict
    without zero coefficients is rebuilt as one.  ``pairs`` yields the
    (x, y) of each product in order; it is read only when a product is no
    Mapping, which raises InvalidParam naming its pair and type."""
    try:
        return [p if type(p) is dict and all(p.values())
                else {alpha: n for alpha, n in p.items() if n != 0} for p in products]
    except (AttributeError, TypeError):
        bad = next(((pair, p) for pair, p in zip(pairs, products)
                    if not isinstance(p, Mapping)), None)
        if bad is None:
            raise
    (x, y), p = bad
    raise InvalidParam(f"the product rule returned {type(p).__name__}, not a "
                       f"Mapping, for ({ring.format_label(x)}, {ring.format_label(y)})")


def _row(ring: FusionRing, x, others, left: bool = True) -> list:
    """x * y (y * x unless ``left``) for y in the collection ``others``,
    read from the rule as every reader but the greedy search's cut reads,
    as plain dicts without zero coefficients: the maps the rule returned
    when each is such a dict (one test in C), else ``_rebuilt``.  Do not
    mutate."""
    pairs = (itertools.repeat(x), others)
    if not left:
        pairs = pairs[::-1]
    products = [*map(ring._product_rule, *pairs)]
    if {*map(type, products)} == {dict} and all(map(all, map(dict.values, products))):
        return products
    return _rebuilt(ring, products, zip(*pairs))


def _numbered(columns: dict, labels, count: int):
    """The column in ``columns`` of each of the ``count`` labels of the
    iterable ``labels``, as an int32 array; a label not there gets the
    next free column, len(columns), in the order first met.  One
    ``setdefault`` per label, whose default len(columns) is taken just
    before the call."""
    return np.fromiter(map(columns.setdefault, labels,
                           map(len, itertools.repeat(columns))),
                       dtype=np.int32, count=count)


def _product_csr(ring, left, right, columns: dict, *, grow: bool):
    """CSR arrays (data, indices, indptr) of the products x*y for (x, y) in
    ``itertools.product(left, right)``, one row per pair, read from the
    rule in chunks of _CHUNK, each tested once for plain dicts without
    zeros (one type test, one ``all`` over its coefficients) and rebuilt
    only when it fails; ``left`` and ``right`` are sequences.

    Each label goes to its column in ``columns``.  A label not there gets
    the next free column, in the order first read, when ``grow`` is set;
    else its term is dropped unread and ``columns`` is left as it is.  The
    data are int64 when int64 holds every kept coefficient, each an
    ``int`` (not a subclass), else an object array of the coefficients the
    rule returned.

    Numbering costs one dict operation per term: ``columns.get``, or with
    ``grow`` ``columns.setdefault`` (``_numbered``).
    """
    read = itertools.starmap(ring._product_rule, itertools.product(left, right))
    counts = [np.zeros(1, dtype=np.int32)]  # the leading 0 of indptr
    indices = [np.zeros(0, dtype=np.int32)]
    data = [np.zeros(0, dtype=np.int64)]
    done = 0  # the products of earlier chunks
    while products := list(itertools.islice(read, _CHUNK)):
        values = ({*map(type, products)} == {dict}
                  and [*_chain(map(dict.values, products))])
        if not (values and all(values)):
            products = _rebuilt(ring, products, itertools.islice(
                itertools.product(left, right), done, None))
            values = [*_chain(map(dict.values, products))]
        done += len(products)
        if grow:
            column = _numbered(columns, _chain(products), len(values))
        else:
            column = np.fromiter(map(columns.get, _chain(products), itertools.repeat(-1)),
                                 dtype=np.int32, count=len(values))
        sizes = np.fromiter(map(len, products), dtype=np.int32, count=len(products))
        kept = column >= 0
        if not kept.all():  # the terms of labels outside columns
            column = column[kept]
            values = [*itertools.compress(values, kept.tolist())]
            sizes = np.bincount(np.repeat(np.arange(len(products)), sizes)[kept],
                                minlength=len(products))
        counts.append(sizes)
        indices.append(column)
        exact = None
        if {*map(type, values)} <= {int}:  # no subclass of int
            try:
                exact = np.array(values, dtype=np.int64)
            except OverflowError:  # an int past int64
                pass
        data.append(np.fromiter(values, dtype=object, count=len(values))
                    if exact is None else exact)
    return (np.concatenate(data), np.concatenate(indices),
            np.cumsum(np.concatenate(counts), dtype=np.int32))


def _ragged(starts, counts):
    """The positions s, s + 1, ..., s + c - 1 for each (s, c) of ``starts``
    and ``counts`` in turn, as one int64 array."""
    ends = np.cumsum(counts, dtype=np.int64)
    return (np.arange(ends[-1] if ends.size else 0, dtype=np.int64)
            + np.repeat(starts - (ends - counts), counts))


def _dense(csr, rows, width: int):
    """The rows ``rows`` of the CSR arrays ``csr`` as a float64 array of
    ``width`` columns."""
    data, indices, indptr = csr
    counts = indptr[rows + 1] - indptr[rows]
    at = _ragged(indptr[rows], counts)
    out = np.zeros((len(rows), width))
    out[np.repeat(np.arange(len(rows)), counts), indices[at]] = data[at]
    return out


def _dense_difference(block, R, P, L, n: int, G: int):
    """The first row j*n + k at which kron(block, I_n) @ R and P @ L
    differ, or None, from float64 (BLAS) products; exact when every
    partial sum is an integer below 2**53.  ``block``, R, P and L are CSR
    arrays of n, m * n, n**2 and width rows and m, G, width and G columns.
    The rows are compared for one chunk of k at a time, so that each chunk
    holds about _BLOCK_CHUNK float64 cells.
    """
    m, width = (len(R[2]) - 1) // n, len(L[2]) - 1
    B = _dense(block, np.arange(n), m)
    Ld = _dense(L, np.arange(width), G)
    step = max(1, _BLOCK_CHUNK // (m * G + n * (2 * G + width)))
    first = None
    for k0 in range(0, n, step):
        k = np.arange(k0, min(k0 + step, n))
        # rows (j, k) of both sides: (xi eta_j) zeta_k and xi (eta_j zeta_k)
        lhs = B @ _dense(R, (np.arange(m)[:, None] * n + k).ravel(),
                         G).reshape(m, len(k) * G)
        rhs = _dense(P, (np.arange(n)[:, None] * n + k).ravel(), width) @ Ld
        j, kk = np.divmod(np.flatnonzero(
            (lhs.reshape(rhs.shape) != rhs).any(axis=1)), len(k))
        if j.size and (first is None or j[0] * n + k[kk[0]] < first):
            first = int(j[0] * n + k[kk[0]])
    return first


def _sorted_difference(block, R, P, L, n: int, G: int):
    """The first row j*n + k at which kron(block, I_n) @ R and P @ L
    differ, or None, from int64 keys row*G + gamma over the terms of the
    left side and the negated terms of the right, sorted and summed per
    key, for one chunk of about _BLOCK_CHUNK terms of rows j at a time.
    The sums may wrap; with each side below 2**63 in absolute value a sum
    is 0 exactly when the sides agree.
    """
    # (xi eta_j) zeta_k: the block's term (j, g, v) times each row
    # g*n + k of R, that is, times row group g
    r_starts = R[2][block[1] * n]
    r_counts = R[2][(block[1] + 1) * n] - r_starts
    r_k = np.repeat(np.arange(len(R[2]) - 1) % n, np.diff(R[2]))
    # xi (eta_j zeta_k): P's term (j*n + k, beta, v) times row beta of L
    l_starts = L[2][P[1]]
    l_counts = L[2][P[1] + 1] - l_starts
    terms = int(r_counts.sum()) + int(l_counts.sum())
    step = max(1, n * _BLOCK_CHUNK // max(terms, 1))
    for j0 in range(0, n, step):
        j1 = min(j0 + step, n)
        b0, b1 = block[2][j0], block[2][j1]
        counts = r_counts[b0:b1]
        at = _ragged(r_starts[b0:b1], counts)
        rows = np.repeat(np.arange(j0, j1) * n, np.diff(block[2][j0:j1 + 1]))
        keys = [(np.repeat(rows, counts) + r_k[at]) * G + R[1][at]]
        values = [np.repeat(block[0][b0:b1], counts) * R[0][at]]
        p0, p1 = P[2][j0 * n], P[2][j1 * n]
        counts = l_counts[p0:p1]
        at = _ragged(l_starts[p0:p1], counts)
        rows = np.repeat(np.arange(j0 * n, j1 * n),
                         np.diff(P[2][j0 * n:j1 * n + 1]))
        keys.append(np.repeat(rows * G, counts) + L[1][at])
        values.append(np.repeat(-P[0][p0:p1], counts) * L[0][at])
        del at, rows, counts  # before the sort, which holds three copies
        keys = np.concatenate(keys)
        values = np.concatenate(values)[np.argsort(keys)]
        keys.sort()
        if keys.size:
            # the first term of each key
            starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
            differ = np.flatnonzero(np.add.reduceat(values, starts))
            if differ.size:
                return int(keys[starts[differ[0]]] // G)
    return None


def _stack(top, bottom):
    """The rows of the CSR arrays ``top`` followed by those of ``bottom``."""
    return (np.concatenate((top[0], bottom[0])), np.concatenate((top[1], bottom[1])),
            np.concatenate((top[2], bottom[2][1:] + top[2][-1])))


def _groups(parts, keep, n: int):
    """The row groups of the CSR arrays in ``parts``, taken one after
    another, group g being the n rows from g * n, at which the boolean
    array ``keep`` is True, in order, as CSR arrays allocated once, their
    data of the dtype of the first part's."""
    keeps = np.split(keep, np.cumsum([(len(part[2]) - 1) // n for part in parts])[:-1])
    takes = [np.repeat(k, np.diff(part[2][::n])) for part, k in zip(parts, keeps)]
    size = sum(map(int, map(np.count_nonzero, takes)))
    data, indices = np.empty(size, parts[0][0].dtype), np.empty(size, np.int32)
    indptr = np.zeros(n * int(np.count_nonzero(keep)) + 1, np.int32)
    at = row = 0
    for part, k, take in zip(parts, keeps, takes):
        last = at + int(np.count_nonzero(take))
        data[at:last] = part[0][take]
        indices[at:last] = part[1][take]
        # the row ends of the kept groups, moved from their first term
        # to the group's place in the new arrays
        starts = part[2][:-1:n][k]
        ends = part[2][1:].reshape(-1, n)[k]
        sizes = ends[:, -1] - starts
        shift = at + np.cumsum(sizes, dtype=np.int32) - sizes - starts
        np.add(ends, shift[:, None],
               out=indptr[row + 1:row + 1 + ends.size].reshape(ends.shape))
        at, row = last, row + ends.size
    return data, indices, indptr


def _next_uses(betas, sizes: list, n: int):
    """For each pair (i, beta) of ``betas``, which lists the betas of block
    i in its next sizes[i] entries, the next block listing beta (n when
    none does)."""
    blocks = np.repeat(np.arange(n), sizes)
    by_beta = np.argsort(betas, kind="stable")
    later = np.full(len(betas), n)
    same = betas[by_beta[:-1]] == betas[by_beta[1:]]
    later[by_beta[:-1][same]] = blocks[by_beta[1:][same]]
    return later


def _used(indices, size: int):
    """The values 0 <= v < ``size`` that occur in ``indices``, ascending."""
    seen = np.zeros(size, dtype=bool)
    seen[indices] = True
    return np.flatnonzero(seen)


def _block_difference(block, R, P, L, n: int, p_terms, width: int,
                      p_max: int, top: int):
    """The first row j*n + k at which kron(block, I_n) @ R and P @ L
    differ, or None, their arrays as _dense_difference takes them but
    with the gamma columns of R and L numbered below ``top``, not each
    number used.  ``p_terms`` counts P's terms per column,
    ``width`` is |B| and ``p_max`` max|N| over P.  The rows are compared
    by _dense_difference, on the G gamma labels R and L use numbered
    0..G-1 by one lookup, when float64 sums are exact (max|N|**2 * |B| <
    2**53) and the n**2 * G result cells are fewer than
    _DENSE_CELLS_PER_TERM per term of the products, else by
    _sorted_difference on the numbers as they are."""
    # each term of the block meets its row group of R, and each term of P
    # its row of L
    terms = np.diff(R[2][::n])[block[1]].sum() + np.diff(L[2]) @ p_terms
    bound = max([p_max] + [_abs_max(a) for a in (R[0], L[0]) if a.size])
    seen = np.zeros(top, dtype=bool)
    seen[R[1]] = seen[L[1]] = True
    gammas = np.flatnonzero(seen)  # the labels of R and L
    G = len(gammas)
    if bound * bound * width < _FLOAT_EXACT \
            and n * n * G < _DENSE_CELLS_PER_TERM * terms:
        number = np.zeros(top, dtype=np.int32)
        number[gammas] = np.arange(G, dtype=np.int32)
        return _dense_difference(block, (R[0], number[R[1]], R[2]), P,
                                 (L[0], number[L[1]], L[2]), n, G)
    return _sorted_difference(block, R, P, L, n, top)


def _associativity_counterexample(ring, labels, P, columns: dict):
    """The first window triple with (xi*eta)*zeta != xi*(eta*zeta), as a
    message, or None.  ``P`` holds the window products, one row per pair
    (xi_i, eta_j) at i*n + j, and ``columns`` maps the label of each of its
    columns to the column: the window labels, then the other labels of
    their supports B in first-seen order.  The check extends and prunes
    ``columns`` in place.

    For each xi_i in window order,
    rows (j, k) of kron(P_i, I_n) @ R_i are (xi_i eta_j) zeta_k and those of
    P @ L_i are xi_i (eta_j zeta_k), where R_i[(beta, k), gamma] =
    N(beta, zeta_k -> gamma) for beta in B_i, the supports of the row block
    P_i, and L_i[beta, gamma] = N(xi_i, beta -> gamma).  The n rows of one
    beta form its row group.  A window beta's row group and the window part
    of L_i are rows of P.  The blocks that use each beta are known from
    P before the first block runs.  A pool holds the row groups of betas
    outside the window read so far that a later block uses: after each
    block it keeps every group the next block uses and, beyond those, the
    groups with the nearest next use while their terms fit in _BLOCK_CHUNK,
    evicting the farthest first.  A block reads the groups of B_i outside
    the window and not in the pool in one batch, in B order, so a group is
    read at its first use and again only after an eviction.
    All matrices are int64 CSR arrays (data, indices, indptr), but for the
    pool's data, int32.  Every gamma label has one number for the whole
    check, kept in ``columns`` (label to number) and the list ``label_at``
    (number to label), which the reads of each block extend: P's
    columns keep their numbers, and the rows of the pool, the fresh reads
    and L keep the numbers they were read with.  After each block the
    labels that neither P nor a kept pool group holds are dropped, and
    each live label numbered past the live count moves to a freed number,
    so the numbers stay 0..len(columns) - 1 and the pool's columns are
    renumbered by one lookup.  _block_difference compares a block.
    """
    n = len(labels)
    fmt = ring.format_label
    label_at = [*columns]  # the label of each number of columns
    known = len(label_at)  # P's columns, whose numbers never change
    outer = label_at[n:]
    width = len(_used(P[1], known))  # |B|

    def read(left, right):
        # the products x*y for (x, y) in itertools.product(left, right),
        # numbered by columns, whose new labels label_at takes in order
        csr = _product_csr(ring, left, right, columns, grow=True)
        added = [*itertools.islice(reversed(columns), len(columns) - len(label_at))]
        label_at.extend(reversed(added))
        return _exact(csr, width, left, right, label_at)

    try:
        P = _exact(P, width, labels, labels, label_at)
        p_max = _abs_max(P[0]) if P[0].size else 0
        p_terms = np.bincount(P[1], minlength=known)  # P's terms per beta
        # B_i for each block i, betas ascending, at betas[at[i]:at[i + 1]],
        # and for each (i, beta) the next block whose B contains beta (n
        # when none does)
        bounds = P[2][::n].tolist()
        betas = [_used(P[1][lo:hi], known) for lo, hi in zip(bounds, bounds[1:])]
        sizes = [*map(len, betas)]
        at = [0, *itertools.accumulate(sizes)]
        betas = np.concatenate(betas)
        later = _next_uses(betas, sizes, n)

        # a pooled group's beta lies outside the window, so that |B| > 1
        # (the unit is in B too), and its coefficients passed _exact:
        # N**2 < 2**63 / |B| <= 2**62, so int32 holds them
        pool = (np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(1, np.int32))
        owner = np.zeros(0, dtype=np.int64)  # the beta of each pool group
        pooled = np.zeros(known, dtype=bool)  # beta -> its group is pooled
        next_use = np.full(known, n)  # beta -> the next block using it
        group = np.zeros(known, dtype=np.int32)  # beta -> its row group in R
        for i, xi in enumerate(labels):
            used = betas[at[i]:at[i + 1]]
            wanted = np.zeros(known, dtype=bool)
            wanted[used] = True
            hit = wanted[owner]  # the pool groups the block uses
            new = used[(used >= n) & ~pooled[used]]
            # R holds the block's groups: those of window betas (rows of
            # P), those from the pool, then those read
            group[np.concatenate((used[used < n], owner[hit], new))] = np.arange(
                len(used), dtype=np.int32)
            lo, hi = P[2][i * n], P[2][(i + 1) * n]
            own = P[0][lo:hi], P[1][lo:hi], P[2][i * n:(i + 1) * n + 1] - lo
            fresh = read([label_at[b] for b in new.tolist()], labels)
            # L holds the rows xi * beta: of P for window betas, then read
            row = _block_difference(
                (own[0], group[own[1]], own[2]),
                _groups((P, pool, fresh), np.concatenate(
                    (wanted[:n], hit, np.ones(len(new), dtype=bool))), n),
                P, _stack(own, read((xi,), outer)), n, p_terms, width, p_max,
                len(columns))
            if row is not None:
                j, k = divmod(row, n)
                eta, zeta = labels[j], labels[k]
                return (f"({fmt(xi)}*{fmt(eta)})*{fmt(zeta)} != "
                        f"{fmt(xi)}*({fmt(eta)}*{fmt(zeta)})")

            # the pool keeps the groups the next block uses, then, while
            # their terms fit in _BLOCK_CHUNK, those with the nearest next use
            next_use[used] = later[at[i]:at[i + 1]]
            owner = np.concatenate((owner, new))
            ahead = next_use[owner]
            keep = ahead == i + 1
            spare = np.flatnonzero((ahead > i + 1) & (ahead < n))
            spare = spare[np.argsort(ahead[spare], kind="stable")]
            size = np.concatenate((np.diff(pool[2][::n]), np.diff(fresh[2][::n])))
            keep[spare[np.cumsum(size[spare]) <= _BLOCK_CHUNK]] = True
            pool = _groups((pool, fresh), keep, n)
            pooled[owner] = False
            owner = owner[keep]
            pooled[owner] = True

            # columns keeps P's labels and the pool's: each live label
            # numbered past the live count moves to a freed number
            alive = np.zeros(len(label_at), dtype=bool)
            alive[:known] = alive[pool[1]] = True
            dead = np.flatnonzero(~alive)
            if dead.size:
                top = len(label_at) - dead.size
                holes = dead[dead < top]
                moved = np.flatnonzero(alive[top:]) + top
                for c in dead.tolist():
                    del columns[label_at[c]]
                for h, m in zip(holes.tolist(), moved.tolist()):
                    label_at[h] = label_at[m]
                    columns[label_at[h]] = h
                del label_at[top:]
                number = np.arange(len(alive), dtype=np.int32)
                number[moved] = holes
                pool = pool[0], number[pool[1]], pool[2]
    except _Inexact as exc:
        x, y, label, c = exc.args
        entry = f"N({fmt(x)},{fmt(y)}->{fmt(label)}) = {c!r}"
        if not isinstance(c, int) or isinstance(c, bool):
            return f"{entry}: only int coefficients are checked exactly"
        return f"{entry}: too large for exact int64 sums over {width} labels"
    return None


def _not_real(fmt, x, y, alpha, c):
    """The counterexample of a check that met the coefficient c of x*y at
    alpha, when c is not a real number, else None."""
    if isinstance(c, numbers.Real):
        return None
    return f"N({fmt(x)},{fmt(y)}->{fmt(alpha)}) = {c!r} is not a real number"


def _dimension_checks(fmt, labels, P, d, entry) -> tuple:
    """The checks dimension_multiplicativity (sum_alpha N(xi,eta->alpha)
    d(alpha) = d(xi) d(eta)) and dimension_bound (N(xi,eta->alpha) > 0
    implies d(alpha) d(eta) >= d(xi)) on the window products ``P`` of
    ``labels``, ``d`` holding the dimension of each column's label and
    ``entry(at)`` giving (x, y, alpha) of P's entry at.  A coefficient that
    is not a real number fails both, named, where it makes the arithmetic
    raise TypeError."""
    n = len(labels)
    values, bounds, cols = P[0].tolist(), P[2].tolist(), P[1].tolist()
    bad = None
    for row, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        rhs = d[row // n] * d[row % n]
        try:
            lhs = sum(c * d[k] for k, c in zip(cols[lo:hi], values[lo:hi]))
            if isinstance(lhs, int) and isinstance(rhs, int):
                equal = lhs == rhs
            else:
                equal = math.isclose(lhs, rhs, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)
        except TypeError:
            bad = next(filter(None, (_not_real(fmt, *entry(at), values[at])
                                     for at in range(lo, hi))), None)
            if bad is None:
                raise
            break
        if not equal:
            x, y = labels[row // n], labels[row % n]
            bad = f"sum N*d for {fmt(x)}*{fmt(y)} is {lhs}, expected {rhs}"
            break
    multiplicativity = AxiomCheck("dimension_multiplicativity", bad is None, bad)

    bad = None
    rows = np.repeat(np.arange(n * n), np.diff(P[2])).tolist()  # of each entry
    for at, (row, k, c) in enumerate(zip(rows, cols, values)):
        try:
            fails = c > 0 and d[k] * d[row % n] < d[row // n]
        except TypeError:
            bad = _not_real(fmt, *entry(at), c)
            if bad is None:
                raise
            break
        if fails:
            x, y, alpha = entry(at)
            bad = (f"N({fmt(x)},{fmt(y)}->{fmt(alpha)}) = {c} but "
                   f"d({fmt(alpha)})*d({fmt(y)}) < d({fmt(x)})")
            break
    return multiplicativity, AxiomCheck("dimension_bound", bad is None, bad)


def verify_axioms(ring: FusionRing, window) -> AxiomReport:
    """Check the fusion-ring axioms on all labels/pairs/triples of a window.

    Checks unit law, involution properties (with every d finite and
    >= 1), non-negativity and integrality of the structure constants,
    Frobenius reciprocity, dimension multiplicativity, associativity, and
    the dimension bound
    (N(xi,eta->alpha) > 0 implies d(alpha) d(eta) >= d(xi)).  The report
    names the window; nothing is claimed beyond it.  A failing check names
    the first failing label, pair or triple in window order; a coefficient
    that is not a real number fails both dimension checks, named.  A label a
    rule returns outside the window is checked once, and every conjugate
    before any axiom reads it.

    Cost, for a window of n distinct labels whose products have at most s
    terms: the n**2 window products are read once from the rule into the
    CSR arrays P, one row per pair, that every check reads; a repeated
    label adds no product.  P's columns number the window labels first,
    then the other labels of B, the union of the supports of the window
    products, in first-seen order, one dict operation per term, and its
    coefficients are int64 where int64 holds them, else the objects the
    rule returned.  Frobenius
    reciprocity compares int64 keys of the nonzero window entries of P
    with those of P's rows (conj xi, alpha) and (alpha, conj eta), in
    O(n**2 * s); a conjugate outside the window reads its row from the
    rule, through the same reader as P, keeping only its window terms.
    The dimension checks run before associativity, so that its blocks
    hold no Python list of P.  Associativity takes one block of integer
    matrix products per
    first factor xi, where B_xi is the union of the supports of the
    products xi * eta.  Block xi takes the row of the |B| products
    xi * beta, and the row group of the n products beta * zeta of each
    beta in B_xi; for a window beta both are rows of P.  The groups of
    the other betas are pooled: the blocks that use each beta are known
    from P before the first block runs, so groups are kept by next use:
    after each block every group the next block uses, and beyond those
    the groups with the nearest next use while their terms fit in
    _BLOCK_CHUNK (2**16), the farthest evicted first.  So a product
    beta * zeta is read from the rule at its first use and again only
    after an eviction, never more often than when a block kept only the
    groups the next block shares, and besides P one block's rows and at
    most _BLOCK_CHUNK kept terms live at a time.  Each label is numbered
    once per check, by one dict the reads extend, which drops after each
    block the labels that neither P nor a kept group holds; no block
    numbers its labels again.  A block compares its n**2 rows
    (xi eta) zeta and xi (eta zeta) in one of two ways, both on numpy
    arrays: as dense float64 matrix products, one chunk of zeta at a time,
    on its G labels numbered 0..G-1 by one numpy lookup, when its
    n**2 * G result cells are few against the terms of its sparse
    products; else by sorting the int64 keys of those terms, made of the
    check-wide numbers, and summing each key's terms.  No check imports
    scipy or numpy.ma.

    Associativity is decided in exact integer arithmetic: int64, which is
    exact only when every coefficient it reads is an ``int`` (``bool``
    excluded) and max|N|**2 * |B| < 2**63, and dense float64 products
    only when max|N|**2 * |B| < 2**53, so that every partial sum is an
    exact integer.  The int64 guard is checked on P and on each batch of
    products a block reads, once the batch is read.  When it fails the
    check fails and its counterexample names the first coefficient that
    breaks the guard.  A coefficient sum that cancels to zero counts as an
    absent term.  The other checks read P's coefficients as the rule gave
    them.

    The window products are all read before any check compares them, and
    each associativity block reads all of its products before it compares
    any; associativity stops at the first failing block.  So a
    table-backed ring missing a product raises IncompleteTable when that
    product is read before or in the first failing block, even when an
    earlier triple would already fail.  A product that only a later block
    would read is never read, and its absence raises nothing.
    """
    labels = check_labels(ring, getattr(window, "labels", window))
    if not labels:
        raise InvalidParam("verify_axioms needs a non-empty window")
    if ring.unit not in labels:
        raise InvalidParam("verify_axioms window must contain the unit")

    fmt = ring.format_label
    unit = ring.unit
    # every check runs over each label once, in window order: a repeated
    # label only repeats pairs and triples first met at its first occurrence
    distinct = list(dict.fromkeys(labels))
    conj = {l: ring._conjugate_rule(l) for l in distinct}
    dims = {l: ring._dim_rule(l) for l in distinct}

    # the window products: row i*n + j of P holds x_i * y_j for distinct
    # window labels, each read once from the rule; column c holds the
    # label names[c], the window labels first
    n = len(distinct)
    columns = {x: j for j, x in enumerate(distinct)}
    P = _product_csr(ring, distinct, distinct, columns, grow=True)
    names = [*columns]

    def product(row):
        # the map x_i * y_j of row i*n + j of P
        lo, hi = P[2][row], P[2][row + 1]
        return dict(zip([names[c] for c in P[1][lo:hi].tolist()],
                        P[0][lo:hi].tolist()))

    def entry(at):
        # (x, y, alpha) of the entry at of P, a term of x * y
        i, j = divmod(int(np.searchsorted(P[2], at, side="right")) - 1, n)
        return distinct[i], distinct[j], names[P[1][at]]

    def dim_of(label):
        # d of a label a rule returned, checked and read once
        try:
            return dims[label]
        except (KeyError, TypeError):  # TypeError: unhashable
            ring.check_label(label)
            d = dims[label] = ring._dim_rule(label)
            return d

    for xibar in conj.values():
        dim_of(xibar)  # every conjugate is checked before an axiom reads it
    checks = []

    # unit law: e*xi = xi*e = {xi: 1}
    bad = None
    e = columns[unit]
    for j, xi in enumerate(distinct):
        if product(e * n + j) != {xi: 1}:
            bad = f"e*{fmt(xi)} = {product(e * n + j)}"
            break
        if product(j * n + e) != {xi: 1}:
            bad = f"{fmt(xi)}*e = {product(j * n + e)}"
            break
    checks.append(AxiomCheck("unit_law", bad is None, bad))

    # involution: conj is an involution fixing e, preserving dim; d is
    # finite and >= 1
    bad = None
    if conj[unit] != unit:
        bad = f"conj(e) = {fmt(conj[unit])}"
    else:
        for xi in distinct:
            xibar = conj[xi]
            if not _finite(dims[xi]):
                bad = f"d({fmt(xi)}) = {dims[xi]} is not finite"
                break
            dbar = dim_of(xibar)
            if ring._conjugate_rule(xibar) != xi:
                bad = f"conj(conj({fmt(xi)})) = {fmt(ring._conjugate_rule(xibar))}"
                break
            if dbar != dims[xi]:
                bad = f"d({fmt(xi)}) = {dims[xi]} but d(conj) = {dbar}"
                break
            if dims[xi] < 1:
                bad = f"d({fmt(xi)}) = {dims[xi]} < 1"
                break
    checks.append(AxiomCheck("involution", bad is None, bad))

    # structure constants: non-negative integers
    bad = None
    for at, c in enumerate(P[0].tolist()):
        if not isinstance(c, int) or c < 0:
            x, y, alpha = entry(at)
            bad = f"N({fmt(x)},{fmt(y)}->{fmt(alpha)}) = {c!r}"
            break
    checks.append(AxiomCheck("structure_constants", bad is None, bad))

    # Frobenius reciprocity on window triples:
    # N(xi,eta->alpha) = N(conj xi, alpha -> eta) = N(alpha, conj eta -> xi)
    bad = _frobenius_counterexample(ring, distinct, conj, P)
    checks.append(AxiomCheck("frobenius_reciprocity", bad is None, bad))

    # dimension multiplicativity and the dimension bound, computed before
    # associativity so that its blocks hold no Python lists of P
    multiplicativity, bound = _dimension_checks(
        fmt, distinct, P, [*map(dim_of, names)], entry)
    checks.append(multiplicativity)

    # associativity: (xi eta) zeta = xi (eta zeta) as coefficient maps
    bad = _associativity_counterexample(ring, distinct, P, columns)
    checks.append(AxiomCheck("associativity", bad is None, bad))
    checks.append(bound)

    return AxiomReport(description=ring.description,
                       window_labels=tuple(labels),
                       checks=tuple(checks))
