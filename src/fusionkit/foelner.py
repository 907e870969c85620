"""Boundaries, the three FC conditions, Dirichlet energies and set search.

The boundary of a finite set F relative to a finite set S collects the
labels of F whose right products by S leak out of F together with the
labels outside F whose right products by S leak in.  The outside part is
found without ever scanning the (infinite) complement: by Frobenius
reciprocity, N(alpha, xi -> c) = N(c, conj(xi) -> alpha), c lies in
supp(alpha * xi) exactly when alpha lies in supp(c * conj(xi)), so the
outer labels are read off the products of F by conj(S).  ``boundary``,
the FC checks and the ``balls`` search read each product once, from the
rule; only the ``greedy`` search keeps an incremental cut (``_Cut``) and
reads through the ring's product cache, since it scores each candidate
label by its marginal cost.  Both rely on the rings they are given passing
``verify_axioms``.

The FC inequalities are evaluated exactly: sigma-weights of catalog rings
are integers, epsilon is converted to an exact rational, and floats appear
only in reports.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .core import (Element, FusionRing, ProbMeasure, _chain, _exact_dim,
                   _kind, _over, _row, _weight, check_labels, convolve)
from .errors import (BudgetExceeded, EmptySet, InvalidParam,
                     MeasureMissingUnit, NonSymmetricMeasure, ZeroFunction,
                     count, positive)
from .spectral import _next_level, _steps


def as_float(value) -> float:
    """Float view of an exact value; huge ones saturate to +-inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _root(value: Fraction, r: int) -> float:
    """value ** (1/r) for an exact value >= 0.  Past the float range,
    value = m 2**(q r + k) with m in [1/2, 2) and 0 <= k < r, and the root
    is m**(1/r) 2**(k/r) 2**q, or inf when even that overflows."""
    try:
        return float(value) ** (1.0 / r)
    except OverflowError:
        num, den = value.numerator, value.denominator
    q, k = divmod(num.bit_length() - den.bit_length(), r)
    m = num / (den << (q * r + k))
    try:
        return math.ldexp(m ** (1.0 / r) * 2.0 ** (k / r), q)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class BoundaryResult:
    """The two halves of the boundary of F relative to S, with weights."""

    inner: frozenset
    outer: frozenset
    weight_inner: object  # int for integer-dimensional rings, else float
    weight_outer: object
    weight_F: object

    @property
    def labels(self) -> frozenset:
        return self.inner | self.outer

    @property
    def weight(self):
        return self.weight_inner + self.weight_outer


class _Cut:
    """The ``greedy`` search's set F, grown one label at a time, and its
    boundary relative to S, with the marginal cost ``delta`` of a label.

    ``count[alpha]`` counts the pairs (xi in S, beta in supp(alpha * xi))
    that cross the cut: with beta outside F when alpha is in F (alpha is
    inner iff the count is positive), with beta in F when alpha is outside
    (alpha is outer iff the count is positive).  Adding c changes only the
    counts of the labels alpha with c in supp(alpha * xi); by Frobenius
    reciprocity they are the labels of supp(c * conj(xi)).  ``order`` lists
    F in insertion order;
    ``weight_F`` and ``weight_boundary`` are running sigma-weights.
    ``delta`` reads the products of each candidate again, so the cut reads
    through the ring's product cache.
    """

    def __init__(self, ring: FusionRing, S: Iterable):
        self.ring = ring
        self._steps = [(xi, ring._conjugate_rule(xi)) for xi in S]
        self.F: set = set()
        self.order: list = []
        self.count: dict = {}
        self.inner: set = set()
        self.outer: set = set()
        self.weight_F = 0
        self.weight_boundary = 0

    def _effect(self, c) -> tuple:
        # (count of c once added, {alpha: pairs (xi, c) of alpha}, change
        # of the boundary weight) for adding c, which must lie outside F
        ring, F, count, sigma = self.ring, self.F, self.count, self.ring._sigma
        own = 0
        hits: dict = {}
        for xi, xibar in self._steps:
            own += sum(1 for beta in ring._product_cached(c, xi)
                       if beta != c and beta not in F)
            for alpha in ring._product_cached(c, xibar):
                if alpha != c:
                    hits[alpha] = hits.get(alpha, 0) + 1
        dw = (sigma(c) if own else 0) - (sigma(c) if c in self.outer else 0)
        for alpha, k in hits.items():
            if alpha in F:
                if count[alpha] == k:
                    dw -= sigma(alpha)
            elif not count.get(alpha):
                dw += sigma(alpha)
        return own, hits, dw

    def delta(self, c):
        """w(boundary of F + {c}) - w(boundary of F), leaving the cut unchanged."""
        return self._effect(c)[2]

    def add(self, c) -> None:
        """Move the label c (outside F) into F."""
        own, hits, dw = self._effect(c)
        F, count = self.F, self.count
        self.outer.discard(c)
        F.add(c)
        self.order.append(c)
        count[c] = own
        if own:
            self.inner.add(c)
        for alpha, k in hits.items():
            if alpha in F:
                count[alpha] -= k
                if not count[alpha]:
                    self.inner.discard(alpha)
            else:
                count[alpha] = count.get(alpha, 0) + k
                self.outer.add(alpha)
        self.weight_F += self.ring._sigma(c)
        self.weight_boundary += dw


def boundary(ring: FusionRing, S: Iterable, F: Iterable) -> BoundaryResult:
    """Compute the boundary of F relative to S (right multiplication)."""
    S, F = _label_sets(ring, S, F, "boundary")
    return _boundary(ring, S, F)


def _label_sets(ring: FusionRing, S: Iterable, F: Iterable, what: str) -> tuple:
    # S and F as sets of checked labels; EmptySet when either is empty
    S, F = set(check_labels(ring, S)), set(check_labels(ring, F))
    if not S or not F:
        raise EmptySet(f"{what} needs non-empty S and F")
    return S, F


def _boundary(ring: FusionRing, S: set, F: set) -> BoundaryResult:
    # the boundary of F relative to S, both sets of checked labels, from
    # the rows of all of F, each product read once from the rule
    steps = _steps(ring, S)
    rows = ((c, _row(ring, c, steps)) for c in F)
    return _boundary_result(ring, *_cut_sets(ring, S, steps, F, rows), F)


def _cut_sets(ring: FusionRing, S: set, steps: list, F: set, rows) -> tuple:
    """(inner, outer) of F relative to S, from ``rows``: pairs of a label
    c of F and its products c * t by the ``_steps`` t of S, in order.  c is
    inner when one of its rows by S leaves F; the outer labels are the
    labels outside F in the rows by conj(S) (Frobenius reciprocity).  So
    ``rows`` must cover every label of F with a row leaving F.
    """
    conj = {ring._conjugate_rule(xi) for xi in S}
    by_S = [t in S for t in steps]
    by_conj = [t in conj for t in steps]
    inner, outer = set(), set()
    for c, row in rows:
        for p, forward, backward in zip(row, by_S, by_conj):
            if forward and c not in inner and not F.issuperset(p):
                inner.add(c)
            if backward:
                outer.update(alpha for alpha in p if alpha not in F)
    return inner, outer


def _boundary_result(ring: FusionRing, inner, outer, F) -> BoundaryResult:
    # the weights are subset sums over the sets, not a cut's running sums,
    # so float dimensions give the same bits however F grew
    return BoundaryResult(inner=frozenset(inner), outer=frozenset(outer),
                          weight_inner=_weight(ring, inner),
                          weight_outer=_weight(ring, outer),
                          weight_F=_weight(ring, F))


@dataclass(frozen=True)
class FoelnerReport:
    """Result of one FC check: lhs < rhs decides ``satisfied`` exactly.

    ``support`` holds S (or the support of the measure), ``set_F`` the
    tested set, both in sorted label order.
    """

    condition: str
    epsilon: float
    lhs: float
    rhs: float
    satisfied: bool
    set_F: tuple
    weight_F: object
    support: tuple
    extra: Mapping = field(default_factory=dict)

    @property
    def set_size(self) -> int:
        return len(self.set_F)


def _report(condition: str, eps, lhs, scale, weight_F, F, support,
            extra: Mapping) -> FoelnerReport:
    # the report of lhs < scale * w(F), decided exactly: scale is an exact
    # rational and the floats are views that saturate past the float range
    return FoelnerReport(
        condition=condition, epsilon=eps, lhs=as_float(lhs),
        rhs=as_float(scale) * as_float(weight_F),
        satisfied=Fraction(lhs) < scale * Fraction(weight_F),
        set_F=tuple(sorted(F)), weight_F=weight_F,
        support=tuple(sorted(support)), extra=extra)


def fc3_check(ring: FusionRing, S: Iterable, F: Iterable, eps: float) -> FoelnerReport:
    """FC3, the weighted isoperimetric inequality:

        sum_{xi in boundary_S(F)} d(xi)^2  <  eps * sum_{xi in F} d(xi)^2.
    """
    eps = positive(eps, "epsilon")
    S, F = _label_sets(ring, S, F, "FC3")
    return _fc3_report(S, F, _boundary(ring, S, F), eps)


def _fc3_report(S: set, F: set, b: BoundaryResult, eps) -> FoelnerReport:
    # the FC3 report of F, whose boundary relative to S is b
    lhs = b.weight
    return _report("FC3", eps, lhs, Fraction(eps), b.weight_F, F, S,
                   {"boundary_inner": b.inner, "boundary_outer": b.outer,
                    "weight_boundary": lhs,
                    "ratio": as_float(Fraction(lhs) / Fraction(b.weight_F))})


def fc1_check(ring: FusionRing, mu: ProbMeasure, F: Iterable, eps: float) -> FoelnerReport:
    """FC1, the support-growth inequality for chi_F convolved with mu:

        sum_{xi in supp(chi_F * mu)} d(xi)^2  <  (1 + eps) * sum_{xi in F} d(xi)^2.

    Requires mu symmetric with the unit in its support.  The report also
    carries the identity supp(chi_F * mu) = F union boundary_S(F) for
    S = supp(mu), checked by the definition of the outer boundary: each
    support label alpha outside F has a product alpha * xi (xi in S) that
    meets F.  The converse inclusion is Frobenius reciprocity, which
    ``verify_axioms`` checks.  Each product is read once, from the rule.
    """
    eps = positive(eps, "epsilon")
    if not _over(ring, mu, ProbMeasure, "mu").symmetric:
        raise NonSymmetricMeasure("FC1 requires a symmetric measure")
    if ring.unit not in mu.support:
        raise MeasureMissingUnit("FC1 requires the unit in supp(mu)")
    F = set(check_labels(ring, F))
    if not F:
        raise EmptySet("FC1 needs a non-empty F")

    # exact support: coefficients are non-negative, so no cancellation
    S = mu.support
    support = set(F)
    for alpha in F:
        for p in _row(ring, alpha, S):
            support.update(p)
    lhs = _weight(ring, support)
    identity_holds = all(any(map(F.intersection, _row(ring, alpha, S)))
                         for alpha in support - F)
    return _report("FC1", eps, lhs, 1 + Fraction(eps), _weight(ring, F), F, S,
                   {"support_size": len(support), "support_weight": lhs,
                    "support_identity_holds": identity_holds})


def fc2_check(ring: FusionRing, S: Iterable, F: Iterable, eps: float) -> FoelnerReport:
    """FC2, almost-invariance of chi_F under right convolution:

        for every xi in S:  || rho_xi(chi_F) - chi_F ||_{1,sigma} < eps * || chi_F ||_{1,sigma}.

    Each value is computed exactly, as the expansion over the pairs that
    cross the cut, and listed in the report:
        sum_{eta in F, alpha not in F} d(eta) d(alpha) / d(xi)
            * (N(eta,conj xi->alpha) + N(eta,xi->alpha)).
    Each product eta * t (t in S or conj(S)) is read once, from the rule.
    """
    eps = positive(eps, "epsilon")
    S, F = _label_sets(ring, S, F, "FC2")
    S = sorted(S)
    weight_F = _weight(ring, F)

    conj = ring._conjugate_rule
    steps = [*dict.fromkeys(t for xi in S for t in (xi, conj(xi)))]
    out = dict.fromkeys(steps, 0)
    for eta in F:
        deta = _exact_dim(ring, eta)
        for t, p in zip(steps, _row(ring, eta, steps)):
            out[t] += deta * sum(_exact_dim(ring, alpha) * n
                                 for alpha, n in p.items() if alpha not in F)
    values = [Fraction(out[conj(xi)] + out[xi]) / Fraction(ring._dim_rule(xi))
              for xi in S]

    worst = max(values)  # below eps * weight_F iff every value is
    return _report("FC2", eps, worst, Fraction(eps), weight_F, F, S,
                   {"per_label": {ring.format_label(xi): as_float(v)
                                  for xi, v in zip(S, values)}})


def transition_kernel(ring: FusionRing, mu: ProbMeasure, xi, eta) -> float:
    """The random-walk kernel p_mu(xi, eta) = (delta_xi * mu)(eta)."""
    return float(transition_kernel_exact(ring, mu, xi, eta))


def transition_kernel_exact(ring: FusionRing, mu: ProbMeasure, xi, eta) -> Fraction:
    """p_mu(xi, eta) as an exact rational: the coefficient at eta of
    ``convolve(delta_xi, mu)``, with the weights of mu read as Fractions.

    Satisfies the reversibility condition
    sigma(xi) p_mu(xi, eta) = sigma(eta) p_mu(eta, xi) exactly.
    """
    _over(ring, mu, ProbMeasure, "mu")
    ring.check_label(xi)
    ring.check_label(eta)
    row = convolve(Element._trusted(ring, {xi: 1}), _exact_measure(mu))
    return Fraction(row[eta])


def _exact_measure(mu: ProbMeasure) -> Element:
    # mu with Fraction weights: convolve(delta_xi, it) is the exact kernel row
    return Element._trusted(mu.ring, {w: Fraction(v) for w, v in mu.items()})


def dirichlet_norm(ring: FusionRing, mu: ProbMeasure, f: Element, r: int) -> float:
    """The generalized Dirichlet r-seminorm

        ||f||_{D_mu(r)} = ( 1/2 sum_{xi,eta} sigma(xi) p_mu(xi,eta) |f(xi)-f(eta)|^r )^(1/r).

    The sum runs over the kernel rows convolve(delta_xi, mu) of supp(f) and
    of the xi that reach it (by Frobenius reciprocity, xi in
    supp(eta * conj(omega))), each computed once, in exact rational
    arithmetic; only the final r-th root is float, taken past floats too.
    """
    r = count(r, "r", 1)
    return _root(_energy(ring, mu, f, r), r)


def _energy(ring: FusionRing, mu: ProbMeasure, f: Element, r: int) -> Fraction:
    # the r-th power of the Dirichlet seminorm, exactly, for a checked r
    _over(ring, mu, ProbMeasure, "mu")
    values = _exact_values(_over(ring, f, Element, "f"), "f")
    conj, exact = ring._conjugate_rule, _exact_measure(mu)
    sources = dict.fromkeys(f.support)
    for eta in f.support:
        for p in _row(ring, eta, [*map(conj, mu.support)]):
            sources.update(dict.fromkeys(p))
    energy = Fraction(0)
    for xi in sources:
        sigma, value = Fraction(ring._sigma(xi)), values.get(xi, 0)
        row = convolve(Element._trusted(ring, {xi: 1}), exact)
        for eta, p in row.coeffs.items():
            diff = value - values.get(eta, 0)
            if diff and p:
                energy += sigma * p * abs(diff) ** r
    return energy / 2


def lp_sigma_norm(f: Element, r: int) -> float:
    """The l^r norm with respect to the sigma weights, past floats too."""
    r = count(r, "r", 1)
    return _root(_lp_sum(f, r), r)


def _lp_sum(f: Element, r: int) -> Fraction:
    # the r-th power of the l^r sigma norm, exactly, for a checked r
    ring = _kind(f, Element, "f").ring
    return sum(Fraction(ring._sigma(label)) * abs(value) ** r
               for label, value in _exact_values(f, "f").items())


def _exact_values(f: Element, what: str) -> dict:
    # the coefficients of f as Fractions; InvalidParam at the first one
    # that is no finite real number (a complex, a NaN or an infinity)
    out = {}
    for label, value in f.coeffs.items():
        try:
            out[label] = Fraction(value)
        except (TypeError, ValueError, OverflowError):
            raise InvalidParam(f"{what} must have finite real coefficients, got "
                               f"{value!r} at {f.ring.format_label(label)}") from None
    return out


def inner_sigma(f: Element, g: Element) -> float:
    """The real inner product on l2(sigma); saturates like ``as_float``."""
    ring = _kind(f, Element, "f").ring
    _over(ring, g, Element, "g")
    _exact_values(f, "f")  # refuses coefficients that are no finite reals
    _exact_values(g, "g")
    small, large = (f, g) if len(f.coeffs) <= len(g.coeffs) else (g, f)
    terms = [(ring._sigma(l), v, large[l]) for l, v in small.coeffs.items()]
    try:
        return float(sum(map(math.prod, terms)))
    except (OverflowError, TypeError):  # past floats, or Decimal * float
        return as_float(sum(math.prod(map(Fraction, t)) for t in terms))


def nw_ratio(ring: FusionRing, mu: ProbMeasure, f: Element, r: int) -> float:
    """The Dirichlet-to-norm ratio ||f||_{D_mu(r)} / ||f||_{r,sigma}.

    Amenability is equivalent to this ratio having infimum zero over all
    non-zero finitely supported f; the function only evaluates single
    ratios and never claims an infimum.  Where a norm leaves the floats it
    is the root of the exact ratio, so scaling f changes nothing.
    """
    if not _over(ring, f, Element, "f").coeffs:
        raise ZeroFunction("nw_ratio is undefined for the zero function")
    r = count(r, "r", 1)
    energy, total = _energy(ring, mu, f, r), _lp_sum(f, r)
    D, L = _root(energy, r), _root(total, r)
    return D / L if D < math.inf and 0 < L < math.inf else _root(energy / total, r)


# ---------------------------------------------------------------------------
# search for Foelner sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvePoint:
    step: int
    set_size: int
    weight_F: object
    weight_boundary: object
    ratio: float


@dataclass(frozen=True)
class SearchResult:
    found: bool
    labels: tuple
    report: FoelnerReport
    curve: tuple


def foelner_search(ring: FusionRing, S: Iterable, eps: float,
                   strategy: str = "balls", budget: int = 2000) -> SearchResult:
    """Search for a finite F with boundary weight ratio below eps.

    ``balls`` tests the windows generated by S at radius 1, 2, ...;
    ``greedy`` grows F from the unit, each step adding the outer-boundary
    label that minimizes the resulting FC3 ratio (ties broken by label
    order).  Stops at the first satisfying F.  When the label budget is
    exhausted the best F seen is returned with ``found`` false; the curve
    always records every step.

    ``balls`` reads each product once, from the rule: the rows c * t of
    the labels c of radius r give both the boundary of the ball of radius
    r, whose inner labels all lie at radius r and whose outer labels all
    lie in those rows, and the labels of radius r + 1.  ``greedy`` keeps an
    incremental cut, which scores each candidate by its marginal cost and
    so reads through the ring's product cache.

    The report equals ``fc3_check(ring, S, labels, eps)`` field for field.
    It is built from the boundary recorded with the best ratio: F only
    grows and a satisfying F beats every earlier one, so the returned set
    is the prefix of the labels added that had the best ratio.  A curve
    point's ``weight_F`` is a running sum; on ``balls`` its
    ``weight_boundary`` is the subset sum ``fc3_check`` reports for the
    ball.
    """
    S = set(check_labels(ring, S))
    if not S:
        raise EmptySet("search needs a non-empty S")
    eps = positive(eps, "epsilon")
    if strategy not in ("balls", "greedy"):
        raise InvalidParam(f"unknown strategy {strategy!r}")
    budget = count(budget, "budget", 1)
    eps_exact = Fraction(eps)

    curve: list = []
    best = None  # (ratio, prefix length of order, inner, outer)

    def record(step, order, weight_F, weight_boundary, inner, outer) -> bool:
        # the FC3 ratio of F, the labels of order; true when it is below eps
        nonlocal best
        ratio = Fraction(weight_boundary) / Fraction(weight_F)
        curve.append(CurvePoint(step=step, set_size=len(order),
                                weight_F=weight_F,
                                weight_boundary=weight_boundary,
                                ratio=float(ratio)))
        if best is None or ratio < best[0]:
            best = (ratio, len(order), frozenset(inner), frozenset(outer))
        return ratio < eps_exact

    found = False
    if strategy == "balls":
        steps = _steps(ring, S)
        F = {ring.unit}
        order = [ring.unit]
        weight_F = ring._sigma(ring.unit)
        rows = [_row(ring, ring.unit, steps)]
        try:
            for radius in itertools.count(1):
                new = _next_level(ring, _chain(rows), F, budget, radius)
                order += new
                for label in new:
                    weight_F += ring._sigma(label)
                rows = [_row(ring, c, steps) for c in new]
                inner, outer = _cut_sets(ring, S, steps, F, zip(new, rows))
                found = record(radius, order, weight_F,
                               _weight(ring, inner) + _weight(ring, outer),
                               inner, outer)
                if found or not new:
                    break  # an empty level: the ring is exhausted
        except BudgetExceeded:
            if not curve:
                raise  # not even radius 1 fits the budget
    else:
        cut = _Cut(ring, S)
        order = cut.order
        cut.add(ring.unit)
        while not (found := record(len(order), order, cut.weight_F,
                                   cut.weight_boundary, cut.inner, cut.outer)):
            if len(order) >= budget or not cut.outer:
                break
            w_b, w_F = cut.weight_boundary, cut.weight_F
            best_cand = best_ratio = None
            for cand in sorted(cut.outer):
                ratio = (Fraction(w_b + cut.delta(cand))
                         / Fraction(w_F + ring._sigma(cand)))
                if best_ratio is None or ratio < best_ratio:
                    best_cand, best_ratio = cand, ratio
            cut.add(best_cand)

    _, size, inner, outer = best
    labels = tuple(order[:size])
    F = set(labels)
    return SearchResult(found, labels,
                        _fc3_report(S, F, _boundary_result(ring, inner, outer, F), eps),
                        tuple(curve))
