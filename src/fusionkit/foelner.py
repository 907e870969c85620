"""Boundaries, the three FC conditions, Dirichlet energies and set search.

The boundary of a finite set F relative to a finite set S collects the
labels of F whose right products by S leak out of F together with the
labels outside F whose right products by S leak in.  The outside part is
enumerated without ever scanning the (infinite) complement: by Frobenius
reciprocity a label alpha outside F can only interact with F through S if
alpha lies in some supp(eta * conj(xi)) with eta in F, xi in S, and only
that finite candidate set is probed.

The FC inequalities are evaluated exactly: sigma-weights of catalog rings
are integers, epsilon is converted to an exact rational, and floats appear
only in reports.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .core import Element, FusionRing, ProbMeasure, subset_weight
from .errors import (EmptySet, InvalidParam, MeasureMissingUnit,
                     NonSymmetricMeasure, RingMismatch, ZeroFunction)


def as_float(value) -> float:
    """Float view of an exact weight; huge integers saturate to inf."""
    try:
        return float(value)
    except OverflowError:
        return float("inf")


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


def boundary(ring: FusionRing, S: Iterable, F: Iterable) -> BoundaryResult:
    """Compute the boundary of F relative to S (right multiplication)."""
    S = set(S)
    F = set(F)
    if not S or not F:
        raise EmptySet("boundary needs non-empty S and F")
    for label in S | F:
        ring.check_label(label)

    inner = set()
    for alpha in F:
        for xi in S:
            if any(beta not in F for beta in ring._product_cached(alpha, xi)):
                inner.add(alpha)
                break

    candidates = set()
    for eta in F:
        for xi in S:
            candidates.update(ring._product_cached(eta, ring.conj(xi)))
    candidates -= F
    outer = set()
    for alpha in candidates:
        for xi in S:
            if any(beta in F for beta in ring._product_cached(alpha, xi)):
                outer.add(alpha)
                break

    return BoundaryResult(inner=frozenset(inner), outer=frozenset(outer),
                          weight_inner=subset_weight(ring, inner),
                          weight_outer=subset_weight(ring, outer),
                          weight_F=subset_weight(ring, F))


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
    curve: tuple | None = None

    @property
    def set_size(self) -> int:
        return len(self.set_F)


def _exactly_less(lhs, rhs_scale, weight_F) -> bool:
    # lhs < rhs_scale * weight_F decided in exact rational arithmetic
    return Fraction(lhs) < Fraction(rhs_scale) * Fraction(weight_F)


def fc3_check(ring: FusionRing, S: Iterable, F: Iterable, eps: float) -> FoelnerReport:
    """FC3, the weighted isoperimetric inequality:

        sum_{xi in boundary_S(F)} d(xi)^2  <  eps * sum_{xi in F} d(xi)^2.
    """
    if eps <= 0:
        raise InvalidParam(f"epsilon must be positive, got {eps}")
    S = set(S)
    F = set(F)
    b = boundary(ring, S, F)
    lhs = b.weight
    satisfied = _exactly_less(lhs, eps, b.weight_F)
    return FoelnerReport(
        condition="FC3", epsilon=eps, lhs=as_float(lhs),
        rhs=float(eps) * as_float(b.weight_F), satisfied=satisfied,
        set_F=tuple(sorted(F)), weight_F=b.weight_F,
        support=tuple(sorted(S)),
        extra={"boundary_inner": b.inner, "boundary_outer": b.outer,
               "weight_boundary": lhs,
               "ratio": float(Fraction(lhs) / Fraction(b.weight_F))})


def fc1_check(ring: FusionRing, mu: ProbMeasure, F: Iterable, eps: float) -> FoelnerReport:
    """FC1, the support-growth inequality for chi_F convolved with mu:

        sum_{xi in supp(chi_F * mu)} d(xi)^2  <  (1 + eps) * sum_{xi in F} d(xi)^2.

    Requires mu symmetric with the unit in its support.  The report also
    carries the cross-check that supp(chi_F * mu) = F union boundary_S(F)
    for S = supp(mu).
    """
    if eps <= 0:
        raise InvalidParam(f"epsilon must be positive, got {eps}")
    if mu.ring is not ring:
        raise RingMismatch("measure belongs to a different ring")
    if not mu.symmetric:
        raise NonSymmetricMeasure("FC1 requires a symmetric measure")
    if ring.unit not in mu.support:
        raise MeasureMissingUnit("FC1 requires the unit in supp(mu)")
    F = set(F)
    if not F:
        raise EmptySet("FC1 needs a non-empty F")
    for label in F:
        ring.check_label(label)

    # exact support: coefficients are non-negative, so no cancellation
    support = set(F)
    for alpha in F:
        for beta in mu.support:
            support.update(ring._product_cached(alpha, beta))
    lhs = subset_weight(ring, support)
    weight_F = subset_weight(ring, F)
    satisfied = _exactly_less(lhs, 1 + Fraction(float(eps)), weight_F)

    b = boundary(ring, set(mu.support), F)
    identity_holds = support == (F | b.labels)
    return FoelnerReport(
        condition="FC1", epsilon=eps, lhs=as_float(lhs),
        rhs=(1.0 + float(eps)) * as_float(weight_F), satisfied=satisfied,
        set_F=tuple(sorted(F)), weight_F=weight_F,
        support=tuple(sorted(mu.support)),
        extra={"support_size": len(support),
               "support_weight": lhs,
               "support_identity_holds": identity_holds})


def _fc2_value(ring: FusionRing, xi, F: set) -> Fraction:
    # the l1(sigma) distance || rho_xi(chi_F) - chi_F ||, via the exact
    # expansion over the pairs that cross the cut:
    #   sum_{alpha not in F} sum_{eta in F}
    #       d(eta) d(alpha) / d(xi) * (N(eta,conj xi->alpha) + N(eta,xi->alpha))
    def exact_dim(label):
        d = ring.dim(label)
        return d if isinstance(d, int) else Fraction(d)

    xibar = ring.conj(xi)
    total = 0
    for eta in F:
        deta = exact_dim(eta)
        for p in (ring._product_cached(eta, xibar), ring._product_cached(eta, xi)):
            for alpha, n in p.items():
                if alpha not in F:
                    total += deta * exact_dim(alpha) * n
    return Fraction(total) / Fraction(ring.dim(xi))


def fc2_check(ring: FusionRing, S: Iterable, F: Iterable, eps: float) -> FoelnerReport:
    """FC2, almost-invariance of chi_F under right convolution:

        for every xi in S:  || rho_xi(chi_F) - chi_F ||_{1,sigma} < eps * || chi_F ||_{1,sigma}.

    The per-label values are computed exactly and listed in the report.
    """
    if eps <= 0:
        raise InvalidParam(f"epsilon must be positive, got {eps}")
    S = sorted(set(S))
    F = set(F)
    if not S or not F:
        raise EmptySet("FC2 needs non-empty S and F")
    for label in set(S) | F:
        ring.check_label(label)
    weight_F = subset_weight(ring, F)

    values = [_fc2_value(ring, xi, F) for xi in S]

    eps_exact = Fraction(float(eps))
    satisfied = all(v < eps_exact * weight_F for v in values)
    worst = max(values)
    return FoelnerReport(
        condition="FC2", epsilon=eps, lhs=as_float(worst),
        rhs=float(eps) * as_float(weight_F), satisfied=satisfied,
        set_F=tuple(sorted(F)), weight_F=weight_F,
        support=tuple(S),
        extra={"per_label": {ring.format_label(xi): as_float(v)
                             for xi, v in zip(S, values)}})


def transition_kernel(ring: FusionRing, mu: ProbMeasure, xi, eta) -> float:
    """The random-walk kernel p_mu(xi, eta) = (delta_xi * mu)(eta)."""
    return float(transition_kernel_exact(ring, mu, xi, eta))


def transition_kernel_exact(ring: FusionRing, mu: ProbMeasure, xi, eta) -> Fraction:
    """p_mu(xi, eta) as an exact rational.

    Satisfies the reversibility condition
    sigma(xi) p_mu(xi, eta) = sigma(eta) p_mu(eta, xi) exactly.
    """
    if mu.ring is not ring:
        raise RingMismatch("measure belongs to a different ring")
    ring.check_label(xi)
    ring.check_label(eta)
    deta = Fraction(ring.dim(eta))
    dxi = Fraction(ring.dim(xi))
    total = Fraction(0)
    for omega, weight in mu.items():
        n = ring._product_cached(xi, omega).get(eta, 0)
        if n:
            total += Fraction(weight) * deta * n / (dxi * Fraction(ring.dim(omega)))
    return total


def _kernel_pairs(ring: FusionRing, mu: ProbMeasure, support) -> set:
    # all ordered pairs (xi, eta) with xi or eta in the given support and
    # p_mu(xi, eta) > 0, found through product supports (never by scanning)
    pairs = set()
    for xi in support:
        for omega in mu.support:
            for eta in ring._product_cached(xi, omega):
                pairs.add((xi, eta))
    for eta in support:
        for omega in mu.support:
            for xi in ring._product_cached(eta, ring.conj(omega)):
                pairs.add((xi, eta))
    return pairs


def dirichlet_norm(ring: FusionRing, mu: ProbMeasure, f: Element, r: int) -> float:
    """The generalized Dirichlet r-seminorm

        ||f||_{D_mu(r)} = ( 1/2 sum_{xi,eta} sigma(xi) p_mu(xi,eta) |f(xi)-f(eta)|^r )^(1/r).

    The double sum runs over the finite pair set where the summand can be
    non-zero and is accumulated in exact rational arithmetic; only the
    final r-th root is floating point.
    """
    if not isinstance(r, int) or r < 1:
        raise InvalidParam(f"r must be an integer >= 1, got {r!r}")
    if mu.ring is not ring or f.ring is not ring:
        raise RingMismatch("measure/function belong to a different ring")
    energy = Fraction(0)
    for xi, eta in _kernel_pairs(ring, mu, f.support):
        diff = Fraction(f[xi]) - Fraction(f[eta])
        if diff == 0:
            continue
        p = transition_kernel_exact(ring, mu, xi, eta)
        if p:
            energy += Fraction(ring.sigma(xi)) * p * abs(diff) ** r
    value = energy / 2
    return float(value) ** (1.0 / r)


def lp_sigma_norm(f: Element, r: int) -> float:
    """The l^r norm with respect to the sigma weights."""
    if not isinstance(r, int) or r < 1:
        raise InvalidParam(f"r must be an integer >= 1, got {r!r}")
    ring = f.ring
    total = Fraction(0)
    for label, value in f.coeffs.items():
        total += Fraction(ring.sigma(label)) * abs(Fraction(value)) ** r
    return float(total) ** (1.0 / r)


def inner_sigma(f: Element, g: Element) -> float:
    """The real inner product on l2(sigma)."""
    if f.ring is not g.ring:
        raise RingMismatch("operands live over different rings")
    ring = f.ring
    small, large = (f, g) if len(f.coeffs) <= len(g.coeffs) else (g, f)
    return float(sum(ring.sigma(l) * v * large[l]
                     for l, v in small.coeffs.items()))


def nw_ratio(ring: FusionRing, mu: ProbMeasure, f: Element, r: int) -> float:
    """The Dirichlet-to-norm ratio ||f||_{D_mu(r)} / ||f||_{r,sigma}.

    Amenability is equivalent to this ratio having infimum zero over all
    non-zero finitely supported f; the function only evaluates single
    ratios and never claims an infimum.
    """
    if not f.coeffs:
        raise ZeroFunction("nw_ratio is undefined for the zero function")
    return dirichlet_norm(ring, mu, f, r) / lp_sigma_norm(f, r)


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


def _fc3_ratio(ring: FusionRing, S: set, F) -> tuple:
    b = boundary(ring, S, F)
    return b, Fraction(b.weight) / Fraction(b.weight_F)


def foelner_search(ring: FusionRing, S: Iterable, eps: float,
                   strategy: str = "balls", budget: int = 2000) -> SearchResult:
    """Search for a finite F with boundary weight ratio below eps.

    ``balls`` tests the windows generated by S at radius 1, 2, ...;
    ``greedy`` grows F from the unit, each step adding the outer-boundary
    label that minimizes the resulting FC3 ratio (ties broken by label
    order).  Stops at the first satisfying F.  When the label budget is
    exhausted the best F seen is returned with ``found`` false; the curve
    always records every step.  Greedy re-evaluates the boundary per
    candidate, so keep budgets moderate.
    """
    from .spectral import build_window
    from .errors import BudgetExceeded

    S = set(S)
    if not S:
        raise EmptySet("search needs a non-empty S")
    if eps <= 0:
        raise InvalidParam(f"epsilon must be positive, got {eps}")
    if strategy not in ("balls", "greedy"):
        raise InvalidParam(f"unknown strategy {strategy!r}")
    if budget < 1:
        raise InvalidParam(f"budget must be >= 1, got {budget}")
    for label in S:
        ring.check_label(label)
    eps_exact = Fraction(float(eps))

    curve: list = []
    best = None  # (ratio, labels tuple, report)

    def record(step, labels) -> FoelnerReport:
        nonlocal best
        rep = fc3_check(ring, S, set(labels), eps)
        ratio = Fraction(rep.extra["weight_boundary"]) / Fraction(rep.weight_F)
        curve.append(CurvePoint(step=step, set_size=len(labels),
                                weight_F=rep.weight_F,
                                weight_boundary=rep.extra["weight_boundary"],
                                ratio=float(ratio)))
        if best is None or ratio < best[0]:
            best = (ratio, tuple(labels), rep)
        return rep

    if strategy == "balls":
        prev_size = 0
        radius = 0
        while True:
            radius += 1
            try:
                window = build_window(ring, S, radius, cap=budget)
            except BudgetExceeded:
                break
            rep = record(radius, window.labels)
            if rep.satisfied:
                return SearchResult(True, tuple(window.labels), rep, tuple(curve))
            if len(window) == prev_size:
                break  # the ring is exhausted; no further growth possible
            prev_size = len(window)
    else:
        F = [ring.unit]
        while True:
            rep = record(len(F), F)
            if rep.satisfied:
                return SearchResult(True, tuple(F), rep, tuple(curve))
            if len(F) >= budget:
                break
            b = boundary(ring, S, set(F))
            candidates = sorted(b.outer)
            if not candidates:
                break
            Fset = set(F)
            best_cand = None
            best_ratio = None
            for cand in candidates:
                _, ratio = _fc3_ratio(ring, S, Fset | {cand})
                if best_ratio is None or ratio < best_ratio:
                    best_cand = cand
                    best_ratio = ratio
            F.append(best_cand)

    assert best is not None
    _, labels, rep = best
    return SearchResult(False, labels, rep, tuple(curve))
