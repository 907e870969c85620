"""Finite compressions of the convolution operators and spectral estimates.

All matrices live in the plain l2 basis obtained by conjugating with the
unitary that rescales each basis vector by 1/d: there the left convolution
by a basis label xi acts as

    l_xi : delta_eta -> (1/d(xi)) sum_alpha N(xi,eta->alpha) delta_alpha,

and a symmetric measure produces a literally symmetric matrix.  Compression
to a window drops products that leave it (orthogonal compression), which
makes the top eigenvalue of nested windows a nondecreasing sequence of lower
bounds for the top of the spectrum; for a probability measure that top is
at most 1, and amenability evidence amounts to the gap 1 - lambda_max
closing as the windows grow.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import core
from .core import (_FLOAT_EXACT, _INT64_LIMIT, Element, FusionRing,
                   ProbMeasure, _abs_max, _kind, _over,
                   check_labels, conjugate_element)
from .errors import (BudgetExceeded, EmptySet, InvalidParam, NoConvergence,
                     NonSymmetricMeasure, NotSelfAdjoint, count, positive)

#: default cap on window sizes
DEFAULT_WINDOW_CAP = 250_000

#: amenability_estimate reports EVIDENCE_AMENABLE below this final gap
GAP_THRESHOLD = 1e-3

#: successive top eigenvalues closer than this count as stalled
STALL_THRESHOLD = 1e-6

#: thick-restart Lanczos keeps at most this many basis vectors, and
#: restarts from this many top Ritz vectors when the basis is full
_LANCZOS_BASIS = 32
_LANCZOS_KEEP = 16


class TruncationWindow:
    """A finite, ordered, deduplicated list of basis labels (unit first).

    Built breadth-first from a generator support, closed under conjugation.
    Windows with the same generator support nest as the radius grows, and
    the label order of the smaller window is a prefix of the larger one.
    ``level_sizes[k]`` is the label count after breadth-first level k; a
    finite ring that saturates early has fewer than ``radius + 1`` levels.

    Constructing a window directly checks it: basis labels (the generator
    support's too), no duplicates, the unit first, closed under
    conjugation, an int radius >= 0, and level sizes that rise strictly
    from 1 to the label count in at most ``radius + 1`` entries.
    ``build_window`` and ``prefix`` skip these checks, since the
    breadth-first search yields windows that pass them by construction.
    """

    __slots__ = ("ring", "labels", "radius", "generator_support",
                 "level_sizes", "_index")

    def __init__(self, ring: FusionRing, labels: Iterable, radius: int,
                 generator_support: Iterable, level_sizes: Sequence[int]):
        labels = tuple(check_labels(ring, labels))
        generator_support = check_labels(ring, generator_support)
        index = {}
        for pos, label in enumerate(labels):
            if label in index:
                raise InvalidParam(f"duplicate window label {label!r}")
            index[label] = pos
        if not labels or labels[0] != ring.unit:
            raise InvalidParam("window must list the unit label first")
        for label in labels:
            if ring._conjugate_rule(label) not in index:
                raise InvalidParam(
                    f"window is not closed under conjugation at {label!r}")
        radius = count(radius, "radius", 0)
        sizes = tuple(count(n, "level size", 1)
                      for n in _kind(level_sizes, Sequence, "level_sizes"))
        if (sizes[:1] != (1,) or sizes[-1] != len(labels)
                or len(sizes) > radius + 1
                or any(a >= b for a, b in zip(sizes, sizes[1:]))):
            raise InvalidParam(
                f"level sizes {sizes} must rise strictly from 1 to "
                f"{len(labels)} in at most radius + 1 = {radius + 1} entries")
        self._set(ring, labels, radius, generator_support, sizes, index)

    @classmethod
    def _trusted(cls, ring, labels: tuple, radius: int, generator_support,
                 level_sizes) -> "TruncationWindow":
        # a window whose labels are distinct, unit first and closed under
        # conjugation by construction, built without checking them again
        window = object.__new__(cls)
        window._set(ring, labels, radius, generator_support, level_sizes,
                    dict(zip(labels, itertools.count())))
        return window

    def _set(self, ring, labels, radius, generator_support, level_sizes, index):
        self.ring = ring
        self.labels = labels
        self.radius = radius
        self.generator_support = frozenset(generator_support)
        self.level_sizes = tuple(level_sizes)
        self._index = index

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label) -> bool:
        try:  # an unhashable value is no label
            return label in self._index
        except TypeError:
            return False

    def __iter__(self):
        return iter(self.labels)

    def index(self, label) -> int:
        """The position of ``label``; InvalidParam when it is not here."""
        if label not in self:
            raise InvalidParam(f"{label!r} is not in the window")
        return self._index[label]

    def prefix(self, radius: int) -> "TruncationWindow":
        """The window of a radius in 0..self.radius: a prefix of this one,
        equal to what ``build_window`` returns at that radius."""
        radius = count(radius, "prefix radius", 0, self.radius)
        if radius == self.radius:
            return self
        sizes = self.level_sizes[:radius + 1]
        return TruncationWindow._trusted(self.ring, self.labels[:sizes[-1]],
                                         radius, self.generator_support, sizes)

    def __repr__(self):
        return (f"TruncationWindow({self.ring.description!r}, "
                f"size={len(self.labels)}, radius={self.radius})")


def build_window(ring: FusionRing, S: Iterable, radius: int,
                 cap: int = DEFAULT_WINDOW_CAP) -> TruncationWindow:
    """Window spanned by the unit and the products of at most ``radius``
    factors from S and conj(S), closed under conjugation.

    Discovery order is breadth-first with ties broken by label order, so
    windows are reproducible and nested across radii.  Raises
    BudgetExceeded if the label count would exceed ``cap``, reporting the
    last fully expanded radius.

    The products w * t the search reads come straight from the rule:
    only the greedy Foelner search caches products.
    """
    S = set(check_labels(ring, S))
    if not S:
        raise EmptySet("window generator support must be non-empty")
    return _build_window(ring, S, radius, cap)


def _build_window(ring: FusionRing, S: set, radius: int, cap: int) -> TruncationWindow:
    # build_window from a non-empty set S of checked labels
    radius = count(radius, "radius", 0)
    cap = count(cap, "cap", 1)

    order = []
    level_sizes = []
    for _, new in zip(range(radius + 1), _bfs_levels(ring, S, cap)):
        if not new:
            break
        order.extend(new)
        level_sizes.append(len(order))
    return TruncationWindow._trusted(ring, tuple(order), radius, S, level_sizes)


def _bfs_levels(ring: FusionRing, S: set, cap: int):
    """Yield the labels first reached at breadth-first level 0, 1, 2, ...

    Level 0 is the unit; level k is ``_next_level`` of the products of
    level k - 1 by the ``_steps`` of S, read lazily from the rule in
    order, so the cap stops the reads where it is reached.  After the
    first empty level the ring is exhausted and the generator ends.
    S must be checked labels; every other label is a product of checked
    labels, so none is checked again.
    """
    steps = _steps(ring, S)
    seen = {ring.unit}
    frontier = [ring.unit]
    yield frontier
    level = 0
    while frontier:
        level += 1
        frontier = _next_level(ring, itertools.starmap(
            ring._product_rule, itertools.product(frontier, steps)),
            itertools.product(frontier, steps), seen, cap, level)
        yield frontier


def _steps(ring: FusionRing, S: set) -> list:
    # the steps t of a breadth-first search by S: S and conj(S) but for the
    # unit, in label order (w * e adds no label, by the unit law
    # ``verify_axioms`` checks)
    conj = ring._conjugate_rule
    return sorted((S | {conj(xi) for xi in S}) - {ring.unit})


def _next_level(ring: FusionRing, products, pairs, seen: set, cap: int,
                level: int) -> list:
    """The labels first reached at breadth-first level ``level``, from
    ``products``, the maps w * t of level - 1 by the steps, in order, and
    ``pairs``, the (w, t) of each, read in step with them: the labels of
    each map not in ``seen``, in label order, each with its conjugate.
    Each is added to ``seen``.

    Each map is checked once, as it is read: a plain dict without zero
    coefficients is used as it is; anything else goes through
    ``core._rebuilt``, which drops zero coefficients and raises
    InvalidParam naming the pair and the type of a product that is no
    Mapping.  Raises BudgetExceeded as soon as the label count would
    exceed ``cap``, in the middle of the level.
    """
    conj = ring._conjugate_rule
    new = []
    for p, pair in zip(products, pairs):
        if type(p) is not dict or not all(p.values()):
            p = core._rebuilt(ring, (p,), (pair,))[0]
        for alpha in sorted(p) if len(p) > 1 else p:
            # a seen label's conjugate entered together with it
            if alpha in seen:
                continue
            for cand in (alpha, conj(alpha)):
                if cand not in seen:
                    if len(seen) + 1 > cap:
                        raise BudgetExceeded(
                            f"window would exceed cap {cap} while "
                            f"expanding radius {level} "
                            f"(completed radius {level - 1})",
                            cap=cap, achieved_radius=level - 1)
                    seen.add(cand)
                    new.append(cand)
    return new


class _CSR:
    """An n x n CSR matrix on numpy arrays alone (``data``, ``indices``,
    ``indptr``), with what the estimate path does with one: ``M @ x``, the
    sign test ``min()`` and the leading principal submatrices.

    ``M @ x`` is ``np.bincount`` over the row of each entry, computed once
    here: it adds its weights one at a time in array order, so each row is
    summed from 0.0 in CSR order, as scipy's ``csr_matvec`` does.  It is
    float64 even when the matrix stores no entries, where ``np.bincount``
    alone returns int64 zeros.
    """

    __slots__ = ("shape", "data", "indices", "indptr", "_rows")

    def __init__(self, data, indices, indptr):
        n = len(indptr) - 1
        self.shape = (n, n)
        self.data = data
        self.indices = indices
        self.indptr = indptr
        self._rows = np.repeat(np.arange(n), np.diff(indptr))

    def __matmul__(self, x):
        y = np.bincount(self._rows, self.data * x[self.indices],
                        minlength=self.shape[0])
        return y.astype(np.float64, copy=False)

    def min(self):
        # min(0, least stored entry): negative exactly when some entry is
        return self.data.min(initial=0.0)

    def leading(self, n: int) -> "_CSR":
        """The leading principal n x n submatrix, its entries in the same
        order."""
        if n == self.shape[0]:
            return self
        end = self.indptr[n]
        keep = self.indices[:end] < n
        kept = np.concatenate(([0], np.cumsum(keep)))
        return _CSR(self.data[:end][keep], self.indices[:end][keep],
                    kept[self.indptr[:n + 1]])


class CompressedOperator:
    """A sparse matrix compression of a convolution operator to a window.

    ``selfadjoint`` is set when the defining data is symmetric (symmetric
    measure, self-conjugate label); in that case the stored matrix equals
    its transpose entrywise exactly, because each entry is an exact integer
    numerator over one common denominator, turned into a float by one
    correctly rounded division.

    The operators that ``l_operator``, ``l_measure_operator`` and
    ``gns_operator`` build hold numpy CSR arrays, and ``top_eigenvalue``
    and ``amenability_estimate`` run on those alone, so they import no
    scipy.  The ``matrix`` property builds a ``scipy.sparse.csr_matrix``
    from the arrays on its first read, which imports ``scipy.sparse``.  The
    constructor takes a real scipy.sparse matrix, so its caller has loaded
    scipy already; it refuses anything else without importing scipy.  It
    copies the matrix into a ``csr_matrix`` once, summing duplicate
    entries, and that is what ``matrix`` returns.  With ``selfadjoint``
    set it raises NotSelfAdjoint unless that matrix is exactly its
    transpose.
    """

    __slots__ = ("window", "selfadjoint", "_csr", "_matrix")

    def __init__(self, window: TruncationWindow, matrix, selfadjoint: bool):
        n = len(_kind(window, TruncationWindow, "window"))
        # a value cannot be a scipy matrix unless scipy.sparse is loaded,
        # so refusing one imports nothing
        sparse = sys.modules.get("scipy.sparse")
        if (sparse is None or not sparse.issparse(matrix)
                or matrix.shape != (n, n)):
            raise InvalidParam("matrix must be a scipy.sparse matrix of shape "
                               f"{(n, n)}, got {type(matrix).__name__} "
                               f"{getattr(matrix, 'shape', '')}")
        if matrix.dtype.kind not in "biuf":
            raise InvalidParam(f"matrix entries must be real, got {matrix.dtype}")
        # a copy, with duplicate entries summed: changing the caller's
        # matrix later changes neither the operator nor its symmetry
        csr = sparse.csr_matrix(matrix, copy=True)
        if selfadjoint and (csr != csr.T).nnz:
            raise NotSelfAdjoint("selfadjoint is set, but the matrix is not "
                                 "exactly its transpose")
        self._set(window, _CSR(csr.data, csr.indices, csr.indptr),
                  selfadjoint, csr)

    @classmethod
    def _trusted(cls, window: TruncationWindow, csr: _CSR,
                 selfadjoint: bool) -> "CompressedOperator":
        # an operator whose arrays fit its window by construction
        op = object.__new__(cls)
        op._set(window, csr, selfadjoint, None)
        return op

    def _set(self, window, csr, selfadjoint, matrix):
        self.window = window
        self.selfadjoint = selfadjoint
        self._csr = csr
        self._matrix = matrix

    @property
    def matrix(self):
        """The matrix as a ``scipy.sparse.csr_matrix``: the constructor's,
        or built once on the first read from the arrays of an operator the
        library assembled; that read imports scipy, and raises InvalidParam
        when scipy is not installed (the ``scipy`` extra)."""
        if self._matrix is None:
            try:
                import scipy.sparse as sparse
            except ImportError:
                raise InvalidParam(
                    "CompressedOperator.matrix needs scipy: install "
                    "fusionkit[scipy]") from None
            csr = self._csr
            self._matrix = sparse.csr_matrix(
                (csr.data, csr.indices, csr.indptr), shape=csr.shape)
        return self._matrix

    @property
    def shape(self):
        return self._csr.shape

    @property
    def nnz(self) -> int:
        """The number of stored entries, entries that cancelled to 0
        included, read from the operator's CSR arrays without importing
        scipy.  It equals ``matrix.nnz``."""
        return int(self._csr.indptr[-1])

    def __repr__(self):
        tag = "selfadjoint" if self.selfadjoint else "general"
        return f"CompressedOperator({self.shape[0]}x{self.shape[1]}, {tag})"


def _compress(ring: FusionRing, terms, window: TruncationWindow,
              selfadjoint: bool) -> CompressedOperator:
    """Compression of sum over (xi, c) in ``terms`` of c N(xi, . -> .).

    Entry (alpha, eta) is the sum of c N(xi,eta->alpha).  With D the lcm of
    the denominators of the exact (int or Fraction) coefficients c, it is
    the integer numerator sum of a_xi N, a_xi = c D, over D, divided once
    with correct rounding, so the float equals that of the exact rational.
    An entry some product reaches is stored even when its sum cancels to 0.

    When ``selfadjoint`` is set, symmetric assembly reads each conjugate
    pair once: for xi != conj(xi) with equal coefficients, the conj(xi)
    term is the transpose of the xi term, since Frobenius reciprocity gives
    N(conj xi, eta -> alpha) = N(xi, alpha -> eta).  So the products
    xi * eta are read once and a N is added at both (alpha, eta) and
    (eta, alpha).  This relies on Frobenius reciprocity of the ring, which
    ``verify_axioms`` checks and ``load_ring`` enforces for tables.
    Self-conjugate terms, and every term of a non-symmetric operator, read
    their own products.  Integer sums do not depend on the order of
    addition, so either way the matrix is the same to the bit.

    All products xi * eta are read once, straight from the rule, by one
    ``core._product_csr`` call, xi-major and eta in window order, one read
    per term or conjugate pair; it keeps the in-window terms only, and a
    coefficient outside the window is never looked at.  Each read's
    structure constants N become numerators a N in place, and a paired read
    appends a transposed copy.  The keys i n + j are then sorted once
    (stably) and ``np.add.reduceat`` sums each entry: O(E log E) array work
    for E terms.
    The numerators are int64 when every structure constant kept is an
    ``int`` and max|a| max|N| 2 len(terms) < 2**63, so no sum can
    overflow; otherwise they are Python ints in object arrays.  The
    division is float64 when the numerators are int64 and D and every
    |sum| are below 2**53: both are then exact floats, and IEEE division
    rounds their quotient correctly, as int / int does.  Otherwise each
    entry is divided as int / int, and an entry past the float range
    raises InvalidParam naming it.

    Every label here was checked when the window, measure or element was
    built, so none is checked again.
    """
    n = len(window)
    terms = [(xi, Fraction(c)) for xi, c in terms]
    D = math.lcm(*(c.denominator for _, c in terms))
    coefficient = dict(terms)
    paired = set()  # conjugates already added as transposes
    xis, factors, pairs = [], [], []  # per read: xi, a_xi, transposed too
    for xi, c in terms:
        if xi in paired:
            continue
        xibar = ring._conjugate_rule(xi) if selfadjoint else xi
        pair = xibar != xi and coefficient.get(xibar) == c
        if pair:
            paired.add(xibar)
        xis.append(xi)
        factors.append(c.numerator * (D // c.denominator))
        pairs.append(pair)
    # max|a N| times this stays below 2**63 exactly when no sum can overflow
    scale = 2 * len(terms) * max(map(abs, factors), default=0)
    # term e, of read t when bounds[t] <= e < bounds[t + 1], is
    # N(xi_t, eta_j -> alpha_i) = numerators[e], i = rows[e], j = cols[e]
    numerators, rows, indptr = core._product_csr(ring, xis, window.labels,
                                                 window._index, grow=False)
    bounds = indptr[::n].tolist()
    cols = np.repeat(np.tile(np.arange(n, dtype=np.int32), len(xis)),
                     np.diff(indptr))
    del indptr
    # the numerators are held as Python ints when int64 could overflow
    wide = numerators.dtype != np.int64 or (
        numerators.size and _abs_max(numerators) * scale >= _INT64_LIMIT)
    if wide:
        numerators = numerators.astype(object)
    for a, lo, hi in zip(factors, bounds, bounds[1:]):
        if lo < hi:  # an int64 slice cannot take an a past int64
            numerators[lo:hi] *= a
    mirrored = np.repeat(np.array(pairs, dtype=bool), np.diff(bounds))
    # each array is freed as soon as the next one is built from it: the
    # E-sized temporaries set the assembly's peak memory
    keys = np.concatenate((rows, cols[mirrored]), dtype=np.int64)
    keys *= n
    keys += np.concatenate((cols, rows[mirrored]))
    del rows, cols
    numerators = np.concatenate((numerators, numerators[mirrored]))
    del mirrored
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    numerators = numerators[order]
    del order
    new = np.empty(len(keys), dtype=bool)  # where a new entry starts
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    first = np.flatnonzero(new)
    del new
    sums = np.add.reduceat(numerators, first)
    del numerators
    keys = keys[first]
    del first
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    keys %= n  # the column indices
    if (not wide and D < _FLOAT_EXACT
            and (not sums.size or _abs_max(sums) < _FLOAT_EXACT)):
        data = sums / D
    else:
        sums = sums.tolist()
        try:
            data = np.fromiter((s / D for s in sums), dtype=np.float64,
                               count=len(sums))
        except OverflowError:
            raise InvalidParam(_past_floats(ring, window, sums, D, keys,
                                            indptr)) from None
    return CompressedOperator._trusted(window, _CSR(data, keys, indptr),
                                       selfadjoint)


def _past_floats(ring: FusionRing, window: TruncationWindow, sums: list,
                 D: int, columns, indptr) -> str:
    # the message naming the first entry sums[at] / D past the float range
    def overflows(s):
        try:
            s / D
        except OverflowError:
            return True
        return False

    at = next(k for k, s in enumerate(sums) if overflows(s))
    row = int(np.searchsorted(indptr, at, side="right")) - 1
    alpha, eta = window.labels[row], window.labels[columns[at]]
    size = math.log2(abs(sums[at])) - math.log2(D)
    return (f"operator entry ({ring.format_label(alpha)}, "
            f"{ring.format_label(eta)}) is {'-' if sums[at] < 0 else ''}"
            f"2**{size:.1f}, past the float range")


def l_operator(ring: FusionRing, xi, window: TruncationWindow) -> CompressedOperator:
    """Compression of l_xi: entry (alpha, eta) = N(xi,eta->alpha) / d(xi).

    Products leaving the window are dropped.  The transpose of this matrix
    equals the matrix of l applied to conj(xi) on any conjugation-closed
    window, entry for entry.
    """
    return l_measure_operator(ring, ProbMeasure.delta(ring, xi), window)


def l_measure_operator(ring: FusionRing, mu: ProbMeasure,
                       window: TruncationWindow) -> CompressedOperator:
    """Compression of l_mu = sum_xi mu(xi) l_xi.

    The self-adjoint flag is set exactly when mu is symmetric (the adjoint
    of l_xi is l applied to conj(xi), by Frobenius reciprocity).  Entries
    are summed as exact integer numerators over the common denominator of
    the mu(xi)/d(xi), and each is divided once with correct rounding, so a
    symmetric measure yields a bitwise-symmetric matrix.
    """
    _over(ring, mu, ProbMeasure, "mu")
    _over(ring, window, TruncationWindow, "window")
    terms = [(xi, Fraction(weight) / Fraction(ring._dim_rule(xi)))
             for xi, weight in mu.sorted_items()]
    return _compress(ring, terms, window, selfadjoint=mu.symmetric)


def gns_operator(ring: FusionRing, x: Element, window: TruncationWindow) -> CompressedOperator:
    """Compression of the GNS representation of an integer ring element.

    The GNS action of a basis label is d(xi) l_xi, so the matrix of x is
    just sum_xi k_xi N(xi,eta->alpha): exact integers.
    """
    _over(ring, x, Element, "x")
    _over(ring, window, TruncationWindow, "window")
    if any(not isinstance(v, int) for v in x.coeffs.values()):
        raise InvalidParam("gns_operator expects an integer element")
    return _compress(ring, sorted(x.coeffs.items()), window,
                     selfadjoint=(conjugate_element(x) == x))


def _apply(ring: FusionRing, mu: ProbMeasure, f: Element, left: bool) -> Element:
    # rho_mu(f), or lambda_mu(f) when left: for each xi in supp(mu), eta
    # runs over supp(alpha * conj xi) (supp(xi * alpha)), and each sum reads
    # supp(p) within supp(f) in the order of f's coefficients, so its float
    # additions match a scan over all of f
    _over(ring, mu, ProbMeasure, "mu")
    _over(ring, f, Element, "f")
    dim = ring._dim_rule
    position = {alpha: i for i, alpha in enumerate(f.coeffs)}
    out: dict = {}
    try:
        for xi, w in mu.sorted_items():
            xibar = ring._conjugate_rule(xi)
            first, second = (xi, xibar) if left else (xibar, xi)
            candidates = [*set().union(*core._row(ring, first, f.support, left))]
            dxi = dim(xi)
            for eta, p in zip(candidates, core._row(ring, second, candidates, left)):
                s = 0.0
                for alpha in sorted((a for a in p if a in position),
                                    key=position.__getitem__):
                    s += f.coeffs[alpha] * p[alpha] * dim(alpha)
                if s:
                    out[eta] = out.get(eta, 0) + w * (s / (dim(eta) * dxi))
    except OverflowError:
        raise core._past_float_range(ring, f.coeffs) from None
    return Element._trusted(ring, out)


def rho1_operator_apply(ring: FusionRing, xi, f: Element) -> Element:
    """Right convolution rho_xi applied to a finitely supported function:

        rho_xi(f)(eta) = sum_alpha f(alpha) (delta_eta * delta_xi)(alpha).

    Evaluated exactly on its finite support; the output support is found by
    Frobenius reciprocity (eta ranges over products of supp(f) with
    conj(xi)).
    """
    return _apply(ring, ProbMeasure.delta(ring, xi), f, left=False)


def rho_measure_apply(ring: FusionRing, mu: ProbMeasure, f: Element) -> Element:
    """rho_mu(f) = sum_omega mu(omega) rho_omega(f)."""
    return _apply(ring, mu, f, left=False)


def lambda_operator_apply(ring: FusionRing, xi, f: Element) -> Element:
    """Left convolution lambda_xi in the weighted-l2 picture:

        lambda_xi(f)(eta) = sum_alpha f(alpha) (delta_conj(xi) * delta_eta)(alpha).

    Used for cross-checking the compressed matrices against the weighted
    picture; the two are intertwined by the rescaling unitary.
    """
    return _apply(ring, ProbMeasure.delta(ring, xi), f, left=True)


def lambda_measure_apply(ring: FusionRing, mu: ProbMeasure, f: Element) -> Element:
    """lambda_mu(f) = sum_xi mu(xi) lambda_xi(f)."""
    return _apply(ring, mu, f, left=True)


@dataclass(frozen=True)
class SpectralEstimate:
    """Top of spectrum of a compressed operator, with its residual."""

    value: float
    method: str  # always "lanczos", the one solver
    iterations: int
    residual: float


def top_eigenvalue(op: CompressedOperator, tol: float = 1e-9) -> SpectralEstimate:
    """Largest eigenvalue of a self-adjoint compression, to absolute
    accuracy ``tol``.

    Every window, from one label to the cap, runs thick-restart Lanczos
    (``_lanczos_top``) from a deterministic start vector; ``iterations``
    counts its matvecs, at least one.  The value is the top one when no
    entry is negative; otherwise it misses the top only with probability
    zero (see ``_lanczos_top``).
    The search stops when its residual estimate falls below tol/2, when it
    finds an invariant subspace, or after 10 n matvecs.  The Ritz pair
    (theta, x) it returns is accepted when ||Mx - theta x||, recomputed
    from x, is below tol, which puts an eigenvalue of M within tol of
    theta; otherwise NoConvergence carries theta, the residual and the
    matvec count.
    The recomputed residual cannot fall below rounding, about
    1e-15 ||M||, so a tol under that ends in NoConvergence after up to
    10 n matvecs (SU(2) delta_1 on 100 labels stops at residual 1.0e-15,
    so tol=1e-15 fails there); such a tol is not refused up front.  A tol
    past the float range (10**400, say) is read as the largest float.
    """
    if not _kind(op, CompressedOperator, "op").selfadjoint:
        raise NotSelfAdjoint("top_eigenvalue requires a self-adjoint operator")
    return _accepted_top(op._csr, _float_tol(tol))


def _float_tol(tol) -> float:
    # a checked tol as a float, capped at the float range: ``positive``
    # keeps exact values such as 10**400, which float() cannot hold
    return float(min(positive(tol, "tol"), sys.float_info.max))


def _accepted_top(M: _CSR, tol: float) -> SpectralEstimate:
    # the Ritz pair of _lanczos_top on the CSR arrays M, accepted when the
    # residual recomputed from its vector is below tol
    theta, x, matvecs = _lanczos_top(M, tol)
    resid = float(np.linalg.norm(M @ x - theta * x))
    if not resid < tol:
        raise NoConvergence(
            f"Lanczos residual {resid:.3g} is not below tol={tol}",
            estimate=theta, residual=resid, iterations=matvecs)
    return SpectralEstimate(value=theta, method="lanczos",
                            iterations=matvecs, residual=resid)


def _lanczos_top(M, tol: float) -> tuple:
    """(theta, x, matvecs): the top Ritz pair of a symmetric n x n matrix
    M, x a unit vector, by thick-restart Lanczos (Wu & Simon, SIAM J.
    Matrix Anal. Appl. 22, 2000), and the number of products M v made.

    The orthonormal basis V starts from the uniform vector when M has no
    negative entry, since by Perron-Frobenius it then overlaps the top
    eigenspace.  A signed M can have it orthogonal to the top (it spans the
    kernel of 2 - g - g^-1 on a cycle), so there V starts from a seed-0
    standard normal draw, which misses a given eigenspace with probability
    zero.  V grows by one vector per matvec, orthogonalized against all of
    V by one pass of classical Gram-Schmidt, which is repeated once only
    when it cancelled, keeping less than half of ||M v_j|| (Daniel, Gragg,
    Kaufman & Stewart, Math. Comp. 30, 1976).  With h the coefficients of
    the pass and beta the norm of what it kept, ||M v_j||**2 = h.h +
    beta**2, so the test is 3 beta**2 < h.h and takes no extra product of
    length n.  A vector that passes it is orthogonal to V to within about
    twice the rounding of one pass ("twice is enough"; Giraud, Langou &
    Rozloznik, 2005); on the benchmark's windows 21 of 3,046 steps repeat
    the pass.  T = V^T M V is kept from the coefficients of both passes.
    With w the orthogonalized M v_j and beta = ||w||, the Ritz pair
    (theta, V y) of an eigenpair (theta, y) of T has residual beta |y_j|.
    When the basis is full it is replaced by the top _LANCZOS_KEEP Ritz
    vectors and w / beta, and T by the diagonal of their Ritz values; the
    Gram-Schmidt coefficients of the next matvecs fill in each new row
    and column of T whole, the first with beta times the last components
    of the kept y.

    The search stops when beta |y_j| < tol/2 for the top pair; when beta
    is below max(tol/2, 64 eps ||T||), so that V spans an invariant
    subspace up to rounding; or after 10 n matvecs.  The residual is
    tested after every matvec until the first restart, while T is small
    and easy problems converge, and then once per restart: that costs at
    most _LANCZOS_KEEP - 1 extra matvecs and saves an eigensolve of T on
    every other step.
    """
    n = M.shape[0]
    cap = 10 * n
    floor = 64 * np.finfo(np.float64).eps
    V = np.empty((_LANCZOS_BASIS, n))
    T = np.zeros((_LANCZOS_BASIS, _LANCZOS_BASIS))
    V[0] = 1.0 / math.sqrt(n)
    if M.min() < 0:
        V[0] = np.random.default_rng(0).standard_normal(n)
        V[0] /= np.linalg.norm(V[0])
    norm_T = 0.0
    restarted = False
    j = matvecs = 0
    while True:
        w = M @ V[j]
        matvecs += 1
        basis = V[:j + 1]
        h = basis @ w
        w -= h @ basis
        beta = math.sqrt(w @ w)
        # ||M v_j||**2 = h.h + beta**2: the pass cancelled, keeping less
        # than half of ||M v_j||, exactly when 3 beta**2 < h.h
        if 3.0 * beta * beta < h @ h:
            h2 = basis @ w
            w -= h2 @ basis
            h += h2
            beta = math.sqrt(w @ w)
        T[:j + 1, j] = T[j, :j + 1] = h
        full = j + 1 == _LANCZOS_BASIS
        # T is solved when a test is due, or when beta is small against
        # ||T|| as of its last solve; the stop tests read the new ||T||
        if (full or not restarted or matvecs >= cap
                or beta < max(tol / 2, floor * norm_T)):
            theta, Y = np.linalg.eigh(T[:j + 1, :j + 1])
            norm_T = max(-theta[0], theta[-1])
            if (beta * abs(Y[j, -1]) < tol / 2 or matvecs >= cap
                    or beta < max(tol / 2, floor * norm_T)):
                return float(theta[-1]), Y[:, -1] @ basis, matvecs
        if full:
            k = _LANCZOS_KEEP
            V[:k] = Y[:, -k:].T @ V
            T[:k, :k] = np.diag(theta[-k:])
            j = k
            restarted = True
        else:
            j += 1
        np.divide(w, beta, out=V[j])


class Verdict(str, Enum):
    EVIDENCE_AMENABLE = "EVIDENCE_AMENABLE"
    EVIDENCE_NONAMENABLE = "EVIDENCE_NONAMENABLE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class RadiusEstimate:
    radius: int
    window_size: int
    lambda_max: float
    method: str
    iterations: int


@dataclass(frozen=True)
class AmenabilityReport:
    """Truncated Kesten-type test for one symmetric measure.

    ``entries`` is the nondecreasing sequence of top eigenvalues over
    nested windows; ``gap`` is 1 - lambda_max at the largest radius.  The
    verdict is heuristic evidence only: amenability quantifies over all
    finitely supported symmetric measures, and any finite computation for
    one measure is one-sided.
    """

    measure_support: tuple
    entries: tuple
    gap: float
    verdict: Verdict
    note: str = ("heuristic verdict from finite truncations of a single "
                 "measure; not a proof of (non-)amenability")

    @property
    def lambda_max(self) -> float:
        return self.entries[-1].lambda_max


def amenability_estimate(ring: FusionRing, mu: ProbMeasure,
                         radii: Sequence[int], cap: int = DEFAULT_WINDOW_CAP,
                         tol: float = 1e-9) -> AmenabilityReport:
    """Run the truncated spectral test over a family of nested windows.

    The window generated by supp(mu) is built and l_mu compressed to it
    once, at the largest radius.  Each smaller window is a prefix of it, and
    its compression is the leading principal submatrix, so each radius only
    takes the top eigenvalue of a slice of the CSR arrays, accepted as
    ``top_eigenvalue`` accepts it; no window or operator is built per
    radius.  Only those arrays and the window's level sizes live through
    the solves: the window, its label index and the operator wrapper are
    dropped once l_mu is assembled, so the peak memory is the larger of
    the search-and-assembly phase and the solve phase, not their sum.
    The verdict is EVIDENCE_AMENABLE
    when the final gap drops below GAP_THRESHOLD; EVIDENCE_NONAMENABLE
    when the sequence has numerically stalled (successive differences below
    STALL_THRESHOLD over at least three radii) at a gap larger than ten
    times GAP_THRESHOLD; otherwise INCONCLUSIVE.

    Each radius must be an int >= 0, ``cap`` an int >= 1 and ``tol``
    finite and positive (read as ``top_eigenvalue`` reads it); anything
    else raises InvalidParam before a window is built.  The window search
    reads its products w * t, and the assembly its products xi * eta,
    straight from the rule, once each
    (F2, uniform on its generators, at radii 1..9: 131,214 rule
    evaluations): only the greedy Foelner search caches products.
    """
    if not _over(ring, mu, ProbMeasure, "mu").symmetric:
        raise NonSymmetricMeasure(
            "the spectral test requires a symmetric measure")
    try:
        radii = sorted({count(r, "radius", 0) for r in radii})
    except TypeError:
        raise InvalidParam(f"radii must be an iterable, got {radii!r}") from None
    if not radii:
        raise InvalidParam("need at least one radius")
    tol = _float_tol(tol)
    support = tuple(sorted(mu.support))
    window = _build_window(ring, set(support), radii[-1], cap)
    sizes = window.level_sizes  # the window of a radius is a prefix
    csr = l_measure_operator(ring, mu, window)._csr
    del window  # the solves read the CSR arrays alone
    entries = []
    for radius in radii:
        n = sizes[min(radius, len(sizes) - 1)]
        est = _accepted_top(csr.leading(n), tol)
        entries.append(RadiusEstimate(radius=radius, window_size=n,
                                      lambda_max=est.value, method=est.method,
                                      iterations=est.iterations))
    values = [e.lambda_max for e in entries]
    gap = 1.0 - values[-1]

    stalled_radii = 1
    for prev, cur in zip(reversed(values[:-1]), reversed(values[1:])):
        if abs(cur - prev) < STALL_THRESHOLD:
            stalled_radii += 1
        else:
            break

    if gap < GAP_THRESHOLD:
        verdict = Verdict.EVIDENCE_AMENABLE
    elif stalled_radii >= 3 and gap > 10.0 * GAP_THRESHOLD:
        verdict = Verdict.EVIDENCE_NONAMENABLE
    else:
        verdict = Verdict.INCONCLUSIVE
    return AmenabilityReport(measure_support=support, entries=tuple(entries),
                             gap=gap, verdict=verdict)
