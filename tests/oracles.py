"""Independent oracles used to cross-check the library.

Everything here is deliberately implemented from first principles, without
going through the fusion-rule oracles under test: character polynomials for
the SU(2) rules, a definition-level boundary scan and a direct two-scan
boundary, the FC2 distance summed label by label, a letter-by-letter
reduced-word test and a stack free reduction, triple-loop Frobenius and
associativity scans, the middle set of the associativity check placed
product by product, a breadth-first window that conjugates every product
label it meets, operator compression accumulated in `Fraction`s,
convolution applies that scan every coefficient of f for each output
label, the Dirichlet norm summed pair by pair, exact return probabilities
of the simple random walk on a free group via its radial projection, and
truncated lattice adjacency matrices.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import scipy.sparse as sparse

from fusionkit.errors import BudgetExceeded


# ---------------------------------------------------------------------------
# SU(2) products via character polynomials
# ---------------------------------------------------------------------------

def _character_poly(k: int) -> list:
    """Coefficients of the k-th character as an integer polynomial in
    x = 2 cos(theta): chi_0 = 1, chi_1 = x, chi_{k+1} = x chi_k - chi_{k-1}."""
    prev, cur = [1], [0, 1]
    if k == 0:
        return prev
    for _ in range(k - 1):
        nxt = [0] + cur  # multiply by x
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def _poly_mul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def su2_product_oracle(m: int, n: int) -> dict:
    """Expand chi_m * chi_n in the character basis by greedy reduction."""
    poly = _poly_mul(_character_poly(m), _character_poly(n))
    out = {}
    while any(poly):
        deg = max(i for i, c in enumerate(poly) if c)
        coeff = poly[deg]
        out[deg] = coeff
        for i, c in enumerate(_character_poly(deg)):
            poly[i] -= coeff * c
    return {k: c for k, c in sorted(out.items()) if c}


# ---------------------------------------------------------------------------
# boundary by definition scan
# ---------------------------------------------------------------------------

def brute_boundary(ring, S, F, universe):
    """The boundary computed by scanning every label of a finite universe
    against the displayed definition (no Frobenius shortcuts)."""
    S, F = set(S), set(F)
    inner, outer = set(), set()
    for alpha in universe:
        if alpha in F:
            if any(set(ring.product(alpha, xi)) - F for xi in S):
                inner.add(alpha)
        else:
            if any(set(ring.product(alpha, xi)) & F for xi in S):
                outer.add(alpha)
    return inner, outer


def direct_boundary(ring, S, F):
    """The boundary by two direct scans: each label of F against its right
    products by S, then each label of the Frobenius candidate set
    U supp(eta * conj(xi)) (eta in F, xi in S) outside F.  Returns
    (inner, outer, weight_inner, weight_outer, weight_F), the weights
    summed as sigma = d**2 over each set."""
    S, F = set(S), set(F)
    inner = {alpha for alpha in F
             if any(set(ring.product(alpha, xi)) - F for xi in S)}
    candidates = set()
    for eta in F:
        for xi in S:
            candidates.update(ring.product(eta, ring.conj(xi)))
    outer = {alpha for alpha in candidates - F
             if any(set(ring.product(alpha, xi)) & F for xi in S)}

    def weight(labels):
        return sum(ring.dim(label) ** 2 for label in labels)

    return inner, outer, weight(inner), weight(outer), weight(F)


def direct_fc2(ring, xi, F):
    """|| rho_xi(chi_F) - chi_F ||_{1,sigma} by definition, in `Fraction`s:
    the sum over eta of sigma(eta) |rho_xi(chi_F)(eta) - chi_F(eta)|, with
    rho_xi(chi_F)(eta) = sum_{alpha in F} d(alpha) N(eta,xi->alpha)
    / (d(eta) d(xi)).  eta runs over F and the labels whose product by xi
    meets F, found as supp(alpha * conj(xi)) for alpha in F."""
    F = set(F)
    dim = lambda label: Fraction(ring.dim(label))
    etas = set(F)
    for alpha in F:
        etas.update(ring.product(alpha, ring.conj(xi)))
    total = Fraction(0)
    for eta in etas:
        product = ring.product(eta, xi)
        rho = sum(dim(alpha) * product.get(alpha, 0) for alpha in F)
        rho /= dim(eta) * dim(xi)
        total += dim(eta) ** 2 * abs(rho - int(eta in F))
    return total


# ---------------------------------------------------------------------------
# axiom checks by triple loops
# ---------------------------------------------------------------------------

def _window_products(ring, labels):
    return {(x, y): ring.product(x, y) for x in labels for y in labels}


def direct_frobenius(ring, labels):
    """The first window triple, in loop order, violating
    N(xi,eta->alpha) = N(conj xi,alpha->eta) = N(alpha,conj eta->xi),
    as a message, or None."""
    fmt = ring.format_label
    prods = _window_products(ring, labels)

    def coefficient(x, y, label):
        p = prods[(x, y)] if (x, y) in prods else ring.product(x, y)
        return p.get(label, 0)

    for xi in labels:
        xibar = ring.conj(xi)
        for eta in labels:
            etabar = ring.conj(eta)
            for alpha in labels:
                n = prods[(xi, eta)].get(alpha, 0)
                n_left = coefficient(xibar, alpha, eta)
                if n != n_left:
                    return (f"N({fmt(xi)},{fmt(eta)}->{fmt(alpha)}) = {n} but "
                            f"N(conj {fmt(xi)},{fmt(alpha)}->{fmt(eta)}) = {n_left}")
                n_right = coefficient(alpha, etabar, xi)
                if n != n_right:
                    return (f"N({fmt(xi)},{fmt(eta)}->{fmt(alpha)}) = {n} but "
                            f"N({fmt(alpha)},conj {fmt(eta)}->{fmt(xi)}) = {n_right}")
    return None


def direct_associativity(ring, labels, middle=None):
    """The first triple (xi, eta, zeta), in loop order, of window labels
    xi and zeta and eta in ``middle`` (window labels; default every
    label), with (xi*eta)*zeta != xi*(eta*zeta) as coefficient maps, as a
    message, or None."""
    fmt = ring.format_label
    prods = _window_products(ring, labels)
    for xi in labels:
        for eta in labels if middle is None else middle:
            for zeta in labels:
                lhs: dict = {}
                for beta, n in prods[(xi, eta)].items():
                    for gamma, m in ring.product(beta, zeta).items():
                        lhs[gamma] = lhs.get(gamma, 0) + n * m
                rhs: dict = {}
                for beta, n in prods[(eta, zeta)].items():
                    for gamma, m in ring.product(xi, beta).items():
                        rhs[gamma] = rhs.get(gamma, 0) + n * m
                if lhs != rhs:
                    return (f"({fmt(xi)}*{fmt(eta)})*{fmt(zeta)} != "
                            f"{fmt(xi)}*({fmt(eta)}*{fmt(zeta)})")
    return None


def direct_middle(ring, labels, steps):
    """The middle set of the window ``labels`` for the steps ``steps``, in
    window order: the unit, each step in the window and its conjugate when
    that is in the window too, and every label that the span test leaves
    unplaced.  The test places the unit, then, pass after pass until a pass
    places nothing, the one unplaced label of a product x*s of a placed x
    and a step s whose labels all lie in the window."""
    window = set(labels)
    inside = [s for s in steps if s in window]
    steps = {t for s in inside for t in (s, ring.conj(s)) if t in window}
    placed = {ring.unit}
    grew = True
    while grew:
        grew = False
        for x in list(placed):
            for s in steps:
                product = {a for a, c in ring.product(x, s).items() if c}
                unplaced = product - placed
                if product <= window and len(unplaced) == 1:
                    placed |= unplaced
                    grew = True
    return [x for x in dict.fromkeys(labels)
            if x == ring.unit or x in steps or x not in placed]


# ---------------------------------------------------------------------------
# windows and compressed operators
# ---------------------------------------------------------------------------

def direct_window(ring, S, radius, cap):
    """(labels, level_sizes) of the breadth-first window: every product
    label met and its conjugate are tested against the labels seen so far.
    Raises BudgetExceeded, with the last completed radius, as soon as the
    label count would exceed ``cap``."""
    steps = sorted(set(S) | {ring.conj(xi) for xi in S} | {ring.unit})
    labels, sizes = [ring.unit], [1]
    seen = {ring.unit}
    frontier = [ring.unit]
    for level in range(1, radius + 1):
        new = []
        for w in frontier:
            for t in steps:
                for alpha in sorted(ring.product(w, t)):
                    for cand in (alpha, ring.conj(alpha)):
                        if cand not in seen:
                            if len(seen) + 1 > cap:
                                raise BudgetExceeded(
                                    "cap", cap=cap, achieved_radius=level - 1)
                            seen.add(cand)
                            new.append(cand)
        if not new:
            break
        labels.extend(new)
        sizes.append(len(labels))
        frontier = new
    return tuple(labels), tuple(sizes)


def direct_compress(ring, terms, window):
    """CSR matrix with entry (alpha, eta) = sum over (xi, c) in terms of
    c N(xi,eta->alpha), summed in `Fraction`s per (row, column) and
    converted to float once."""
    index = {label: i for i, label in enumerate(window.labels)}
    acc: dict = {}
    for xi, c in terms:
        c = Fraction(c)
        for j, eta in enumerate(window.labels):
            for alpha, n in ring.product(xi, eta).items():
                i = index.get(alpha)
                if i is not None:
                    acc[(i, j)] = acc.get((i, j), Fraction(0)) + n * c
    items = sorted(acc.items())
    rows = np.array([ij[0] for ij, _ in items], dtype=np.int64)
    cols = np.array([ij[1] for ij, _ in items], dtype=np.int64)
    data = np.array([float(v) for _, v in items], dtype=np.float64)
    m = len(window.labels)
    return sparse.csr_matrix((data, (rows, cols)), shape=(m, m))


def direct_apply(ring, xi, f, left):
    """The coefficient map of rho_xi(f) (``left`` false) or lambda_xi(f)
    (``left`` true): the candidate labels eta come from supp(alpha * conj
    xi) or supp(xi * alpha) for alpha in supp(f), and each sum scans every
    coefficient of f, in f's order."""
    xibar = ring.conj(xi)
    candidates = set()
    for alpha in f.coeffs:
        candidates.update(ring.product(xi, alpha) if left
                          else ring.product(alpha, xibar))
    out = {}
    for eta in candidates:
        p = ring.product(xibar, eta) if left else ring.product(eta, xi)
        s = 0.0
        for alpha, value in f.coeffs.items():
            n = p.get(alpha)
            if n:
                s += value * n * ring.dim(alpha)
        if s:
            out[eta] = s / (ring.dim(eta) * ring.dim(xi))
    return out


def direct_kernel(ring, mu, xi, eta):
    """p_mu(xi, eta) = sum over omega in supp(mu) of
    mu(omega) d(eta) N(xi,omega->eta) / (d(xi) d(omega)), in `Fraction`s."""
    total = Fraction(0)
    for omega, weight in mu.items():
        n = ring.product(xi, omega).get(eta, 0)
        if n:
            total += (Fraction(weight) * Fraction(ring.dim(eta)) * n
                      / (Fraction(ring.dim(xi)) * Fraction(ring.dim(omega))))
    return total


def direct_dirichlet(ring, mu, f, r):
    """The Dirichlet r-seminorm by the pair formula: the ordered pairs
    (xi, eta) with xi or eta in supp(f) that a product links, each with its
    own kernel value, summed in `Fraction`s; the r-th root is a float."""
    pairs = set()
    for xi in f.coeffs:
        for omega in mu.support:
            pairs.update((xi, eta) for eta in ring.product(xi, omega))
    for eta in f.coeffs:
        for omega in mu.support:
            pairs.update((xi, eta)
                         for xi in ring.product(eta, ring.conj(omega)))
    energy = Fraction(0)
    for xi, eta in pairs:
        diff = Fraction(f[xi]) - Fraction(f[eta])
        p = direct_kernel(ring, mu, xi, eta)
        if diff and p:
            energy += Fraction(ring.sigma(xi)) * p * abs(diff) ** r
    return float(energy / 2) ** (1.0 / r)


# ---------------------------------------------------------------------------
# free-group words
# ---------------------------------------------------------------------------

def is_reduced_word(w, rank):
    """Whether w is a reduced word over the first ``rank`` letters and
    their uppercase inverses, checked letter by letter."""
    if not isinstance(w, str):
        return False
    letters = "abcdefghijklmnopqrstuvwxyz"[:rank]
    alphabet = set(letters) | set(letters.upper())
    if any(ch not in alphabet for ch in w):
        return False
    return all(w[i] != w[i + 1].swapcase() for i in range(len(w) - 1))


def free_reduce(word):
    """Free reduction of a word with uppercase inverses, one letter at a
    time on a stack."""
    stack = []
    for ch in word:
        if stack and stack[-1] == ch.swapcase():
            stack.pop()
        else:
            stack.append(ch)
    return "".join(stack)


# ---------------------------------------------------------------------------
# free-group return probabilities (radial projection, exact)
# ---------------------------------------------------------------------------

def free_group_return_probabilities(rank: int, n_max: int) -> list:
    """Exact p_{2n}(e) for the uniform walk on the 2*rank generators.

    The distance from the origin is a birth-death chain: from distance
    r >= 1 the walk moves out with probability (2*rank - 1)/(2*rank) and in
    with probability 1/(2*rank); from 0 it always moves out.  Convolution
    of the radial distributions is exact in rational arithmetic.
    """
    out_p = Fraction(2 * rank - 1, 2 * rank)
    in_p = Fraction(1, 2 * rank)
    dist = {0: Fraction(1)}
    result = []
    for step in range(1, 2 * n_max + 1):
        nxt: dict = {}
        for r, p in dist.items():
            if r == 0:
                nxt[1] = nxt.get(1, Fraction(0)) + p
            else:
                nxt[r + 1] = nxt.get(r + 1, Fraction(0)) + p * out_p
                nxt[r - 1] = nxt.get(r - 1, Fraction(0)) + p * in_p
        dist = nxt
        if step % 2 == 0:
            result.append((step, dist.get(0, Fraction(0))))
    return result


# ---------------------------------------------------------------------------
# truncated lattice adjacency spectra
# ---------------------------------------------------------------------------

def lattice_ball_top_eigenvalue(d: int, radius: int) -> float:
    """Top eigenvalue of the adjacency matrix of the l1 ball of Z^d,
    scaled by 1/(2d)."""
    points = [p for p in itertools.product(range(-radius, radius + 1), repeat=d)
              if sum(abs(c) for c in p) <= radius]
    index = {p: i for i, p in enumerate(points)}
    A = np.zeros((len(points), len(points)))
    for p, i in index.items():
        for axis in range(d):
            for step in (1, -1):
                q = list(p)
                q[axis] += step
                j = index.get(tuple(q))
                if j is not None:
                    A[i, j] = 1.0
    return float(np.linalg.eigvalsh(A)[-1]) / (2 * d)
