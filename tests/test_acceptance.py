"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected value is either a closed form, an independently
computed oracle value, or exact arithmetic.
"""
import json
import math
import random
import time
from fractions import Fraction

import pytest

import fusionkit as fk
from fusionkit.cli import main as cli_main
from conftest import pool_for, random_symmetric_measure

from oracles import (brute_boundary, free_group_return_probabilities,
                     su2_product_oracle)

SQRT3_OVER_2 = math.sqrt(3.0) / 2.0


def _announce(cid: str, text: str) -> None:
    print(f"ACCEPTANCE {cid}: PASS  ({text})")


def test_c1_axiom_suite():
    start = time.perf_counter()
    su2 = fk.build_su2_ring()
    dsu2 = fk.build_deformed_su2_ring(3)
    z2 = fk.integer_lattice_ring(2)
    f2 = fk.free_group_ring(2)
    z6 = fk.cyclic_ring(6)
    su2xz = fk.tensor_product(fk.build_su2_ring(), fk.integer_lattice_ring(1))

    cases = [
        (su2, list(range(9))),
        (dsu2, list(range(9))),
        (z2, fk.build_window(z2, z2.generators, 4).labels),
        (f2, fk.build_window(f2, f2.generators, 3).labels),
        (z6, list(range(6))),
        (su2xz, fk.build_window(su2xz, su2xz.generators, 4).labels),
    ]
    for ring, window in cases:
        report = fk.verify_axioms(ring, window)
        assert report.passed, report.summary()

    for m in range(13):
        for n in range(13):
            assert fk.product_basis(su2, m, n) == su2_product_oracle(m, n)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"axiom suite took {elapsed:.2f}s"
    _announce("C1", f"six rings verified + character oracle, {elapsed:.2f}s")


def test_c2_kesten_spectral_values():
    start = time.perf_counter()
    su2 = fk.build_su2_ring()
    dsu2 = fk.build_deformed_su2_ring(3)
    mu2 = fk.ProbMeasure.delta(su2, 1)
    mu3 = fk.ProbMeasure.delta(dsu2, 1)

    for m in (50, 100, 512):
        window = fk.build_window(su2, {1}, m - 1)
        assert len(window) == m
        value = fk.top_eigenvalue(fk.l_measure_operator(su2, mu2, window)).value
        assert abs(value - math.cos(math.pi / (m + 1))) < 1e-9
        window3 = fk.build_window(dsu2, {1}, m - 1)
        value3 = fk.top_eigenvalue(fk.l_measure_operator(dsu2, mu3, window3)).value
        assert abs(value3 - (2 / 3) * math.cos(math.pi / (m + 1))) < 1e-9

    window100 = fk.build_window(su2, {1}, 99)
    v100 = fk.top_eigenvalue(fk.l_measure_operator(su2, mu2, window100)).value
    assert v100 == pytest.approx(0.9995162823, abs=1e-9)

    # windows of 1000 and 2000 labels; the solver's cost is bounded by its
    # matvec count, not by wall time
    # (736 and 1,920 matvecs with the thick-restart Lanczos)
    large = fk.amenability_estimate(su2, mu2, [999, 1999])
    for m, max_matvecs, entry in zip((1000, 2000), (4_000, 14_000), large.entries):
        assert entry.window_size == m and entry.method == "lanczos"
        assert abs(entry.lambda_max - math.cos(math.pi / (m + 1))) < 1e-9
        assert 0 < entry.iterations <= max_matvecs

    amen = fk.amenability_estimate(su2, mu2, [50, 100, 150, 200])
    assert amen.verdict is fk.Verdict.EVIDENCE_AMENABLE

    non = fk.amenability_estimate(dsu2, mu3, [100, 300, 505, 506, 507, 508])
    assert non.verdict is fk.Verdict.EVIDENCE_NONAMENABLE
    assert non.lambda_max == pytest.approx(2 / 3, abs=1e-3)

    elapsed = time.perf_counter() - start
    _announce("C2", f"path closed forms to 1e-9 + verdicts, {elapsed:.2f}s")


def test_c3_free_group_gap():
    start = time.perf_counter()
    f2 = fk.free_group_ring(2)
    mu = fk.ProbMeasure.uniform(f2, f2.generators)

    report = fk.amenability_estimate(f2, mu, [2, 4, 6, 8], cap=20_000)
    values = [e.lambda_max for e in report.entries]
    assert report.entries[-1].window_size > 8000
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    assert 0.80 < values[-1] < 0.8661

    # independent Kesten oracle: exact 2n-step return probabilities
    probs = free_group_return_probabilities(2, 8)
    roots = [float(p) ** (1.0 / n) for n, p in probs]
    assert all(b >= a for a, b in zip(roots, roots[1:]))
    assert all(r < SQRT3_OVER_2 for r in roots)
    assert roots[-1] == pytest.approx(0.7155268681, abs=1e-9)

    # the radial oracle agrees with direct convolution in the ring (n <= 3)
    mu_elem = mu.as_element()
    conv = mu_elem
    returns = {}
    for step in range(2, 7):
        conv = fk.convolve(conv, mu_elem)
        if step % 2 == 0:
            returns[step] = conv[""]
    for n, p in probs[:3]:
        assert returns[n] == pytest.approx(float(p), abs=1e-15)

    # truncations stay below the Kesten value the oracle converges to
    assert values[-1] < SQRT3_OVER_2

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"free-group gap took {elapsed:.2f}s"
    _announce("C3", f"lambda_max {values[-1]:.6f} in (0.80, 0.8661), "
                    f"oracle roots below sqrt(3)/2, {elapsed:.1f}s")


def test_c4_fc3_closed_forms():
    su2 = fk.build_su2_ring()
    F = set(range(101))
    b = fk.boundary(su2, {1}, F)
    assert b.inner | b.outer == {100, 101}
    rep = fk.fc3_check(su2, {1}, F, 0.06)
    assert rep.lhs == 20605
    assert rep.weight_F == 348551
    assert rep.extra["ratio"] == pytest.approx(0.059116169513213274, abs=1e-12)

    universe = fk.build_window(su2, {1}, 110).labels
    inner, outer = brute_boundary(su2, {1}, F, universe)
    assert inner == b.inner and outer == b.outer

    z1 = fk.integer_lattice_ring(1)
    for n in (1, 5, 20, 63):
        interval = set(range(-n, n + 1))
        rep = fk.fc3_check(z1, {1, -1}, interval, 1.0)
        assert Fraction(rep.extra["weight_boundary"]) / Fraction(rep.weight_F) \
            == Fraction(4, 2 * n + 1)
    _announce("C4", "su2 interval boundary/weights exact, Z ratio 4/(2n+1)")


def test_c5_fc2_worked_value():
    su2 = fk.build_su2_ring()
    F = {0, 1, 2, 3}
    rep = fk.fc2_check(su2, {1}, F, 0.5)
    assert rep.extra["per_label"]["1"] == 20.0
    assert rep.weight_F == 30
    assert not rep.satisfied

    chi = fk.indicator(su2, F)
    diff = fk.rho1_operator_apply(su2, 1, chi) - chi
    direct = fk.lp_sigma_norm(diff, 1)
    assert abs(direct - 20.0) < 1e-10
    assert abs(rep.extra["per_label"]["1"] - direct) < 1e-10
    _announce("C5", "expansion route and rho route both give 20 over 30")


def test_c6_identity_battery():
    rng = random.Random(20260810)
    rings = [fk.build_su2_ring(), fk.build_deformed_su2_ring(3),
             fk.integer_lattice_ring(1), fk.integer_lattice_ring(2),
             fk.free_group_ring(2), fk.cyclic_ring(6)]
    pools = {ring.description: pool_for(ring, 4) for ring in rings}
    small_pools = {ring.description: pool_for(ring, 2) for ring in rings}
    per_family = 24  # 24 * 6 rings * 7 families = 1008 instances
    instances = 0

    def pick(ring, small=False):
        return (small_pools if small else pools)[ring.description]

    # 1. reversibility of the kernel, exact
    for ring in rings:
        pool = pick(ring, small=True)
        for _ in range(per_family):
            mu = random_symmetric_measure(ring, rng, pool)
            xi, eta = rng.choice(pool), rng.choice(pool)
            lhs = ring.sigma(xi) * fk.transition_kernel_exact(ring, mu, xi, eta)
            rhs = ring.sigma(eta) * fk.transition_kernel_exact(ring, mu, eta, xi)
            assert lhs == rhs
            instances += 1

    # 2. energy identity for the Dirichlet 2-norm
    for ring in rings:
        pool = pick(ring, small=True)
        for _ in range(per_family):
            mu = random_symmetric_measure(ring, rng, pool)
            labels = rng.sample(pool, min(3, len(pool)))
            f = fk.Element(ring, {l: rng.uniform(-1, 1) for l in labels})
            lhs = fk.dirichlet_norm(ring, mu, f, 2) ** 2
            rho_f = fk.rho_measure_apply(ring, mu, f)
            rhs = fk.inner_sigma(f, f) - fk.inner_sigma(rho_f, f)
            assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-10)
            instances += 1

    # 3. the half-sum identity for indicator Dirichlet energies
    for ring in rings:
        pool = pick(ring, small=True)
        for _ in range(per_family):
            mu = random_symmetric_measure(ring, rng, pool)
            F = set(rng.sample(pool, rng.randint(1, min(5, len(pool)))))
            chi = fk.indicator(ring, F)
            lhs = fk.dirichlet_norm(ring, mu, chi, 1)
            rhs = 0.0
            for omega, weight in mu.sorted_items():
                diff = fk.rho1_operator_apply(ring, omega, chi) - chi
                rhs += weight * fk.lp_sigma_norm(diff, 1)
            rhs *= 0.5
            assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-10)
            instances += 1

    # 4. supp(chi_F * mu) = F union boundary_S(F), S = supp(mu), e in S
    for ring in rings:
        pool = pick(ring)
        for _ in range(per_family):
            mu = random_symmetric_measure(ring, rng, pool, include_unit=True)
            F = set(rng.sample(pool, rng.randint(1, min(6, len(pool)))))
            conv = fk.convolve(fk.indicator(ring, F), mu.as_element())
            b = fk.boundary(ring, set(mu.support), F)
            assert set(conv.support) == F | b.labels
            instances += 1

    # 5. level-set decomposition of the Dirichlet 1-norm and of the 1-norm
    for ring in rings:
        pool = pick(ring, small=True)
        for _ in range(per_family):
            mu = random_symmetric_measure(ring, rng, pool)
            labels = rng.sample(pool, min(4, len(pool)))
            f = fk.Element(ring, {l: rng.randint(0, 3) for l in labels})
            if not f.coeffs:
                f = fk.Element(ring, {labels[0]: 1})
            peak = max(f.coeffs.values())
            level_sets = [set(l for l, v in f.coeffs.items() if v >= k)
                          for k in range(1, peak + 1)]
            d_total = sum(fk.dirichlet_norm(ring, mu, fk.indicator(ring, Fk), 1)
                          for Fk in level_sets)
            n_total = sum(fk.lp_sigma_norm(fk.indicator(ring, Fk), 1)
                          for Fk in level_sets)
            assert math.isclose(fk.dirichlet_norm(ring, mu, f, 1), d_total,
                                rel_tol=1e-10, abs_tol=1e-10)
            assert math.isclose(fk.lp_sigma_norm(f, 1), n_total,
                                rel_tol=1e-10, abs_tol=1e-10)
            instances += 1

    # 6. transpose duality of compressed l-operators, bitwise
    for ring in rings:
        pool = pick(ring)
        window = fk.build_window(
            ring, ring.generators if ring.generators else {ring.unit}, 3)
        for _ in range(per_family):
            xi = rng.choice(pool)
            m1 = fk.l_operator(ring, xi, window).matrix
            m2 = fk.l_operator(ring, ring.conj(xi), window).matrix
            assert (m1.T != m2).nnz == 0
            instances += 1

    # 7. dimension bound on probed triples
    for ring in rings:
        pool = pick(ring)
        for _ in range(per_family):
            xi, eta = rng.choice(pool), rng.choice(pool)
            for alpha, n in fk.product_basis(ring, xi, eta).items():
                if n > 0:
                    assert ring.dim(alpha) * ring.dim(eta) >= ring.dim(xi)
            instances += 1

    assert instances >= 1000
    _announce("C6", f"{instances} randomized identity instances across "
                    f"{len(rings)} rings")


def test_c7_foelner_search_end_to_end(tmp_path, capsys):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    su2_path = write("su2.json", {"type": "builtin", "name": "su2", "params": {}})
    z_path = write("z.json", {"type": "builtin", "name": "zd", "params": {"d": 1}})
    d3_path = write("d3.json",
                    {"type": "builtin", "name": "deformed_su2", "params": {"n": 3}})

    code = cli_main(["foelner", su2_path, "--support", "1", "--eps", "0.1",
                     "--budget", "200"])
    out = capsys.readouterr().out
    assert code == 0
    assert float(out.split("ratio ")[1].split()[0]) < 0.1

    code = cli_main(["foelner", z_path, "--support", "1,-1", "--eps", "0.1",
                     "--budget", "200"])
    out = capsys.readouterr().out
    assert code == 0
    assert float(out.split("ratio ")[1].split()[0]) < 0.1

    code = cli_main(["foelner", d3_path, "--support", "1", "--eps", "0.5",
                     "--budget", "500"])
    out = capsys.readouterr().out
    assert code == 3
    assert float(out.split("ratio ")[1].split()[0]) > 1.0
    _announce("C7", "CLI search: exit 0 for su2 and Z, exit 3 for deformed")


def test_c8_monotonicity_and_bound():
    rng = random.Random(88)
    rings = [fk.build_su2_ring(), fk.build_deformed_su2_ring(3),
             fk.integer_lattice_ring(1), fk.integer_lattice_ring(2),
             fk.free_group_ring(2), fk.cyclic_ring(6)]
    tested = 0
    for ring in rings:
        pool = pool_for(ring, 2)
        measures = [random_symmetric_measure(ring, rng, pool) for _ in range(3)]
        if ring.generators:
            measures.append(fk.ProbMeasure.uniform(ring, ring.generators))
        for mu in measures:
            values = []
            for radius in (1, 2, 3, 4):
                window = fk.build_window(ring, sorted(mu.support), radius)
                op = fk.l_measure_operator(ring, mu, window)
                values.append(fk.top_eigenvalue(op).value)
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:])), \
                (ring.description, values)
            assert all(v <= 1.0 + 1e-9 for v in values), (ring.description, values)
            tested += 1
    assert tested >= 20
    _announce("C8", f"{tested} measures: nondecreasing truncations, all <= 1+1e-9")
