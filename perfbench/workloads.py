"""The benchmark workloads: seeded inputs, public-API ops and their oracles.

There are two workloads, ``spectral`` and ``exact``.  Each has two parts,
which are the units of input and of process: ``spectral-su2``,
``spectral-free2``, ``foelner-search`` and ``cli-exact``.

``make_inputs(part, seed)`` runs in the parent process and is the only
place the seed is used.  It returns plain JSON: ring documents, measure
specs, radii, label sets and CLI argument lists.  A fresh worker process
loads that JSON, builds rings and measures through the public API (set-up)
and runs the ops (solve).  Each op result is checked against a closed form
or a value pinned at the seed commit; ``check`` returns the mismatch as a
message, or None.

The seed only moves inputs along symmetries that keep the work size and
the oracle: SU(2) radius offsets of a few steps, the deformed-SU(2) search
budget by the same few steps, Z^2 inputs through a lattice automorphism,
and the order in which the F_2 radii are listed.
"""
from __future__ import annotations

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

#: benchmark workload -> its parts; each part of a pass runs in its own
#: fresh process, so every part starts with a cold product cache
WORKLOADS = {
    "spectral": ("spectral-su2", "spectral-free2"),
    "exact": ("foelner-search", "cli-exact"),
}
PARTS = tuple(part for parts in WORKLOADS.values() for part in parts)

RING_DOCS = {
    "su2": {"type": "builtin", "name": "su2", "params": {}},
    "free2": {"type": "builtin", "name": "free", "params": {"rank": 2}},
    "z2": {"type": "builtin", "name": "zd", "params": {"d": 2}},
    "dsu2": {"type": "builtin", "name": "deformed_su2", "params": {"n": 3}},
}

#: GL(2, Z) maps applied to Z^2 inputs.  An automorphism keeps every
#: boundary weight, hence the closed forms and the amount of work; greedy's
#: pinned ratio was checked under each of these maps.
Z2_MAPS = (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 1)),
           ((-1, 0), (0, 1)), ((2, 1), (1, 1)), ((1, 0), (1, 1)))

#: top eigenvalues of the uniform-generator measure on F_2, pinned at the
#: seed commit; the windows have 2*3**r - 1 labels
FREE2_LAMBDA = {
    1: 0.5,
    2: 0.6614378277661477,
    3: 0.7333804979112131,
    4: 0.7722281586887504,
    5: 0.7958353556126487,
    6: 0.8113619196946891,
    7: 0.8221679378316051,
    8: 0.830014897578611,
    9: 0.8359050036212055,
}

LAMBDA_TOL = 1e-9
#: CLI numbers print with 12 significant digits
CLI_REL_TOL = 1e-10


def make_inputs(part: str, seed: int) -> dict:
    """Concrete, JSON-serializable inputs of one part for one seed."""
    if part not in PARTS:
        raise ValueError(f"unknown part {part!r}")
    rng = random.Random(seed)
    shift = rng.randrange(4)
    zmap = [list(row) for row in Z2_MAPS[rng.randrange(len(Z2_MAPS))]]
    z2_gens = [_apply(zmap, g) for g in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    if part == "spectral-su2":
        ops = [_estimate("su2", ["delta", 1], [100 + shift, 300 + shift, 600 + shift],
                         "su2_path"),
               _estimate("su2", ["delta", 1], [1000 + shift], "su2_path")]
    elif part == "spectral-free2":
        radii = list(FREE2_LAMBDA)
        rng.shuffle(radii)
        ops = [_estimate("free2", ["uniform-gens"], radii, "free2_pinned")]
    elif part == "foelner-search":
        ops = [
            {"name": "balls-z2", "kind": "search", "ring": "z2", "S": z2_gens,
             "eps": 0.1, "strategy": "balls", "budget": 4000,
             "oracle": "z2_balls", "map": zmap},
            {"name": "greedy-z2", "kind": "search", "ring": "z2", "S": z2_gens,
             "eps": 0.05, "strategy": "greedy", "budget": 80,
             "oracle": "z2_greedy"},
            {"name": "balls-dsu2", "kind": "search", "ring": "dsu2", "S": [1],
             "eps": 0.5, "strategy": "balls", "budget": 600 + shift,
             "oracle": "dsu2_balls", "n": 3},
        ]
    else:
        ops = _cli_ops(shift, z2_gens)
    rings = sorted({op["ring"] for op in ops if "ring" in op}
                   | {r for op in ops for r in op.get("ring_files", ())})
    return {"part": part, "seed": seed,
            "rings": {name: RING_DOCS[name] for name in rings}, "ops": ops}


def _apply(m, v):
    return [m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1]]


def _estimate(ring, measure, radii, oracle) -> dict:
    name = f"estimate-{ring}-" + ",".join(str(r) for r in sorted(radii))
    return {"name": name, "kind": "estimate", "ring": ring, "measure": measure,
            "radii": radii, "oracle": oracle}


def _cli_ops(shift: int, z2_gens: list) -> list:
    # ring files are written by the parent as rings/<name>.json in the work
    # directory; "{rings}" is replaced by that directory in the worker
    su2, free2, z2, dsu2 = ("{rings}/su2.json", "{rings}/free2.json",
                            "{rings}/z2.json", "{rings}/dsu2.json")
    # passed as --support=... because a label may start with "-"
    support = "--support=" + ",".join(f"{x};{y}" for x, y in z2_gens)
    lo, hi = shift, 400 + shift
    a, b = shift, 3 + shift
    radii = [100 + shift, 300 + shift] + [505 + shift + k for k in range(4)]

    def cli(name, argv, oracle, rings, **params):
        return {"name": name, "kind": "cli", "argv": argv, "oracle": oracle,
                "ring_files": rings, **params}

    return [
        cli("axioms-su2", ["axioms", su2, "--radius", "30"], "axioms", ["su2"],
            window=31),
        cli("axioms-free2", ["axioms", free2, "--radius", "3"], "axioms", ["free2"],
            window=53),
        cli("check-fc2-z2", ["check", z2, "--condition", "fc2", "--set", "ball:30",
                             support, "--eps", "0.1"],
            "fc2_ball", ["z2"], r=30, eps=0.1, support=z2_gens),
        cli("check-fc3-z2", ["check", z2, "--condition", "fc3", "--set", "ball:30",
                             support, "--eps", "0.1"],
            "fc3_ball", ["z2"], r=30, eps=0.1),
        cli("check-fc1-su2", ["check", su2, "--condition", "fc1", "--set",
                              f"interval:{lo}..{hi}", "--measure", "decomp:0=1,1=1",
                              "--eps", "0.05"],
            "fc1_interval", ["su2"], lo=lo, hi=hi, eps=0.05),
        cli("dirichlet-su2", ["dirichlet", su2, "--measure", "delta:1", "--fn",
                              f"interval:{a}..{b}", "--r", "2"],
            "dirichlet_interval", ["su2"], lo=a, hi=b),
        cli("spectrum-dsu2", ["spectrum", dsu2, "--measure", "delta:1", "--radii",
                              ",".join(str(r) for r in radii)],
            "spectrum_dsu2", ["dsu2"], radii=radii),
    ]


# ---------------------------------------------------------------------------
# worker side: set-up and op execution
# ---------------------------------------------------------------------------

def setup(fk, inputs: dict, ring_paths: dict) -> dict:
    """Load the rings through ``load_ring`` and build the measures."""
    rings = {name: fk.load_ring(path) for name, path in ring_paths.items()}
    measures = {}
    for op in inputs["ops"]:
        if op["kind"] != "estimate":
            continue
        ring = rings[op["ring"]]
        spec = op["measure"]
        if spec[0] == "delta":
            measures[op["name"]] = fk.ProbMeasure.delta(ring, spec[1])
        else:
            measures[op["name"]] = fk.ProbMeasure.uniform(ring, ring.generators)
    return {"rings": rings, "measures": measures}


def make_call(fk, ctx: dict, op: dict, rings_dir: str):
    """A zero-argument callable performing the op's public call(s)."""
    if op["kind"] == "estimate":
        ring = ctx["rings"][op["ring"]]
        mu = ctx["measures"][op["name"]]
        return lambda: fk.amenability_estimate(ring, mu, op["radii"])
    if op["kind"] == "search":
        ring = ctx["rings"][op["ring"]]
        S = [tuple(s) if isinstance(s, list) else s for s in op["S"]]
        return lambda: fk.foelner_search(ring, S, op["eps"], strategy=op["strategy"],
                                         budget=op["budget"])
    argv = [a.replace("{rings}", rings_dir) for a in op["argv"]]

    def run_cli():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = fk.cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return run_cli


def summarize(op: dict, result) -> list:
    """A JSON summary of an op result, compared across traced and untraced runs."""
    if op["kind"] == "estimate":
        return [[e.radius, e.window_size, repr(e.lambda_max), e.method, e.iterations]
                for e in result.entries] + [result.verdict.value]
    if op["kind"] == "search":
        rep = result.report
        return [result.found, rep.set_size, str(rep.extra["weight_boundary"]),
                str(rep.weight_F), len(result.curve), repr(rep.extra["ratio"])]
    return list(result)


def summarize_error(exc: BaseException) -> list:
    out = [type(exc).__name__, str(exc)]
    for attr in ("iterations", "estimate", "residual"):
        if hasattr(exc, attr):
            out.append(repr(getattr(exc, attr)))
    return out


def check(op: dict, result) -> str | None:
    """None when the result matches the op's oracle, else the mismatch."""
    return ORACLES[op["oracle"]](op, result)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _check_lambdas(result, radii, expect_size, expect_lambda) -> str | None:
    got = [e.radius for e in result.entries]
    if got != sorted(radii):
        return f"radii {got} != {sorted(radii)}"
    for e in result.entries:
        if e.window_size != expect_size(e.radius):
            return f"window at radius {e.radius} has {e.window_size} labels"
        want = expect_lambda(e.radius)
        if not abs(e.lambda_max - want) <= LAMBDA_TOL:
            return f"lambda_max at radius {e.radius} is {e.lambda_max!r}, expected {want!r}"
    return None


def _oracle_su2_path(op, result):
    # the SU(2) window of radius m is the path on m + 1 vertices
    return _check_lambdas(result, op["radii"], lambda m: m + 1,
                          lambda m: math.cos(math.pi / (m + 2)))


def _oracle_free2_pinned(op, result):
    bad = _check_lambdas(result, op["radii"], lambda r: 2 * 3 ** r - 1,
                         FREE2_LAMBDA.__getitem__)
    if bad:
        return bad
    values = [e.lambda_max for e in result.entries]
    if any(b < a for a, b in zip(values, values[1:])):
        return f"lambda_max sequence is not nondecreasing: {values}"
    if not values[-1] < math.sqrt(3) / 2:
        return f"lambda_max {values[-1]!r} is not below sqrt(3)/2"
    return None


def _check_curve(result, expect) -> str | None:
    # expect(step) -> (weight_boundary, weight_F) as exact integers
    for p in result.curve:
        want = expect(p.step)
        if (p.weight_boundary, p.weight_F) != want:
            return (f"curve step {p.step}: weights {p.weight_boundary}/{p.weight_F}, "
                    f"expected {want[0]}/{want[1]}")
    return None


def _l1_ball_weights(r):
    # the l1 ball of radius r in Z^2 has 2r^2 + 2r + 1 points and a boundary
    # of 4r inner plus 4(r + 1) outer points
    return 8 * r + 4, 2 * r * r + 2 * r + 1


def _oracle_z2_balls(op, result):
    r = 40
    if not result.found or len(result.curve) != r:
        return f"found={result.found} after {len(result.curve)} steps, expected found at r={r}"
    bad = _check_curve(result, _l1_ball_weights)
    if bad:
        return bad
    m = op["map"]
    ball = {tuple(_apply(m, (x, y))) for x in range(-r, r + 1)
            for y in range(-r + abs(x), r - abs(x) + 1)}
    if set(result.labels) != ball:
        return "found set is not the image of the l1 ball of radius 40"
    return None


def _oracle_z2_greedy(op, result):
    # pinned at the seed commit: greedy stalls at ratio 164/80 = 2.05
    rep = result.report
    got = (result.found, rep.set_size, rep.extra["weight_boundary"], rep.weight_F,
           len(result.curve))
    want = (False, 80, 164, 80, 80)
    return None if got == want else f"greedy (found, |F|, w(dF), w(F), steps) = {got}, expected {want}"


def _deformed_dims(n, count):
    dims = [1, n]
    while len(dims) < count:
        dims.append(n * dims[-1] - dims[-2])
    return dims


def _oracle_dsu2_balls(op, result):
    # balls are intervals [0, r]; their boundary is {r, r + 1}
    budget = op["budget"]
    d = _deformed_dims(op["n"], budget + 2)
    prefix = [0]
    for k in range(budget + 1):
        prefix.append(prefix[-1] + d[k] ** 2)

    def expect(r):
        return d[r] ** 2 + d[r + 1] ** 2, prefix[r + 1]

    if result.found or len(result.curve) != budget - 1:
        return (f"found={result.found} after {len(result.curve)} steps, "
                f"expected not found after {budget - 1}")
    bad = _check_curve(result, expect)
    if bad:
        return bad
    best = min(range(1, budget), key=lambda r: Fraction(*expect(r)))
    rep = result.report
    if (rep.extra["weight_boundary"], rep.weight_F) != expect(best):
        return f"best set is not the interval [0, {best}]"
    return None


def _cli_lines(result, exit_code):
    code, out, err = result
    if code != exit_code:
        return None, f"exit code {code}, expected {exit_code}; stderr: {err.strip()}"
    return out.splitlines(), None


def _close(text: str, want: float) -> bool:
    return abs(float(text) - want) <= CLI_REL_TOL * max(1.0, abs(want))


def _oracle_axioms(op, result):
    lines, bad = _cli_lines(result, 0)
    if bad:
        return bad
    if f"(window of {op['window']} labels)" not in lines[0]:
        return f"unexpected header {lines[0]!r}"
    passed = [line for line in lines[1:] if line.endswith(": PASS")]
    return None if len(passed) == 7 and len(lines) == 8 else f"axiom lines {lines[1:]}"


def _oracle_fc2_ball(op, result):
    # || rho_xi(chi_B) - chi_B || = 2(2r + 1) for each generator xi
    lines, bad = _cli_lines(result, 0)
    if bad:
        return bad
    r = op["r"]
    size = 2 * r * r + 2 * r + 1
    lhs = lines[0].split()
    if lhs[:3] != ["FC2:", "lhs", str(2 * (2 * r + 1))] or not _close(lhs[4], op["eps"] * size):
        return f"unexpected FC2 line {lines[0]!r}"
    labels = sorted(f"{x};{y}" for x, y in op["support"])
    want = [f"  rho-distance at {label}: {2 * (2 * r + 1)}" for label in labels]
    return None if sorted(lines[1:]) == sorted(want) else f"per-label lines {lines[1:]}"


def _oracle_fc3_ball(op, result):
    lines, bad = _cli_lines(result, 1)
    if bad:
        return bad
    r = op["r"]
    wb, wf = _l1_ball_weights(r)
    f = lines[0].split()
    if f[:3] != ["FC3:", "lhs", str(wb)] or not _close(f[4], op["eps"] * wf) \
            or f[-1] != "False":
        return f"unexpected FC3 line {lines[0]!r}"
    return None


def _su2_weight(lo, hi):
    return sum((k + 1) ** 2 for k in range(lo, hi + 1))


def _oracle_fc1_interval(op, result):
    # supp(chi_[lo,hi] * mu) = [lo - 1, hi + 1] for mu on {0, 1}
    lines, bad = _cli_lines(result, 0)
    if bad:
        return bad
    lo, hi = op["lo"], op["hi"]
    s_lo = max(0, lo - 1)
    f = lines[0].split()
    if f[:3] != ["FC1:", "lhs", str(_su2_weight(s_lo, hi + 1))] \
            or not _close(f[4], (1 + op["eps"]) * _su2_weight(lo, hi)) or f[-1] != "True":
        return f"unexpected FC1 line {lines[0]!r}"
    g = lines[1].split()
    if g[2] != str(hi + 2 - s_lo) or g[-1] != "True":
        return f"unexpected FC1 support line {lines[1]!r}"
    return None


def _oracle_dirichlet_interval(op, result):
    # delta_1 walk on SU(2): the cut edge (k, k + 1) carries (k + 1)(k + 2),
    # so ||chi_[a,b]||_D^2 = ((b + 1)(b + 2) + a(a + 1)) / 2
    lines, bad = _cli_lines(result, 0)
    if bad:
        return bad
    a, b = op["lo"], op["hi"]
    energy = ((b + 1) * (b + 2) + a * (a + 1)) / 2
    norm = math.sqrt(_su2_weight(a, b))
    values = dict(line.split() for line in lines)
    if not (_close(values["dirichlet_norm"], math.sqrt(energy))
            and _close(values["lp_sigma_norm"], norm)
            and _close(values["ratio"], math.sqrt(energy) / norm)
            and abs(float(values["energy_identity_residual"])) <= 1e-12):
        return f"unexpected dirichlet output {values}"
    return None


def _oracle_spectrum_dsu2(op, result):
    # delta_1 on deformed SU(2) with n = 3: (2/3) cos(pi / (m + 2))
    lines, bad = _cli_lines(result, 1)
    if bad:
        return bad
    radii = op["radii"]
    for line, m in zip(lines, radii):
        f = line.split()
        if f[:4] != ["radius", str(m), "window", str(m + 1)] \
                or not abs(float(f[5]) - 2 / 3 * math.cos(math.pi / (m + 2))) <= LAMBDA_TOL:
            return f"unexpected spectrum line {line!r}"
    if len(lines) != len(radii) + 2 or lines[-1].split()[1] != "EVIDENCE_NONAMENABLE":
        return f"unexpected spectrum tail {lines[len(radii):]}"
    return None


ORACLES = {
    "su2_path": _oracle_su2_path,
    "free2_pinned": _oracle_free2_pinned,
    "z2_balls": _oracle_z2_balls,
    "z2_greedy": _oracle_z2_greedy,
    "dsu2_balls": _oracle_dsu2_balls,
    "axioms": _oracle_axioms,
    "fc2_ball": _oracle_fc2_ball,
    "fc3_ball": _oracle_fc3_ball,
    "fc1_interval": _oracle_fc1_interval,
    "dirichlet_interval": _oracle_dirichlet_interval,
    "spectrum_dsu2": _oracle_spectrum_dsu2,
}
