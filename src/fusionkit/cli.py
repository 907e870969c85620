"""Command-line front end.

Usage:  fusionkit <subcommand> RING_FILE [options]

Exit codes: 0 = affirmative result, 1 = negative result,
2 = input/usage error, 3 = budget exhausted / inconclusive.
Numbers print with 12 significant digits; CSV cells use full float
round-trip formatting.
"""
from __future__ import annotations

import argparse
import csv
import math
import sys

from . import catalog, foelner, ringio, spectral
from .core import FusionRing, ProbMeasure, indicator, verify_axioms
from .errors import (BudgetExceeded, FusionError, InvalidLabel, InvalidParam,
                     InvalidTable, NoConvergence)
from .spectral import Verdict

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _parse_label(ring: FusionRing, text: str):
    try:
        label = ring.parse_label(text)
    except ValueError:
        raise InvalidLabel(
            f"cannot parse {text!r} as a label of {ring.description}") from None
    ring.check_label(label)
    return label


def _parse_labels(ring: FusionRing, text: str) -> list:
    labels = [_parse_label(ring, part.strip())
              for part in text.split(",") if part.strip()]
    if not labels:
        raise InvalidParam(f"no labels in {text!r}")
    return labels


def _default_support(ring: FusionRing) -> list:
    return list(ring.generators) if ring.generators else [ring.unit]


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidParam(f"{what} must be an integer, got {text!r}") from None


def _parse_radii(text: str) -> list:
    """--radii: comma-separated integers; blank entries are skipped."""
    return [_parse_int(r, "radius") for r in text.split(",") if r.strip()]


def _parse_set_spec(ring: FusionRing, spec: str, support=None) -> list:
    """F-spec forms: interval:A..B, set:a,b,c, ball:r."""
    if spec.startswith("interval:"):
        body = spec[len("interval:"):]
        lo_text, sep, hi_text = body.partition("..")
        if not sep:
            raise InvalidParam(f"interval spec {spec!r} needs 'interval:A..B'")
        lo = _parse_int(lo_text, "interval bound")
        hi = _parse_int(hi_text, "interval bound")
        if hi < lo:
            raise InvalidParam(f"empty interval in {spec!r}")
        if hi - lo + 1 > spectral.DEFAULT_WINDOW_CAP:
            raise InvalidParam(f"interval {spec!r} exceeds the window cap")
        return list(range(lo, hi + 1))  # checked by the call they feed
    if spec.startswith("set:"):
        return _parse_labels(ring, spec[len("set:"):])
    if spec.startswith("ball:"):
        radius = _parse_int(spec[len("ball:"):], "ball radius")
        gens = support if support else _default_support(ring)
        window = spectral.build_window(ring, gens, radius)
        return list(window.labels)
    raise InvalidParam(f"unknown set spec {spec!r} (use interval:/set:/ball:)")


def _parse_measure_spec(ring: FusionRing, spec: str) -> ProbMeasure:
    """Measure forms: uniform-gens, delta:LABEL, decomp:LABEL=k,..."""
    if spec == "uniform-gens":
        gens = ring.generators
        if not gens:
            raise InvalidParam("ring declares no generators for uniform-gens")
        return ProbMeasure.uniform(ring, gens)
    if spec.startswith("delta:"):
        label = _parse_label(ring, spec[len("delta:"):].strip())
        return ProbMeasure.delta(ring, label)
    if spec.startswith("decomp:"):
        decomp = {}
        for part in spec[len("decomp:"):].split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, mult = part.partition("=")
            if not sep:
                raise InvalidParam(f"decomp entry {part!r} needs LABEL=k")
            label = _parse_label(ring, name.strip())
            decomp[label] = decomp.get(label, 0) + _parse_int(mult, "multiplicity")
        return catalog.measure_from_decomposition(ring, decomp)
    raise InvalidParam(
        f"unknown measure spec {spec!r} (use uniform-gens/delta:/decomp:)")


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(c) if isinstance(c, float) else c for c in row])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_axioms(args) -> int:
    try:
        ring = ringio.load_ring(args.ring)
    except InvalidTable as exc:
        if exc.report is not None:
            print(exc.report.summary())
            return EXIT_NEGATIVE
        raise
    gens = _default_support(ring)
    window = spectral.build_window(ring, gens, args.radius)
    report = verify_axioms(ring, window)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def cmd_foelner(args) -> int:
    ring = ringio.load_ring(args.ring)
    support = _parse_labels(ring, args.support) if args.support \
        else _default_support(ring)
    result = foelner.foelner_search(ring, support, args.eps,
                                    strategy=args.strategy, budget=args.budget)
    if args.csv:
        _write_csv(args.csv,
                   ["step", "set_size", "weight_F", "weight_boundary", "ratio"],
                   [(p.step, p.set_size, p.weight_F, p.weight_boundary, p.ratio)
                    for p in result.curve])
    rep = result.report
    ratio = rep.extra["ratio"]
    status = "found" if result.found else "budget exhausted"
    print(f"search {status} after {len(result.curve)} steps")
    print(f"set size {rep.set_size}  weight {_fmt(foelner.as_float(rep.weight_F))}")
    print(f"boundary weight {_fmt(foelner.as_float(rep.extra['weight_boundary']))}")
    print(f"ratio {_fmt(ratio)}  epsilon {_fmt(args.eps)}  "
          f"satisfied {rep.satisfied}")
    return EXIT_OK if result.found else EXIT_BUDGET


def cmd_spectrum(args) -> int:
    ring = ringio.load_ring(args.ring)
    mu = _parse_measure_spec(ring, args.measure)
    radii = _parse_radii(args.radii)
    report = spectral.amenability_estimate(ring, mu, radii, cap=args.cap,
                                           tol=args.tol)
    for entry in report.entries:
        print(f"radius {entry.radius}  window {entry.window_size}  "
              f"lambda_max {_fmt(entry.lambda_max)}  ({entry.method})")
    print(f"gap {_fmt(report.gap)}")
    print(f"verdict {report.verdict.value}  [{report.note}]")
    if args.csv:
        _write_csv(args.csv, ["radius", "window_size", "lambda_max"],
                   [(e.radius, e.window_size, e.lambda_max)
                    for e in report.entries])
    if report.verdict is Verdict.EVIDENCE_AMENABLE:
        return EXIT_OK
    if report.verdict is Verdict.EVIDENCE_NONAMENABLE:
        return EXIT_NEGATIVE
    return EXIT_BUDGET


def cmd_check(args) -> int:
    ring = ringio.load_ring(args.ring)
    support = _parse_labels(ring, args.support) if args.support else None
    F = _parse_set_spec(ring, args.set, support=support)
    if args.condition == "fc1":
        if not args.measure:
            raise InvalidParam("fc1 needs --measure")
        mu = _parse_measure_spec(ring, args.measure)
        report = foelner.fc1_check(ring, mu, F, args.eps)
    else:
        if support is None:
            raise InvalidParam(f"{args.condition} needs --support")
        if args.condition == "fc2":
            report = foelner.fc2_check(ring, support, F, args.eps)
        else:
            report = foelner.fc3_check(ring, support, F, args.eps)
    print(f"{report.condition}: lhs {_fmt(report.lhs)}  rhs {_fmt(report.rhs)}  "
          f"satisfied {report.satisfied}")
    if report.condition == "FC2":
        for name, value in sorted(report.extra["per_label"].items()):
            print(f"  rho-distance at {name}: {_fmt(value)}")
    if report.condition == "FC1":
        print(f"  support size {report.extra['support_size']}  "
              f"identity supp = F u boundary: {report.extra['support_identity_holds']}")
    return EXIT_OK if report.satisfied else EXIT_NEGATIVE


def cmd_dirichlet(args) -> int:
    ring = ringio.load_ring(args.ring)
    mu = _parse_measure_spec(ring, args.measure)
    F = _parse_set_spec(ring, args.fn)
    f = indicator(ring, F)
    value = foelner.dirichlet_norm(ring, mu, f, args.r)
    norm = foelner.lp_sigma_norm(f, args.r)
    print(f"dirichlet_norm {_fmt(value)}")
    print(f"lp_sigma_norm {_fmt(norm)}")
    print(f"ratio {_fmt(value / norm)}")
    if args.r == 2:
        rho_f = spectral.rho_measure_apply(ring, mu, f)
        energy = foelner.inner_sigma(f, f) - foelner.inner_sigma(rho_f, f)
        residual = abs(value * value - energy)  # inf or nan past floats
        print("energy_identity_residual", _fmt(residual)
              if math.isfinite(residual) else "out_of_float_range")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionkit",
        description="Amenability toolkit for fusion rings: Foelner "
                    "conditions and truncated Kesten-type spectral tests.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", help="verify the fusion-ring axioms on a window")
    p.add_argument("ring", help="ring file (JSON)")
    p.add_argument("--radius", type=int, required=True,
                   help="window radius around the declared generators")
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("foelner", help="search for a small-boundary set")
    p.add_argument("ring")
    p.add_argument("--support", help="comma-separated labels (default: generators)")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--strategy", choices=("balls", "greedy"), default="balls")
    p.add_argument("--budget", type=int, default=2000, help="max labels in F")
    p.add_argument("--csv", help="write the search curve to this CSV file")
    p.set_defaults(func=cmd_foelner)

    p = sub.add_parser("spectrum", help="truncated spectral amenability test")
    p.add_argument("ring")
    p.add_argument("--measure", required=True,
                   help="uniform-gens | delta:LABEL | decomp:LABEL=k,...")
    p.add_argument("--radii", required=True, help="comma-separated radii")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="absolute accuracy of each top eigenvalue; below "
                        "rounding (about 1e-15 times the operator norm) "
                        "the estimate ends in NoConvergence (exit 3)")
    p.add_argument("--cap", type=int, default=spectral.DEFAULT_WINDOW_CAP,
                   help="max window size")
    p.add_argument("--csv", help="write per-radius results to this CSV file")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("check", help="evaluate one Foelner condition")
    p.add_argument("ring")
    p.add_argument("--condition", choices=("fc1", "fc2", "fc3"), required=True)
    p.add_argument("--set", required=True,
                   help="interval:A..B | set:a,b,c | ball:r")
    p.add_argument("--support", help="comma-separated labels (fc2/fc3)")
    p.add_argument("--measure", help="measure spec (fc1)")
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dirichlet", help="Dirichlet r-norm of an indicator")
    p.add_argument("ring")
    p.add_argument("--measure", required=True)
    p.add_argument("--fn", required=True, help="F-spec for the indicator")
    p.add_argument("--r", type=int, default=1)
    p.set_defaults(func=cmd_dirichlet)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse drops a bare "--" after "=", so "--radii=--" parses to []
    # rather than a string; no option takes a list
    for name, value in vars(args).items():
        if isinstance(value, list):
            print(f"error: --{name} needs a value, got '--'", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except (BudgetExceeded, NoConvergence) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except FusionError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
