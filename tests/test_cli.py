import argparse
import csv
import json
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fusionkit as fk
from fusionkit import cli
from conftest import label_counting_ring, nested_tensor_text
from fusionkit.cli import main


@pytest.fixture()
def ring_file(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)
    return write


@pytest.fixture()
def su2_file(ring_file):
    return ring_file("su2.json", {"type": "builtin", "name": "su2", "params": {}})


@pytest.fixture()
def z_file(ring_file):
    return ring_file("z.json", {"type": "builtin", "name": "zd", "params": {"d": 1}})


@pytest.fixture()
def dsu2_file(ring_file):
    return ring_file("d3.json",
                     {"type": "builtin", "name": "deformed_su2", "params": {"n": 3}})


@pytest.fixture()
def free_file(ring_file):
    return ring_file("f2.json", {"type": "builtin", "name": "free", "params": {"rank": 2}})


class TestAxiomsCommand:
    def test_su2_passes(self, su2_file, capsys):
        assert main(["axioms", su2_file, "--radius", "8"]) == 0
        out = capsys.readouterr().out
        assert "frobenius_reciprocity: PASS" in out

    def test_corrupted_table_exits_one(self, ring_file, capsys):
        labels = ["e", "a", "b"]
        mult = {"e": {"e": "e", "a": "a", "b": "b"},
                "a": {"e": "a", "a": "b", "b": "e"},
                "b": {"e": "b", "a": "e", "b": "a"}}
        doc = {
            "type": "table", "labels": labels, "unit": "e",
            "conjugate": {"e": "e", "a": "a", "b": "b"},
            "dim": {l: 1 for l in labels},
            "products": {f"{x}|{y}": {mult[x][y]: 1} for x in labels for y in labels},
        }
        path = ring_file("bad.json", doc)
        assert main(["axioms", path, "--radius", "2"]) == 1
        out = capsys.readouterr().out
        assert "frobenius_reciprocity: FAIL" in out

    def test_missing_entry_exits_two(self, ring_file, capsys):
        doc = {
            "type": "table", "labels": ["e", "g"], "unit": "e",
            "conjugate": {"e": "e", "g": "g"},
            "dim": {"e": 1, "g": 1},
            "products": {"e|e": {"e": 1}, "e|g": {"g": 1}, "g|e": {"g": 1}},
        }
        path = ring_file("partial.json", doc)
        assert main(["axioms", path, "--radius", "1"]) == 2
        assert "IncompleteTable" in capsys.readouterr().err


class TestCheckCommand:
    def test_fc3_su2_interval(self, su2_file, capsys):
        code = main(["check", su2_file, "--condition", "fc3",
                     "--set", "interval:0..100", "--support", "1",
                     "--eps", "0.06"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lhs 20605" in out
        assert "satisfied True" in out

    def test_fc2_not_satisfied(self, su2_file, capsys):
        code = main(["check", su2_file, "--condition", "fc2",
                     "--set", "interval:0..3", "--support", "1",
                     "--eps", "0.5"])
        assert code == 1
        out = capsys.readouterr().out
        assert "lhs 20" in out

    def test_fc1_measure_missing_unit(self, su2_file, capsys):
        code = main(["check", su2_file, "--condition", "fc1",
                     "--set", "interval:0..5", "--measure", "delta:1",
                     "--eps", "0.5"])
        assert code == 2
        assert "MeasureMissingUnit" in capsys.readouterr().err

    def test_fc1_satisfied(self, su2_file, capsys):
        code = main(["check", su2_file, "--condition", "fc1",
                     "--set", "interval:0..100",
                     "--measure", "decomp:0=1,1=1", "--eps", "0.05"])
        assert code == 0
        assert "identity supp = F u boundary: True" in capsys.readouterr().out

    def test_interval_labels_checked_once_by_their_consumer(self):
        ring, asked = label_counting_ring(fk.build_su2_ring())
        F = cli._parse_set_spec(ring, "interval:0..400")
        assert F == list(range(401)) and asked == []
        fk.indicator(ring, F)
        assert asked == F

    def test_interval_of_non_labels(self, free_file, capsys):
        assert main(["check", free_file, "--condition", "fc3",
                     "--set", "interval:0..3", "--support", "a",
                     "--eps", "0.5"]) == 2
        assert "InvalidLabel" in capsys.readouterr().err

    def test_set_spec_forms(self, z_file):
        assert main(["check", z_file, "--condition", "fc3",
                     "--set", "set:-1,0,1", "--support", "1,-1",
                     "--eps", "5.0"]) == 0
        assert main(["check", z_file, "--condition", "fc3",
                     "--set", "ball:5", "--support", "1,-1",
                     "--eps", "0.5"]) == 0

    def test_missing_support_usage_error(self, su2_file, capsys):
        code = main(["check", su2_file, "--condition", "fc3",
                     "--set", "interval:0..3", "--eps", "0.5"])
        assert code == 2

    @pytest.mark.parametrize("condition", ["fc1", "fc2", "fc3"])
    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_usage_error(self, su2_file, capsys, condition, eps):
        extra = (["--measure", "decomp:0=1,1=1"] if condition == "fc1"
                 else ["--support", "1"])
        code = main(["check", su2_file, "--condition", condition,
                     "--set", "interval:0..3", "--eps", eps, *extra])
        assert code == 2
        assert "InvalidParam" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_su2_closed_forms(self, su2_file, capsys, tmp_path):
        csv_path = str(tmp_path / "spec.csv")
        code = main(["spectrum", su2_file, "--measure", "delta:1",
                     "--radii", "10,50,100", "--csv", csv_path])
        assert code == 0  # gap at radius 100 is below the default threshold
        out = capsys.readouterr().out
        for radius in (10, 50, 100):
            expected = math.cos(math.pi / (radius + 2))
            assert format(expected, ".12g") in out
        assert "EVIDENCE_AMENABLE" in out
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["radius", "window_size", "lambda_max"]
        assert len(rows) == 4
        assert float(rows[3][2]) == pytest.approx(math.cos(math.pi / 102), abs=1e-12)

    def test_deformed_nonamenable_exit(self, dsu2_file, capsys):
        code = main(["spectrum", dsu2_file, "--measure", "delta:1",
                     "--radii", "100,300,505,506,507,508"])
        assert code == 1
        out = capsys.readouterr().out
        assert "EVIDENCE_NONAMENABLE" in out

    def test_free_group_inconclusive(self, free_file, capsys):
        code = main(["spectrum", free_file, "--measure", "uniform-gens",
                     "--radii", "2,3,4"])
        assert code == 3
        out = capsys.readouterr().out
        assert "INCONCLUSIVE" in out
        final = [l for l in out.splitlines() if l.startswith("radius 4")][0]
        assert float(final.split("lambda_max")[1].split()[0]) < 0.8661

    def test_nonsymmetric_measure_rejected(self, z_file, capsys):
        code = main(["spectrum", z_file, "--measure", "delta:1",
                     "--radii", "2,3"])
        assert code == 2
        assert "NonSymmetricMeasure" in capsys.readouterr().err

    def test_decomp_measure(self, su2_file, capsys):
        code = main(["spectrum", su2_file, "--measure", "decomp:1=1",
                     "--radii", "50,100,200"])
        assert code == 0


#: a radius past sys.maxsize
HUGE = str(2 ** 70)


@pytest.mark.parametrize("argv", [
    ["axioms", "--radius", HUGE],
    ["spectrum", "--measure", "uniform-gens", "--radii", HUGE, "--cap", "50"],
    ["check", "--condition", "fc3", "--set", f"ball:{HUGE}", "--support", "1",
     "--eps", "0.5"]], ids=["axioms", "spectrum", "check-ball"])
@pytest.mark.parametrize("name, code", [("cyclic", 0), ("su2", 3)])
def test_radius_past_sys_maxsize(ring_file, capsys, argv, name, code):
    # Z/6 gives its saturated window of 6 labels, SU(2) meets the cap
    params = {"n": 6} if name == "cyclic" else {}
    path = ring_file(f"{name}.json", {"type": "builtin", "name": name,
                                      "params": params})
    assert main([argv[0], path, *argv[1:]]) == code
    if code == 3:
        assert "budget exhausted" in capsys.readouterr().err


class TestFoelnerCommand:
    def test_nan_eps_usage_error(self, su2_file, capsys):
        # with the other numbers the library refuses: a zero budget or cap
        # and a nan tolerance
        for argv in (["foelner", su2_file, "--support", "1", "--eps", "nan",
                      "--budget", "50"],
                     ["foelner", su2_file, "--support", "1", "--eps", "0.1",
                      "--budget", "0"],
                     ["spectrum", su2_file, "--measure", "delta:1",
                      "--radii", "3", "--cap", "0"],
                     ["spectrum", su2_file, "--measure", "delta:1",
                      "--radii", "3", "--tol", "nan"]):
            assert main(argv) == 2, argv
            assert "InvalidParam" in capsys.readouterr().err

    def test_su2_finds_interval(self, su2_file, capsys, tmp_path):
        csv_path = str(tmp_path / "curve.csv")
        code = main(["foelner", su2_file, "--support", "1", "--eps", "0.1",
                     "--budget", "200", "--csv", csv_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "satisfied True" in out
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "set_size", "weight_F", "weight_boundary", "ratio"]
        assert int(rows[-1][1]) == 60
        assert float(rows[-1][4]) < 0.1

    def test_deformed_budget_exhausted(self, dsu2_file, capsys):
        code = main(["foelner", dsu2_file, "--support", "1", "--eps", "0.5",
                     "--budget", "500"])
        assert code == 3
        out = capsys.readouterr().out
        ratio = float(out.split("ratio ")[1].split()[0])
        assert ratio > 1.0

    def test_eps_zero_usage_error(self, su2_file, capsys):
        assert main(["foelner", su2_file, "--support", "1", "--eps", "0",
                     "--budget", "50"]) == 2

    def test_csv_deterministic(self, z_file, tmp_path):
        paths = []
        for i in range(2):
            p = tmp_path / f"curve{i}.csv"
            assert main(["foelner", z_file, "--eps", "0.15",
                         "--budget", "100", "--csv", str(p)]) == 0
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]


class TestDirichletCommand:
    def test_su2_values(self, su2_file, capsys):
        code = main(["dirichlet", su2_file, "--measure", "delta:1",
                     "--fn", "interval:0..3", "--r", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dirichlet_norm 10" in out
        assert "lp_sigma_norm 30" in out
        assert "ratio 0.333333333333" in out

    def test_r2_prints_energy_residual(self, su2_file, capsys):
        code = main(["dirichlet", su2_file, "--measure", "delta:1",
                     "--fn", "interval:0..3", "--r", "2"])
        assert code == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if "energy_identity_residual" in l][0]
        assert float(line.split()[-1]) < 1e-10

    def test_past_float_range(self, dsu2_file, capsys):
        # the exact energy and norm leave the float range, their roots do
        # not: d(400) d(401) / 3 is about 2.87e334
        code = main(["dirichlet", dsu2_file, "--measure", "delta:1",
                     "--fn", "interval:0..400", "--r", "2"])
        assert code == 0
        lines = dict(line.split() for line in capsys.readouterr().out.splitlines())
        d = fk.build_deformed_su2_ring(3).dim
        energy = Fraction(lines["dirichlet_norm"]) ** 2
        assert abs(energy * 3 / (d(400) * d(401)) - 1) < 1e-10

    @pytest.mark.parametrize("fixture,hi,residual", [
        ("su2_file", 3, lambda text: float(text) < 1e-10),
        ("dsu2_file", 400, lambda text: text == "out_of_float_range")],
        ids=["su2", "past_float_range"])
    def test_energy_residual_line(self, fixture, hi, residual, request, capsys):
        # past the float range the squared norm and both sigma products are
        # inf, so no residual is computed; every line keeps two fields
        code = main(["dirichlet", request.getfixturevalue(fixture),
                     "--measure", "delta:1", "--fn", f"interval:0..{hi}",
                     "--r", "2"])
        assert code == 0
        lines = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert {len(fields) for fields in lines} == {2}
        assert residual(dict(lines)["energy_identity_residual"])

    def test_constant_on_finite_ring(self, ring_file, capsys):
        path = ring_file("z6.json",
                         {"type": "builtin", "name": "cyclic", "params": {"n": 6}})
        code = main(["dirichlet", path, "--measure", "uniform-gens",
                     "--fn", "interval:0..5", "--r", "1"])
        assert code == 0
        assert "ratio 0\n" in capsys.readouterr().out


class TestUsageErrors:
    def test_bad_ring_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["axioms", str(path), "--radius", "2"]) == 2

    def test_bad_measure_spec(self, su2_file, capsys):
        assert main(["spectrum", su2_file, "--measure", "nonsense",
                     "--radii", "2"]) == 2

    def test_bad_set_spec(self, su2_file, capsys):
        assert main(["check", su2_file, "--condition", "fc3",
                     "--set", "frob:1", "--support", "1", "--eps", "0.5"]) == 2

    def test_uniform_gens_without_generators(self, ring_file, capsys):
        path = ring_file("trivial.json",
                         {"type": "builtin", "name": "trivial", "params": {}})
        assert main(["spectrum", path, "--measure", "uniform-gens",
                     "--radii", "1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["check", "RING", "--condition", "fc3", "--set", "interval:0..x",
         "--support", "1", "--eps", "0.5"],
        ["check", "RING", "--condition", "fc3", "--set", "ball:two",
         "--support", "1", "--eps", "0.5"],
        ["spectrum", "RING", "--measure", "decomp:1=one", "--radii", "2"],
        ["spectrum", "RING", "--measure", "delta:1", "--radii", "2,x"],
    ])
    def test_non_integer_spec_numbers(self, z_file, capsys, argv):
        argv = [z_file if a == "RING" else a for a in argv]
        assert main(argv) == 2
        assert "InvalidParam" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["check", "RING", "--condition", "fc3", "--set", "set:x",
         "--support", "1", "--eps", "0.5"],
        ["check", "RING", "--condition", "fc3", "--set", "set:1",
         "--support", "x", "--eps", "0.5"],
        ["spectrum", "RING", "--measure", "delta:x", "--radii", "2"],
    ])
    def test_unparsable_labels(self, z_file, capsys, argv):
        argv = [z_file if a == "RING" else a for a in argv]
        assert main(argv) == 2
        assert "InvalidLabel" in capsys.readouterr().err

    def test_interval_over_window_cap(self, z_file, capsys):
        # one label past spectral.DEFAULT_WINDOW_CAP
        assert main(["check", z_file, "--condition", "fc3",
                     "--set", "interval:0..250000", "--support", "1",
                     "--eps", "0.5"]) == 2
        assert "InvalidParam" in capsys.readouterr().err


def subcommand_options():
    """(subcommand, option string, required options) for every option of
    every subcommand of the CLI parser."""
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    for command, sub in subparsers.choices.items():
        options = [a for a in sub._actions
                   if a.option_strings and a.dest != "help"]
        for action in options:
            yield command, action.option_strings[0], \
                [a for a in options if a.required and a is not action]


# a valid value of each required option
REQUIRED_VALUES = {"radius": "1", "eps": "0.5", "measure": "delta:1",
                   "radii": "1", "condition": "fc3", "set": "set:0", "fn": "set:0"}


@pytest.mark.parametrize("command,option,required", [
    pytest.param(*case, id=case[0] + case[1]) for case in subcommand_options()])
def test_double_dash_option_value_is_usage_error(su2_file, capsys, command,
                                                 option, required):
    # argparse drops a bare "--" after "=" and passes the option on as []
    argv = [command, su2_file, f"{option}=--"]
    for action in required:
        argv += [action.option_strings[0], REQUIRED_VALUES[action.dest]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert option in err


class TestRingFileErrors:
    """Bad ring files raise InvalidParam in the library and exit 2 in the CLI."""

    def check(self, path, capsys):
        with pytest.raises(fk.InvalidParam):
            fk.load_ring(path)
        assert main(["axioms", path, "--radius", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParam") and "Traceback" not in err
        return err

    def test_missing_path(self, tmp_path, capsys):
        path = str(tmp_path / "absent.json")
        assert path in self.check(path, capsys)

    def test_malformed_json_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert str(path) in self.check(str(path), capsys)
        with pytest.raises(fk.InvalidParam):
            fk.load_ring("{not json")

    def test_directory(self, tmp_path, capsys):
        assert str(tmp_path) in self.check(str(tmp_path), capsys)

    def test_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes("{}".encode("utf-16"))  # leading bytes ff fe
        assert str(path) in self.check(str(path), capsys)

    def test_document_not_an_object(self, ring_file, capsys):
        self.check(ring_file("list.json", []), capsys)
        with pytest.raises(fk.InvalidParam):
            fk.ring_from_doc([])

    @pytest.mark.parametrize("depth", [fk.ringio.MAX_TENSOR_DEPTH + 1, 2_000])
    def test_tensor_nested_too_deep(self, tmp_path, capsys, depth):
        path = tmp_path / "deep.json"
        path.write_text(nested_tensor_text(depth), encoding="utf-8")
        self.check(str(path), capsys)


# ---------------------------------------------------------------------------
# spec parsers under random text
# ---------------------------------------------------------------------------

SPEC_CHARS = "0123456789-+.,:;=()_ \t\neEaAbBx٣\x00\ud800"


def spec_text(prefixes):
    """Text built from spec punctuation, digits and label letters, bare or
    behind one of the spec ``prefixes``."""
    tail = st.text(alphabet=SPEC_CHARS, max_size=14)
    return st.one_of(tail, st.tuples(st.sampled_from(prefixes), tail).map("".join))


SPEC_RINGS = {
    "z6": {"type": "builtin", "name": "cyclic", "params": {"n": 6}},
    "z3xz2": {"type": "builtin", "name": "tensor", "params": {
        "left": {"type": "builtin", "name": "cyclic", "params": {"n": 3}},
        "right": {"type": "builtin", "name": "cyclic", "params": {"n": 2}}}},
    "su2": {"type": "builtin", "name": "su2", "params": {}},
    "z2": {"type": "builtin", "name": "zd", "params": {"d": 2}},
    "f2": {"type": "builtin", "name": "free", "params": {"rank": 2}},
    "su2xz": {"type": "builtin", "name": "tensor", "params": {
        "left": {"type": "builtin", "name": "su2", "params": {}},
        "right": {"type": "builtin", "name": "zd", "params": {"d": 1}}}},
}


@pytest.fixture(scope="module")
def spec_files(tmp_path_factory):
    """The SPEC_RINGS documents as ring files, by name."""
    files = {}
    for name, doc in SPEC_RINGS.items():
        path = tmp_path_factory.mktemp("spec") / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        files[name] = str(path)
    return files


def parsed_or_exit_2(parse, argv_for, name, spec_files, capsys):
    """Run ``parse(ring)``; if it raises, the error is a FusionError and the
    CLI run of ``argv_for(path, unit)`` exits 2 and prints no traceback."""
    ring = fk.ring_from_doc(SPEC_RINGS[name])
    try:
        parse(ring)
    except fk.FusionError:
        pass
    else:
        return
    capsys.readouterr()
    assert main(argv_for(spec_files[name], ring.format_label(ring.unit))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


class TestSpecParsers:
    """Every spec either parses or raises a typed FusionError, and the CLI
    turns that error into exit 2.  Set specs run on finite rings, where a
    ball never meets the window cap (that is exit 3, a budget)."""

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(["z6", "z3xz2"]),
           spec_text(["set:", "interval:", "ball:", "interval:0..", "set:1,"]))
    def test_set_spec(self, spec_files, capsys, name, spec):
        parsed_or_exit_2(
            lambda ring: cli._parse_set_spec(ring, spec, ring.generators),
            lambda path, unit: ["check", path, "--condition", "fc3",
                                f"--set={spec}", "--support", "1", "--eps", "0.5"],
            name, spec_files, capsys)

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(list(SPEC_RINGS)),
           spec_text(["delta:", "decomp:", "decomp:1=", "delta:(", "uniform-gens"]))
    def test_measure_spec(self, spec_files, capsys, name, spec):
        parsed_or_exit_2(
            lambda ring: cli._parse_measure_spec(ring, spec),
            lambda path, unit: ["spectrum", path, f"--measure={spec}",
                                "--radii", "1"],
            name, spec_files, capsys)

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(list(SPEC_RINGS)), spec_text(["(", "1,", "a,", "e,"]))
    def test_support(self, spec_files, capsys, name, spec):
        parsed_or_exit_2(
            lambda ring: cli._parse_labels(ring, spec),
            lambda path, unit: ["check", path, "--condition", "fc3",
                                f"--set=set:{unit}", f"--support={spec}",
                                "--eps", "0.5"],
            name, spec_files, capsys)

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spec_text(["1,", "2,3", ",", "-"]))
    def test_radii(self, spec_files, capsys, radii):
        parsed_or_exit_2(
            lambda ring: cli._parse_radii(radii),
            lambda path, unit: ["spectrum", path, f"--measure=delta:{unit}",
                                f"--radii={radii}"],
            "z6", spec_files, capsys)
