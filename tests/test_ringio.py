import copy
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import fusionkit as fk
from conftest import nested_tensor_text


def z2_table_doc():
    return {
        "type": "table",
        "labels": ["e", "g"],
        "unit": "e",
        "conjugate": {"e": "e", "g": "g"},
        "dim": {"e": 1, "g": 1},
        "products": {
            "e|e": {"e": 1}, "e|g": {"g": 1},
            "g|e": {"g": 1}, "g|g": {"e": 1},
        },
    }


class TestBuiltins:
    @pytest.mark.parametrize("doc,unit", [
        ({"type": "builtin", "name": "su2", "params": {}}, 0),
        ({"type": "builtin", "name": "deformed_su2", "params": {"n": 3}}, 0),
        ({"type": "builtin", "name": "zd", "params": {"d": 2}}, (0, 0)),
        ({"type": "builtin", "name": "free", "params": {"rank": 2}}, ""),
        ({"type": "builtin", "name": "cyclic", "params": {"n": 6}}, 0),
        ({"type": "builtin", "name": "trivial", "params": {}}, "e"),
    ])
    def test_load(self, doc, unit):
        ring = fk.ring_from_doc(doc)
        assert ring.unit == unit

    def test_tensor_doc(self):
        doc = {"type": "builtin", "name": "tensor", "params": {
            "left": {"type": "builtin", "name": "su2", "params": {}},
            "right": {"type": "builtin", "name": "zd", "params": {"d": 1}},
        }}
        ring = fk.ring_from_doc(doc)
        assert ring.unit == (0, 0)
        assert ring.dim((1, 5)) == 2

    def test_unknown_builtin(self):
        with pytest.raises(fk.InvalidParam):
            fk.ring_from_doc({"type": "builtin", "name": "su3", "params": {}})

    def test_bad_params(self):
        with pytest.raises(fk.InvalidParam):
            fk.ring_from_doc({"type": "builtin", "name": "zd", "params": {}})


class TestTableRings:
    def test_valid_table_loads(self):
        ring = fk.ring_from_doc(z2_table_doc())
        assert fk.product_basis(ring, "g", "g") == {"e": 1}
        assert ring.dim("g") == 1

    @pytest.mark.parametrize("description", [5, ["x"], None, True])
    def test_description_must_be_text(self, description):
        doc = z2_table_doc()
        doc["description"] = description
        with pytest.raises(fk.InvalidTable, match="description"):
            fk.ring_from_doc(doc)

    @pytest.mark.parametrize("extra,description", [
        ({}, "table ring"), ({"description": ""}, "table ring"),
        ({"description": "Z/2"}, "Z/2")])
    def test_description_read(self, extra, description):
        assert fk.ring_from_doc({**z2_table_doc(), **extra}).description == description

    def test_missing_entry_is_incomplete(self):
        doc = z2_table_doc()
        del doc["products"]["g|g"]
        with pytest.raises(fk.IncompleteTable):
            fk.ring_from_doc(doc)

    def test_entry_leaving_labels_rejected(self):
        doc = z2_table_doc()
        doc["products"]["g|g"] = {"h": 1}
        with pytest.raises(fk.InvalidTable):
            fk.ring_from_doc(doc)

    def test_non_integer_coefficient_rejected(self):
        doc = z2_table_doc()
        doc["products"]["g|g"] = {"e": 1.5}
        with pytest.raises(fk.InvalidTable):
            fk.ring_from_doc(doc)

    def test_pair_separator_reserved(self):
        doc = z2_table_doc()
        doc["labels"] = ["e", "g|h"]
        with pytest.raises(fk.InvalidTable):
            fk.ring_from_doc(doc)

    def test_axioms_checked_on_load(self):
        # Z/3-like table with identity conjugation: breaks Frobenius
        labels = ["e", "a", "b"]
        mult = {"e": {"e": "e", "a": "a", "b": "b"},
                "a": {"e": "a", "a": "b", "b": "e"},
                "b": {"e": "b", "a": "e", "b": "a"}}
        doc = {
            "type": "table",
            "labels": labels,
            "unit": "e",
            "conjugate": {"e": "e", "a": "a", "b": "b"},
            "dim": {l: 1 for l in labels},
            "products": {f"{x}|{y}": {mult[x][y]: 1} for x in labels for y in labels},
        }
        with pytest.raises(fk.InvalidTable) as info:
            fk.ring_from_doc(doc)
        assert info.value.report is not None
        assert not info.value.report.passed

    def test_integral_float_dims_coerced(self):
        doc = z2_table_doc()
        doc["dim"] = {"e": 1.0, "g": 1.0}
        ring = fk.ring_from_doc(doc)
        assert ring.dim("g") == 1 and isinstance(ring.dim("g"), int)


class TestExportRoundTrip:
    def test_cyclic_round_trip(self, z6):
        doc = fk.export_table(z6, range(6))
        reloaded = fk.load_ring(doc)
        for a in range(6):
            sa = z6.format_label(a)
            assert reloaded.dim(sa) == z6.dim(a)
            assert reloaded.conj(sa) == z6.format_label(z6.conj(a))
            for b in range(6):
                expected = {z6.format_label(k): n
                            for k, n in fk.product_basis(z6, a, b).items()}
                assert fk.product_basis(reloaded, sa, z6.format_label(b)) == expected

    def test_finite_tensor_round_trip(self):
        ring = fk.tensor_product(fk.cyclic_ring(2), fk.cyclic_ring(3))
        labels = [(a, b) for a in range(2) for b in range(3)]
        doc = fk.export_table(ring, labels)
        reloaded = fk.load_ring(doc)
        assert fk.verify_axioms(reloaded, doc["labels"]).passed
        fmt = ring.format_label
        for x in labels:
            for y in labels:
                expected = {fmt(k): n for k, n in fk.product_basis(ring, x, y).items()}
                assert fk.product_basis(reloaded, fmt(x), fmt(y)) == expected

    @pytest.mark.parametrize("make, labels", [
        (lambda: fk.cyclic_ring(6), range(6)),
        (lambda: fk.tensor_product(fk.cyclic_ring(2), fk.cyclic_ring(3)),
         [(a, b) for a in range(2) for b in range(3)])], ids=["z6", "z2xz3"])
    def test_export_leaves_the_product_cache_unchanged(self, make, labels):
        # each product is read once, straight from the rule, not cached; a
        # cache a greedy search filled beforehand gives the same document
        # and stays as it was
        ring = make()
        doc = fk.export_table(ring, labels)
        assert ring._cache == {}
        fk.foelner_search(ring, ring.generators, 0.5, strategy="greedy",
                          budget=4)
        cached = dict(ring._cache)
        assert cached
        assert fk.export_table(ring, labels) == doc
        assert ring._cache == cached

    def test_non_closed_window_rejected(self, su2):
        with pytest.raises(fk.InvalidParam):
            fk.export_table(su2, [0, 1])

    def test_file_round_trip(self, tmp_path, z6):
        doc = fk.export_table(z6, range(6))
        path = tmp_path / "z6.json"
        fk.save_ring(doc, path)
        ring = fk.load_ring(path)
        assert fk.product_basis(ring, "1", "5") == {"0": 1}

    @pytest.mark.parametrize("rendering", ["", "a|b", 5, ["x"], None],
                             ids=repr)
    def test_rendering_the_table_cannot_hold_refused(self, rendering):
        base = fk.cyclic_ring(2)
        ring = fk.FusionRing(unit=0, product_rule=base._product_rule,
                             conjugate_rule=base._conjugate_rule,
                             dim_rule=base._dim_rule, is_label=base._is_label,
                             format_label=lambda x: rendering if x else "e")
        with pytest.raises(fk.InvalidParam, match="conflicts with the table"):
            fk.export_table(ring, [0, 1])

    @pytest.mark.parametrize("bad", [{1, 2}, object(), "cycle"],
                             ids=["set", "object", "cycle"])
    def test_failed_save_leaves_the_old_file(self, tmp_path, bad):
        path = tmp_path / "z2.json"
        fk.save_ring(z2_table_doc(), path)
        before = path.read_bytes()
        doc = z2_table_doc()
        doc["extra"] = doc if bad == "cycle" else bad
        with pytest.raises(fk.InvalidParam, match="cannot encode"):
            fk.save_ring(doc, path)
        assert path.read_bytes() == before
        assert fk.load_ring(path).unit == "e"

    def test_unwritable_path_refused(self, tmp_path):
        with pytest.raises(fk.InvalidParam, match="cannot write"):
            fk.save_ring(z2_table_doc(), tmp_path)
        with pytest.raises(fk.InvalidParam, match="cannot write"):
            fk.save_ring(z2_table_doc(), tmp_path / "missing" / "z2.json")

    def test_load_from_json_text(self):
        ring = fk.load_ring(json.dumps(z2_table_doc()))
        assert ring.unit == "e"


class TestLoadErrors:
    def test_directory_path(self, tmp_path):
        with pytest.raises(fk.InvalidParam, match=str(tmp_path)):
            fk.load_ring(tmp_path)

    def test_file_not_utf8(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes("{}".encode("utf-16"))  # leading bytes ff fe
        with pytest.raises(fk.InvalidParam, match="not UTF-8"):
            fk.load_ring(path)

    def test_unknown_type(self):
        with pytest.raises(fk.InvalidParam):
            fk.ring_from_doc({"type": "magic"})

    def test_duplicate_labels(self):
        doc = z2_table_doc()
        doc["labels"] = ["e", "e"]
        with pytest.raises(fk.InvalidTable):
            fk.ring_from_doc(doc)

    def test_conjugate_must_cover_labels(self):
        doc = z2_table_doc()
        doc["conjugate"] = {"e": "e"}
        with pytest.raises(fk.InvalidTable):
            fk.ring_from_doc(doc)

    @pytest.mark.parametrize("doc", [
        {"type": "builtin", "name": "zd", "params": [1]},
        {"type": "builtin", "name": "free", "params": "rank"},
        {"type": "builtin", "name": "cyclic", "params": 6},
    ])
    def test_params_must_be_an_object(self, doc):
        with pytest.raises(fk.InvalidParam):
            fk.ring_from_doc(doc)

    @pytest.mark.parametrize("field, value", [
        ("labels", ["e", ["g"]]),
        ("labels", ["e", {"g": 1}]),
        ("unit", ["e"]),
        ("unit", {"e": 1}),
        ("conjugate", {"e": "e", "g": ["g"]}),
        ("conjugate", {"e": {"e": 1}, "g": "g"}),
    ])
    def test_unhashable_table_entries(self, field, value):
        doc = z2_table_doc()
        doc[field] = value
        with pytest.raises(fk.InvalidTable):
            fk.ring_from_doc(doc)

    @pytest.mark.parametrize("key", [3, None, ("e", "g"), b"e|g"])
    def test_non_text_product_key(self, key):
        doc = z2_table_doc()
        doc["products"][key] = doc["products"].pop("e|g")
        with pytest.raises(fk.InvalidTable):
            fk.ring_from_doc(doc)

    def test_unhashable_label_is_not_a_label(self):
        ring = fk.ring_from_doc(z2_table_doc())
        with pytest.raises(fk.InvalidLabel):
            ring.product("e", ["g"])

    def test_huge_lattice_rank_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            for d in (fk.catalog.MAX_LATTICE_RANK + 1, 10 ** 9, 10 ** 30):
                with pytest.raises(fk.InvalidParam):
                    fk.ring_from_doc({"type": "builtin", "name": "zd",
                                      "params": {"d": d}})
                with pytest.raises(fk.InvalidParam):
                    fk.integer_lattice_ring(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        ring = fk.integer_lattice_ring(fk.catalog.MAX_LATTICE_RANK)
        assert len(ring.generators) == 2 * fk.catalog.MAX_LATTICE_RANK

    @pytest.mark.parametrize("depth", [fk.ringio.MAX_TENSOR_DEPTH + 1, 2_000])
    def test_tensor_nesting_bounded(self, depth):
        leaf = {"type": "builtin", "name": "cyclic", "params": {"n": 2}}
        doc = leaf
        for _ in range(depth):
            doc = {"type": "builtin", "name": "tensor",
                   "params": {"left": doc, "right": leaf}}
        with pytest.raises(fk.InvalidParam, match="nest"):
            fk.ring_from_doc(doc)
        with pytest.raises(fk.InvalidParam, match="nest"):
            fk.load_ring(nested_tensor_text(depth))

    def test_tensor_nesting_at_the_bound_loads(self):
        ring = fk.load_ring(nested_tensor_text(fk.ringio.MAX_TENSOR_DEPTH))
        assert fk.verify_axioms(ring, [ring.unit]).passed
        # the unit and one generator per cyclic factor
        window = fk.build_window(ring, ring.generators, 1)
        assert len(window) == fk.ringio.MAX_TENSOR_DEPTH + 2



ONE_LABEL_TEXT = ('{"type": "table", "labels": ["e"], "unit": "e", '
                  '"conjugate": {"e": "e"}, "dim": {"e": %s}, '
                  '"products": {"e|e": {"e": 1}}}')


class TestNonFiniteDimensions:
    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
    def test_load_ring_rejects(self, value):
        with pytest.raises(fk.InvalidTable, match="not finite"):
            fk.load_ring(ONE_LABEL_TEXT % value)

    def test_finite_one_label_table_loads(self):
        assert fk.load_ring(ONE_LABEL_TEXT % "1.0").dim("e") == 1

    @pytest.mark.parametrize("d", [math.inf, math.nan])
    def test_verify_axioms_fails_involution(self, d):
        ring = fk.FusionRing(unit="e", product_rule=lambda x, y: {"e": 1},
                             conjugate_rule=lambda x: x,
                             dim_rule=lambda x: d, is_label=lambda x: x == "e")
        report = fk.verify_axioms(ring, ["e"])
        involution = report.failures()[0]
        assert involution.name == "involution"
        assert involution.counterexample == f"d(e) = {d} is not finite"

    def test_huge_int_dimension_is_finite(self):
        # d(k) of deformed SU(2) at n = 3 leaves the float range near
        # k = 737 and stays an exact, finite int
        ring = fk.build_deformed_su2_ring(3)
        window = [0, 800]
        assert ring.dim(800) > 10 ** 309
        report = fk.verify_axioms(ring, window)
        assert report.checks[1].name == "involution" and report.checks[1].passed


# -- malformed documents: a typed error or a ring that round-trips ----------

HASHABLE_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.just(2 ** 70), st.floats(),
    st.text(alphabet="eg01|", max_size=3), st.tuples(st.integers(0, 2)))
JUNK = st.one_of(
    HASHABLE_JUNK, st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(alphabet="eg|", max_size=2), st.integers(0, 2),
                    max_size=2))


def base_tables():
    return [z2_table_doc(), fk.export_table(fk.cyclic_ring(3), range(3))]


def mutate_table(data, doc):
    """Apply a few drawn corruptions, some of them harmless, to a valid
    table document."""
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(
            ["drop", "field", "label", "conjugate", "dim", "key", "entry",
             "coefficient"]))
        fields = ["type", "labels", "unit", "conjugate", "dim", "products"]
        if kind == "drop":
            doc.pop(data.draw(st.sampled_from(fields)), None)
        elif kind == "field":
            doc[data.draw(st.sampled_from(fields))] = data.draw(JUNK)
        target = doc.get({"label": "labels", "conjugate": "conjugate",
                          "dim": "dim"}.get(kind, "products"))
        if kind == "label" and isinstance(target, list) and target:
            target[data.draw(st.integers(0, len(target) - 1))] = data.draw(JUNK)
        elif kind in ("conjugate", "dim") and isinstance(target, dict) and target:
            key = data.draw(st.sampled_from(sorted(target, key=repr)))
            target[key] = data.draw(JUNK if kind == "conjugate" else
                                    st.one_of(JUNK, st.integers(-1, 4)))
        elif kind in ("key", "entry", "coefficient") \
                and isinstance(target, dict) and target:
            key = data.draw(st.sampled_from(sorted(target, key=repr)))
            if kind == "key":
                target[data.draw(HASHABLE_JUNK)] = target.pop(key)
            elif kind == "entry":
                target[key] = data.draw(JUNK)
            elif isinstance(target[key], dict) and target[key]:
                alpha = data.draw(st.sampled_from(sorted(target[key], key=repr)))
                target[key][alpha] = data.draw(st.one_of(JUNK, st.integers(-1, 3)))
    return doc




def either(good, bad):
    """``good`` or ``bad`` with even odds (st.one_of would weight each
    branch of a nested one_of alike)."""
    return st.booleans().flatmap(lambda ok: good if ok else bad)


PARAM_VALUE = either(st.integers(-1, 8), st.one_of(JUNK, st.just(10 ** 12)))
BUILTIN_PARAMS = st.one_of(
    JUNK,
    st.fixed_dictionaries({}, optional={
        "d": PARAM_VALUE, "rank": PARAM_VALUE, "n": PARAM_VALUE,
        "left": JUNK, "right": JUNK}))


PARAM_KEY = {"zd": "d", "free": "rank", "cyclic": "n", "deformed_su2": "n"}


@st.composite
def builtin_docs(draw, depth=0):
    """Builtin documents: a name, valid or not, with params that are often
    the right key and often not."""
    name = draw(either(st.sampled_from(
        ["zd", "free", "cyclic", "su2", "deformed_su2", "tensor", "trivial"]),
        HASHABLE_JUNK))
    if name == "tensor" and depth < 2 and draw(st.booleans()):
        params = {"left": draw(builtin_docs(depth + 1)),
                  "right": draw(builtin_docs(depth + 1))}
    elif PARAM_KEY.get(name) is not None and draw(st.booleans()):
        params = {PARAM_KEY[name]: draw(PARAM_VALUE)}
    else:
        params = draw(BUILTIN_PARAMS)
    return {"type": "builtin", "name": name, "params": params}


def assert_round_trip(ring, labels):
    """export_table of ``labels`` reloads to the same product, dim and
    conjugation maps."""
    fmt = ring.format_label
    reloaded = fk.ring_from_doc(fk.export_table(ring, labels))
    assert reloaded.unit == fmt(ring.unit)
    for x in labels:
        assert reloaded.dim(fmt(x)) == ring.dim(x)
        assert reloaded.conj(fmt(x)) == fmt(ring.conj(x))
        for y in labels:
            assert reloaded.product(fmt(x), fmt(y)) == \
                {fmt(k): n for k, n in ring.product(x, y).items()}


class TestMalformedDocuments:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 1), st.data())
    def test_table_loads_and_round_trips_or_raises_typed(self, base, data):
        doc = mutate_table(data, copy.deepcopy(base_tables()[base]))
        try:
            ring = fk.ring_from_doc(doc)
        except fk.FusionError:
            return
        assert_round_trip(ring, doc["labels"])

    @settings(max_examples=300, deadline=None)
    @given(builtin_docs())
    def test_builtin_loads_and_round_trips_or_raises_typed(self, doc):
        try:
            ring = fk.ring_from_doc(doc)
        except fk.FusionError:
            return
        assert ring.product(ring.unit, ring.unit) == {ring.unit: 1}
        # a small finite ring saturates its window and exports whole
        try:
            window = fk.build_window(ring, ring.generators or {ring.unit}, 4,
                                     cap=64)
        except fk.BudgetExceeded:
            return
        if len(window.level_sizes) <= 4:
            assert_round_trip(ring, window.labels)

    @settings(max_examples=100, deadline=None)
    @given(JUNK)
    def test_non_object_document(self, doc):
        if isinstance(doc, dict):
            doc = {"type": doc}
        with pytest.raises(fk.InvalidParam):
            fk.ring_from_doc(doc)
