"""Loading and saving rings as JSON documents.

A ring file is a single JSON document.  Builtins look like

    {"type": "builtin", "name": "su2", "params": {}}

with names zd | free | cyclic | su2 | deformed_su2 | tensor | trivial, and
table rings look like

    {"type": "table",
     "labels": ["e", "g"],
     "unit": "e",
     "conjugate": {"e": "e", "g": "g"},
     "dim": {"e": 1, "g": 1},
     "products": {"e|e": {"e": 1}, "e|g": {"g": 1},
                  "g|e": {"g": 1}, "g|g": {"e": 1}}}

where "A|B" keys name ordered label pairs ("|" is reserved; labels must not
contain it).  Tables must be closed: every pair of labels has an entry and
every entry only references listed labels.  The loader verifies the fusion
axioms on the full table before accepting; a failing table raises
InvalidTable with the axiom report attached.
"""
from __future__ import annotations

import json
import math
import os
from typing import Mapping

from . import catalog
from .core import FusionRing, _row, check_labels
from .errors import IncompleteTable, InvalidParam, InvalidTable

PAIR_SEPARATOR = "|"

_BUILTIN_NAMES = ("zd", "free", "cyclic", "su2", "deformed_su2", "tensor", "trivial")

#: most ``tensor`` documents nested inside one another in one ring
#: document; deeper nesting raises InvalidParam before anything is built
MAX_TENSOR_DEPTH = 32


def load_ring(source) -> FusionRing:
    """Load a ring from a path, JSON text, or an already-parsed document.

    A missing path, a path that cannot be read (a directory, say), a file
    that is not UTF-8 text, malformed JSON, JSON nested too deeply to
    decode or a non-object document raise InvalidParam.
    """
    if isinstance(source, Mapping):
        return ring_from_doc(source)
    if isinstance(source, (str, os.PathLike)) and os.path.exists(source):
        name = f"ring file {os.fspath(source)!r}"
        try:
            with open(source, "r", encoding="utf-8") as fh:
                source = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidParam(f"{name} is not UTF-8 text: {exc}") from None
        except OSError as exc:
            raise InvalidParam(f"cannot read {name}: {exc.strerror}") from None
    elif isinstance(source, str) and source.lstrip().startswith(("{", "[")):
        name = "ring JSON text"
    elif isinstance(source, (str, os.PathLike)):
        raise InvalidParam(f"no ring file at {os.fspath(source)!r}")
    else:
        raise InvalidParam(f"cannot load a ring from {source!r}")
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise InvalidParam(f"{name} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InvalidParam(f"{name} nests too deeply to decode") from None
    return ring_from_doc(doc)


def ring_from_doc(doc: Mapping) -> FusionRing:
    """Build a ring from a parsed document.

    A ``tensor`` builtin holds two ring documents; they nest at most
    MAX_TENSOR_DEPTH deep.
    """
    return _ring_from_doc(doc, 0)


def _ring_from_doc(doc: Mapping, depth: int) -> FusionRing:
    # depth: the tensor documents that hold this one
    if not isinstance(doc, Mapping):
        raise InvalidParam(f"ring document must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("type")
    if kind == "builtin":
        return _builtin_from_doc(doc, depth)
    if kind == "table":
        return table_ring_from_doc(doc)
    raise InvalidParam(f"ring document type must be 'builtin' or 'table', got {kind!r}")


def _builtin_from_doc(doc: Mapping, depth: int) -> FusionRing:
    name = doc.get("name")
    params = doc.get("params", {}) or {}
    if name not in _BUILTIN_NAMES:
        raise InvalidParam(f"unknown builtin ring {name!r}")
    if not isinstance(params, Mapping):
        raise InvalidParam(
            f"builtin 'params' must be an object, got {type(params).__name__}")
    # the catalog constructors check their own parameters
    if name == "zd":
        return catalog.integer_lattice_ring(params.get("d"))
    if name == "free":
        return catalog.free_group_ring(params.get("rank"))
    if name == "cyclic":
        return catalog.cyclic_ring(params.get("n"))
    if name == "su2":
        return catalog.build_su2_ring()
    if name == "deformed_su2":
        return catalog.build_deformed_su2_ring(params.get("n"))
    if name == "trivial":
        return catalog.trivial_ring()
    # tensor: two child documents
    left = params.get("left")
    right = params.get("right")
    if not isinstance(left, Mapping) or not isinstance(right, Mapping):
        raise InvalidParam("tensor builtin needs 'left' and 'right' ring documents")
    if depth >= MAX_TENSOR_DEPTH:
        raise InvalidParam(
            f"tensor documents nest more than {MAX_TENSOR_DEPTH} deep")
    return catalog.tensor_product(_ring_from_doc(left, depth + 1),
                                  _ring_from_doc(right, depth + 1))


def _coerce_dim(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidTable(f"dimension {value!r} is not a number")
    if isinstance(value, float) and not math.isfinite(value):
        raise InvalidTable(f"dimension {value!r} is not finite")
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def table_ring_from_doc(doc: Mapping) -> FusionRing:
    """Build and validate a general fusion ring from a full table document."""
    labels = doc.get("labels")
    if not isinstance(labels, list) or not labels:
        raise InvalidTable("table needs a non-empty 'labels' list")
    for label in labels:
        if not isinstance(label, str) or PAIR_SEPARATOR in label or not label:
            raise InvalidTable(
                f"label {label!r} must be non-empty text without {PAIR_SEPARATOR!r}")
    label_set = set(labels)
    if len(label_set) != len(labels):
        raise InvalidTable("table labels must be unique")

    def is_label(x):
        # the labels are str, so anything else (unhashable values too) is not
        return isinstance(x, str) and x in label_set

    unit = doc.get("unit")
    if not is_label(unit):
        raise InvalidTable(f"unit {unit!r} is not among the labels")

    conj_map = doc.get("conjugate")
    if not isinstance(conj_map, Mapping) or set(conj_map) != label_set:
        raise InvalidTable("'conjugate' must map every label")
    for label, image in conj_map.items():
        if not is_label(image):
            raise InvalidTable(f"conjugate of {label!r} is the unknown label {image!r}")

    dim_map = doc.get("dim")
    if not isinstance(dim_map, Mapping) or set(dim_map) != label_set:
        raise InvalidTable("'dim' must map every label")
    dims = {label: _coerce_dim(value) for label, value in dim_map.items()}

    products_raw = doc.get("products")
    if not isinstance(products_raw, Mapping):
        raise InvalidTable("'products' must be a mapping of 'A|B' keys")
    products: dict = {}
    for key, entry in products_raw.items():
        if not isinstance(key, str):
            raise InvalidTable(f"product key {key!r} is not of the form 'A|B'")
        parts = key.split(PAIR_SEPARATOR)
        if len(parts) != 2:
            raise InvalidTable(f"product key {key!r} is not of the form 'A|B'")
        a, b = parts
        if a not in label_set or b not in label_set:
            raise InvalidTable(f"product key {key!r} references unknown labels")
        if not isinstance(entry, Mapping):
            raise InvalidTable(f"product entry {key!r} must be a mapping")
        clean = {}
        for alpha, n in entry.items():
            if alpha not in label_set:
                raise InvalidTable(
                    f"product {key!r} references {alpha!r} outside the label set")
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise InvalidTable(
                    f"coefficient of {alpha!r} in product {key!r} must be an int >= 0")
            if n:
                clean[alpha] = n
        products[(a, b)] = clean

    def product_rule(x, y):
        # a missing entry raises when verify_axioms reads the window
        # products, in label order
        entry = products.get((x, y))
        if entry is None:
            raise IncompleteTable(
                f"missing product entry for '{x}{PAIR_SEPARATOR}{y}'")
        return entry

    if not isinstance(description := doc.get("description", ""), str):
        raise InvalidTable(f"description {description!r} is not text")
    return catalog._verified_table_ring(FusionRing(
        unit=unit,
        product_rule=product_rule,
        conjugate_rule=lambda x: conj_map[x],
        dim_rule=lambda x: dims[x],
        description=description or "table ring",
        generators=tuple(l for l in labels if l != unit),
        is_label=is_label,
    ), labels)


def export_table(ring: FusionRing, labels) -> dict:
    """Export a ring restricted to a product-closed window as a table document.

    The window must be closed under products (and conjugation), otherwise
    the exported table could not be complete; a non-closed window raises
    InvalidParam.  Reloading the document yields identical product, dim and
    conjugation maps on the window.  Each product is read once, straight
    from the rule: only the greedy Foelner search caches products.
    """
    labels = check_labels(ring, labels)
    if not labels:
        raise InvalidParam("cannot export an empty window")
    fmt = ring.format_label
    label_set = set()
    for label in labels:
        if label in label_set:
            raise InvalidParam(f"duplicate window label {label!r}")
        label_set.add(label)
    conj, dim = ring._conjugate_rule, ring._dim_rule
    for label in labels:
        if conj(label) not in label_set:
            raise InvalidParam(
                f"window is not closed under conjugation at {fmt(label)}")
    text = {label: fmt(label) for label in labels}
    for rendered in text.values():
        if not isinstance(rendered, str) or PAIR_SEPARATOR in rendered or not rendered:
            raise InvalidParam(
                f"rendered label {rendered!r} conflicts with the table format")
    if len(set(text.values())) != len(labels):
        raise InvalidParam("label rendering is not injective on the window")

    products = {}
    for a in labels:
        for b, entry in zip(labels, _row(ring, a, labels)):
            for alpha in entry:
                if alpha not in label_set:
                    raise InvalidParam(
                        f"window is not product-closed: {fmt(a)}*{fmt(b)} "
                        f"reaches {fmt(alpha)}")
            products[f"{text[a]}{PAIR_SEPARATOR}{text[b]}"] = \
                {text[alpha]: n for alpha, n in sorted(entry.items(),
                                                       key=lambda kv: text[kv[0]])}
    return {
        "type": "table",
        "description": ring.description,
        "labels": [text[label] for label in labels],
        "unit": text[ring.unit],
        "conjugate": {text[label]: text[conj(label)] for label in labels},
        "dim": {text[label]: dim(label) for label in labels},
        "products": products,
    }


def save_ring(doc: Mapping, path) -> None:
    """Write a ring document as UTF-8 JSON.

    The document is encoded before the file is opened, so one that JSON
    cannot encode (a set, a cycle) raises InvalidParam and leaves the file
    as it was; a path that cannot be written raises InvalidParam too.
    """
    try:
        text = json.dumps(doc, indent=2) + "\n"
    except (TypeError, ValueError, RecursionError) as exc:
        raise InvalidParam(f"cannot encode the ring document as JSON: {exc}") from None
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidParam(
            f"cannot write ring file {os.fspath(path)!r}: {exc.strerror}") from None
