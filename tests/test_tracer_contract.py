"""The benchmark tracer (perfbench/tracer.py) wraps package names by lookup.

These tests fail when a refactor renames or removes a name it relies on, so
the traced benchmark run cannot break silently.
"""
import importlib.util
from pathlib import Path

import fusionkit as fk
import fusionkit.cli  # noqa: F401  (the package root does not import cli)

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    for mod_name, fn_name, _ in load_tracer().WRAPPED:
        assert callable(getattr(getattr(fk, mod_name), fn_name, None)), \
            f"{mod_name}.{fn_name}"


def test_install_counts_and_uninstalls():
    tracer = load_tracer().Tracer()
    original = fk.core.FusionRing._product_cached
    tracer.install(fk)
    try:
        ring = fk.load_ring({"type": "builtin", "name": "su2", "params": {}})
        fk.fc2_check(ring, {1}, {0, 1, 2}, 0.5)
        report = tracer.report()
    finally:
        tracer.uninstall()
    assert fk.core.FusionRing._product_cached is original
    assert report["core.product_lookups"] > 0
    assert report["core.rule_evaluations"] == report["core.product_misses"] > 0
    assert report["foelner.fc2_s"] > 0
