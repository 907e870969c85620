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
        fk.fc3_check(ring, {1}, {0, 1, 2}, 0.5)
        report = tracer.report()
    finally:
        tracer.uninstall()
    assert fk.core.FusionRing._product_cached is original
    assert report["core.product_lookups"] > 0
    assert report["core.rule_evaluations"] == report["core.product_misses"] > 0
    assert report["foelner.fc3_s"] > 0


def traced_report(run):
    """The tracer's report of ``run(ring)`` on a freshly loaded SU(2) ring."""
    tracer = load_tracer().Tracer()
    tracer.install(fk)
    try:
        run(fk.load_ring({"type": "builtin", "name": "su2", "params": {}}))
        return tracer.report()
    finally:
        tracer.uninstall()


def test_only_the_foelner_layer_counts_as_cache_traffic():
    # a window and the axiom check read the rule, not the cache; the balls
    # search reads through the cache, and its window search only hits
    report = traced_report(lambda ring: fk.verify_axioms(
        ring, fk.build_window(ring, ring.generators, 10)))
    assert report["core.product_lookups"] == 0
    assert report["core.rule_evaluations"] > 0
    report = traced_report(lambda ring: fk.foelner_search(
        ring, ring.generators, 0.5, strategy="balls", budget=100))
    assert report["core.product_lookups"] > report["core.product_misses"]
    assert report["core.rule_evaluations"] == report["core.product_misses"] > 0


def test_fc1_reads_the_rule():
    # FC1 reads each product once, from the rule: the tracer times it and
    # counts its rule evaluations, and there is no cache traffic to count
    report = traced_report(lambda ring: fk.fc1_check(
        ring, fk.measure_from_decomposition(ring, {0: 1, 1: 1}),
        range(2, 403), 0.05))
    assert report["foelner.fc1_s"] > 0
    assert report["core.rule_evaluations"] == 806
    assert report["core.product_lookups"] == report["core.cache_entries"] == 0
