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
        fc3 = tracer.report()
        # the greedy search alone reads through the product cache
        fk.foelner_search(ring, {1}, 0.5, strategy="greedy", budget=10)
        report = tracer.report()
    finally:
        tracer.uninstall()
    assert fk.core.FusionRing._product_cached is original
    # FC3 reads its 3 rows 0 * 1, 1 * 1 and 2 * 1 from the rule
    assert fc3["foelner.fc3_s"] > 0
    assert fc3["core.rule_evaluations"] == 3
    assert fc3["core.product_lookups"] == 0
    assert report["core.product_lookups"] > 0
    assert report["core.rule_evaluations"] - 3 == report["core.product_misses"] > 0


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
    # a window, the axiom check and the balls search read the rule, not the
    # cache; the greedy search reads through the cache, and its scoring of
    # candidates reads their products again
    for run in (lambda ring: fk.verify_axioms(
                    ring, fk.build_window(ring, ring.generators, 10)),
                lambda ring: fk.foelner_search(
                    ring, ring.generators, 0.5, strategy="balls", budget=100)):
        report = traced_report(run)
        assert report["core.product_lookups"] == 0
        assert report["core.cache_entries"] == 0
        assert report["core.rule_evaluations"] > 0
    report = traced_report(lambda ring: fk.foelner_search(
        ring, ring.generators, 0.5, strategy="greedy", budget=30))
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
