"""Per-layer tracing of fusionkit from outside the package.

``Tracer.install`` replaces public functions of ``core``, ``spectral``,
``foelner``, ``ringio`` and ``cli`` with wrappers that record a span (name,
start, end, parent) and, for some, a count taken from the arguments or the
result.  A function is replaced under every module name bound to it, because
the package looks names up in several places: ``cli`` imports
``verify_axioms`` and ``indicator`` by name, ``foelner_search`` imports
``spectral.build_window`` at call time, ``amenability_estimate`` and
``fc3_check`` call module globals, and the package root re-exports
everything.  The product cache is counted by wrapping
``FusionRing._product_cached`` (lookups and misses) and the product rule of
every ring ``load_ring`` returns (rule evaluations, including the uncached
probes of ``verify_axioms``).

Spans and counts stay in memory.  ``report`` sums them for one process,
``combine`` forms the per-layer metrics of a pass from its processes, and
the spans are written out when the run ends.  Nothing is
wrapped unless ``install`` is called, so untraced runs pay nothing.
"""
from __future__ import annotations

import time
from collections import defaultdict

#: (module, function, span name); a span's name is its layer and function
WRAPPED = (
    ("core", "verify_axioms", "core.verify_axioms"),
    ("core", "indicator", "core.indicator"),
    ("spectral", "build_window", "spectral.build_window"),
    ("spectral", "l_measure_operator", "spectral.assemble"),
    ("spectral", "top_eigenvalue", "spectral.eigen"),
    ("spectral", "amenability_estimate", "spectral.estimate"),
    ("spectral", "rho_measure_apply", "spectral.rho_apply"),
    ("foelner", "boundary", "foelner.boundary"),
    ("foelner", "fc1_check", "foelner.fc1"),
    ("foelner", "fc2_check", "foelner.fc2"),
    ("foelner", "fc3_check", "foelner.fc3"),
    ("foelner", "dirichlet_norm", "foelner.dirichlet"),
    ("foelner", "lp_sigma_norm", "foelner.dirichlet"),
    ("foelner", "inner_sigma", "foelner.dirichlet"),
    ("foelner", "foelner_search", "foelner.search"),
    ("ringio", "load_ring", "ringio.load"),
    ("cli", "main", "cli.main"),
)

#: per-layer time metric -> span name; each is the summed self time
SELF_TIMES = {
    "core.verify_axioms_s": "core.verify_axioms",
    "core.indicator_s": "core.indicator",
    "spectral.build_window_s": "spectral.build_window",
    "spectral.assemble_s": "spectral.assemble",
    "spectral.eigen_s": "spectral.eigen",
    "spectral.estimate_self_s": "spectral.estimate",
    "spectral.rho_apply_s": "spectral.rho_apply",
    "foelner.boundary_s": "foelner.boundary",
    "foelner.fc1_s": "foelner.fc1",
    "foelner.fc2_s": "foelner.fc2",
    "foelner.fc3_s": "foelner.fc3",
    "foelner.dirichlet_s": "foelner.dirichlet",
    "foelner.search_self_s": "foelner.search",
    "ringio.load_s": "ringio.load",
    "cli.self_s": "cli.main",
}

#: counts that must repeat exactly between two traced runs of one seed
DETERMINISTIC_COUNTS = (
    "core.product_lookups", "core.product_misses", "core.rule_evaluations",
    "core.cache_entries", "spectral.build_window_calls", "spectral.window_labels",
    "spectral.nnz", "spectral.eigen_iterations", "spectral.eigen_failures",
    "foelner.boundary_calls", "foelner.boundary_input_labels", "cli.calls",
)


class Tracer:
    """Spans and counters for one worker process."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._rings: list = []
        self._undo: list = []
        self._cache_counts = [0, 0]  # lookups, misses

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn, note):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                tracer._close(rec)
                if note is not None:
                    note(args, result, error)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- installation --------------------------------------------------

    def install(self, fk) -> None:
        """Wrap the public functions listed in WRAPPED, and the product cache."""
        import fusionkit.cli  # noqa: F401  (cli is not imported by the package)
        modules = [fk] + [getattr(fk, m) for m in
                          ("core", "catalog", "spectral", "foelner", "ringio", "cli")]
        notes = {
            "build_window": self._note_window,
            "l_measure_operator": self._note_assemble,
            "top_eigenvalue": self._note_eigen,
            "boundary": self._note_boundary,
            "foelner_search": self._note_search,
            "load_ring": self._note_ring,
        }
        for mod_name, fn_name, span in WRAPPED:
            orig = getattr(getattr(fk, mod_name), fn_name)
            wrapper = self._wrap(span, orig, notes.get(fn_name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

        ring_cls = fk.core.FusionRing
        orig_cached = ring_cls._product_cached
        counts = self._cache_counts

        def product_cached(ring, xi, eta):
            counts[0] += 1
            if (xi, eta) not in ring._cache:
                counts[1] += 1
            return orig_cached(ring, xi, eta)

        self._undo.append((ring_cls, "_product_cached", orig_cached))
        ring_cls._product_cached = product_cached

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- counts taken at layer boundaries ------------------------------

    def _note_window(self, args, result, exc):
        if result is not None:
            self.counts["spectral.window_labels"] += len(result)

    def _note_assemble(self, args, result, exc):
        if result is not None:
            self.counts["spectral.nnz"] += result.matrix.nnz

    def _note_eigen(self, args, result, exc):
        if result is not None:
            self.counts["spectral.eigen_iterations"] += result.iterations
        elif hasattr(exc, "iterations"):
            self.counts["spectral.eigen_iterations"] += exc.iterations
            self.counts["spectral.eigen_failures"] += 1

    def _note_boundary(self, args, result, exc):
        self.counts["foelner.boundary_input_labels"] += len(set(args[2]))

    def _note_search(self, args, result, exc):
        if result is not None:
            self.counts["foelner.curve_steps"] += len(result.curve)

    def _note_ring(self, args, result, exc):
        if result is None:
            return
        rule = result._product_rule
        counts = self.counts

        def counted_rule(xi, eta):
            counts["core.rule_evaluations"] += 1
            return rule(xi, eta)

        result._product_rule = counted_rule
        self._rings.append(result)

    # -- results -------------------------------------------------------

    def report(self) -> dict:
        """Self times and counts recorded so far; ``combine`` adds the ratios."""
        self_time = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        by_name: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for (name, *_), own in zip(self.spans, self_time):
            by_name[name] += own
            calls[name] += 1

        out = {metric: by_name.get(span, 0.0) for metric, span in SELF_TIMES.items()}
        out["core.product_lookups"], out["core.product_misses"] = self._cache_counts
        out["core.cache_entries"] = sum(len(ring._cache) for ring in self._rings)
        out["spectral.build_window_calls"] = calls["spectral.build_window"]
        for key in ("core.rule_evaluations", "spectral.window_labels", "spectral.nnz",
                    "spectral.eigen_iterations", "spectral.eigen_failures",
                    "foelner.boundary_input_labels", "foelner.curve_steps"):
            out[key] = self.counts[key]
        out["foelner.boundary_calls"] = calls["foelner.boundary"]
        out["foelner.search_boundary_calls"] = sum(
            1 for i, s in enumerate(self.spans)
            if s[0] == "foelner.boundary" and self._under(i, "foelner.search"))
        out["cli.calls"] = calls["cli.main"]
        return out

    def _under(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def span_records(self) -> list:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
                for s in self.spans]


def combine(reports: list) -> dict:
    """Per-layer metrics of one pass from the reports of its processes.

    Times and counts add up; the two ratios are formed from the sums.
    """
    out = {key: sum(r[key] for r in reports) for key in reports[0]}
    lookups = out["core.product_lookups"]
    out["core.cache_hit_ratio"] = 1.0 - out["core.product_misses"] / lookups if lookups else 0.0
    steps = out.pop("foelner.curve_steps")
    calls = out.pop("foelner.search_boundary_calls")
    out["foelner.useful_ratio"] = steps / calls if calls else 0.0
    return out
