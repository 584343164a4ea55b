"""Span accounting around the calls that cross sl2arc module boundaries.

The wrappers live here, in the benchmark, and are installed by rebinding
names at run time; no file of the package changes.  A function imported with
`from .x import f` is bound once per importing module, so every sl2arc module
that holds the same function object is rebound, and so is the defining
module (which also catches calls made inside that module, such as
`exact_rank` -> `exact_rref`).

Each wrapped call is a span.  Its self time is its duration minus the time
covered by the wrapped calls it makes, so self times of all spans add up to
the traced time without double counting.  Spans are aggregated in memory per
name (calls, inclusive seconds, self seconds) rather than stored one by one:
the arc hot loop makes about fifty wrapped calls per continuation step.
"""

from __future__ import annotations

import functools
import sys
import time
import types

# (module, attribute) of every cross-module entry point of the package, and
# the metric name its spans are filed under.  "Class.method" rebinds a method.
FULL = (
    ("sl2arc.words", "evaluate", "words.evaluate"),
    ("sl2arc.words", "parse_word", "words.parse_word"),
    ("sl2arc.words", "commutator", "words.commutator"),
    ("sl2arc.tracepoly", "trace_polynomial", "tracepoly.trace_polynomial"),
    ("sl2arc.tracepoly", "TracePolynomial.evaluate", None),  # split below
    ("sl2arc.sl2", "solve_conjugator", "sl2.solve_conjugator"),
    ("sl2arc.sl2", "exact_rref", "sl2.exact_rref"),
    ("sl2arc.sl2", "exact_rank", "sl2.exact_rank"),
    ("sl2arc.sl2", "exact_nullspace", "sl2.exact_nullspace"),
    ("sl2arc.sl2", "eigen_data", "sl2.eigen_data"),
    ("sl2arc.sl2", "translation_numbers_along_arc", "sl2.translation_numbers_along_arc"),
    ("sl2arc.sl2", "classify", "sl2.classify"),
    ("sl2arc.sl2", "same_trace_conjugacy", "sl2.same_trace_conjugacy"),
    ("sl2arc.pretzel", "make_family", "pretzel.make_family"),
    ("sl2arc.pretzel", "verify_lemma", "pretzel.verify_lemma"),
    ("sl2arc.pretzel", "gradient_at", "pretzel.gradient_at"),
    ("sl2arc.pretzel", "hessian_at", "pretzel.hessian_at"),
    ("sl2arc.pretzel", "outside_row_span", "pretzel.outside_row_span"),
    ("sl2arc.arc", "analyze_curve", "arc.analyze_curve"),
    ("sl2arc.arc", "continue_arc", "arc.continue_arc"),
    ("sl2arc.arc", "glue_hnn", "arc.glue_hnn"),
    ("sl2arc.arc", "Arc.longitude_images", "arc.longitude_images"),
    ("sl2arc.locus", "locus_points", "locus.locus_points"),
    ("sl2arc.locus", "orderable_interval", "locus.orderable_interval"),
    ("sl2arc.locus", "csv_text", "locus.csv_text"),
    ("sl2arc.locus", "svg_text", "locus.svg_text"),
    ("sl2arc.locus", "emit_csv", "locus.emit_csv"),
    ("sl2arc.locus", "emit_svg", "locus.emit_svg"),
    ("sl2arc.cli", "main", "cli.main"),
)

# The untraced rounds time only these three, to turn their inclusive time
# into rates.  Each is called at most once per arc sample.
COARSE = (
    ("sl2arc.arc", "continue_arc", "arc.continue_arc"),
    ("sl2arc.arc", "glue_hnn", "arc.glue_hnn"),
    ("sl2arc.locus", "locus_points", "locus.locus_points"),
)


class Tracer:
    """Installs span wrappers, aggregates them, and removes them again."""

    def __init__(self, specs, linalg_in_arc: bool = False):
        self.specs = specs
        self.linalg_in_arc = linalg_in_arc
        self.stats: dict = {}  # name -> [calls, inclusive s, self s]
        self._stack: list = []  # child time accumulated by each open span
        self._undo: list = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        return span

    def _wrap_evaluate(self, fn):
        """TracePolynomial.evaluate serves float and exact callers alike."""
        as_float = self._wrap("tracepoly.evaluate_float", fn)
        as_exact = self._wrap("tracepoly.evaluate_exact", fn)

        @functools.wraps(fn)
        def split(poly, x, y, z):
            if isinstance(x, float):
                return as_float(poly, x, y, z)
            return as_exact(poly, x, y, z)

        return split

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = [m for k, m in sys.modules.items() if k == "sl2arc" or k.startswith("sl2arc.")]
        for module_name, attr, name in self.specs:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                wrapped = self._wrap_evaluate(original) if name is None else self._wrap(name, original)
                self._set(cls, meth, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        if self.linalg_in_arc:
            self._install_arc_linalg(sys.modules["sl2arc.arc"])

    def _install_arc_linalg(self, arc_module) -> None:
        """Give sl2arc.arc its own numpy whose lstsq and svd are spans, so
        that linear solves made elsewhere (sl2, pretzel) are not counted."""
        real = arc_module.np
        linalg = types.ModuleType(real.linalg.__name__)
        linalg.__dict__.update(real.linalg.__dict__)
        linalg.lstsq = self._wrap("arc.lstsq", real.linalg.lstsq)
        linalg.svd = self._wrap("arc.svd", real.linalg.svd)
        proxy = types.ModuleType(real.__name__)
        proxy.__dict__.update(real.__dict__)
        proxy.linalg = linalg
        self._set(arc_module, "np", proxy)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
