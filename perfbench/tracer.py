"""Per-layer tracing of `trilie` from outside the program.

The tracer swaps chosen module functions, class methods and the kernels
returned by `brackets.closed_triple_fn` for timing wrappers, rebinding
every `from .x import y` copy of a function in the other `trilie`
modules too.  No file of the program changes, and `remove()` restores
every attribute it replaced.

Calls are not kept as one span each: the hot kernels run millions of
times per pass.  Each (trace point, calling trace point) pair is
aggregated in memory into call count, total time and self time, self time
being the total minus the time spent in traced callees.  A trace point is
named `<layer>.<operation>`, the layer being the module.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from fractions import Fraction

ROOT = "-"

CHECK_NAMES = (
    "anticommutativity",
    "basis-independence",
    "center",
    "constructor-agreement",
    "derived-series",
    "fundamental-identity",
    "ideal-closure",
    "ideal-kinds",
    "module-axioms",
    "nambu-realization",
    "natural-module",
    "section3-structure",
    "sl2-laurent",
    "structure-maps",
    "table-5-1",
    "vandermonde",
    "weight-decomposition",
    "witt-module",
)


def _get(owner, name):
    return owner[name] if isinstance(owner, dict) else getattr(owner, name)


def _assign(owner, name, value):
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


class Tracer:
    def __init__(self):
        self.rows = {}            # (point, caller point) -> [calls, total_ns, self_ns]
        self.tally = Counter()    # outcome counts observed at trace points
        self._stack = [[ROOT, 0]] # active points: [name, ns spent in traced callees]
        self._undo = []

    # -- wrapping -----------------------------------------------------

    def timed(self, point, fn, observe=None):
        """A wrapper of fn that aggregates its time under `point`;
        `observe(args, result)` runs after each call, outside the timing."""
        stack, rows, clock = self._stack, self.rows, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [point, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                caller = stack[-1]
                caller[1] += elapsed
                row = rows.get((point, caller[0]))
                if row is None:
                    row = rows[(point, caller[0])] = [0, 0, 0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def replace(self, owner, name, value):
        """Set owner.name (or owner[name] for a dict) until `remove()`."""
        self._undo.append((owner, name, _get(owner, name)))
        _assign(owner, name, value)

    def patch_function(self, module, attr, point, observe=None):
        """Trace a module function everywhere a `trilie` module binds it."""
        self.replace_function(getattr(module, attr), self.timed(point, getattr(module, attr), observe))

    def replace_function(self, original, replacement):
        for name, mod in list(sys.modules.items()):
            if name == "trilie" or name.startswith("trilie."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.replace(mod, attr, replacement)

    def patch_method(self, cls, attr, point, observe=None):
        self.replace(cls, attr, self.timed(point, cls.__dict__[attr], observe))

    def remove(self):
        while self._undo:
            _assign(*self._undo.pop())

    # -- reading ------------------------------------------------------

    def _sum(self, point, column):
        return sum(row[column] for (p, _), row in self.rows.items() if p == point)

    def calls(self, point) -> int:
        return self._sum(point, 0)

    def total_s(self, point) -> float:
        return self._sum(point, 1) / 1e9

    def self_s(self, point) -> float:
        return self._sum(point, 2) / 1e9

    def table(self) -> list:
        """The aggregated rows, most self time first."""
        out = [
            {
                "layer": point.split(".")[0],
                "point": point,
                "parent": parent,
                "calls": row[0],
                "total_s": row[1] / 1e9,
                "self_s": row[2] / 1e9,
            }
            for (point, parent), row in self.rows.items()
        ]
        return sorted(out, key=lambda r: -r["self_s"])


def install(tracer: Tracer) -> None:
    """Wrap every trace point the per-layer metrics read."""
    from trilie import analysis, brackets, cli, elements, linalg, nambu, operators, polys, report

    tally = tracer.tally

    for name, check in list(cli.CHECKS.items()):
        tracer.replace(cli.CHECKS, name, tracer.timed(f"cli.check.{name}", check))
    tracer.patch_function(cli, "emit", "cli.emit")
    tracer.patch_function(cli, "make_config", "cli.make_config")
    tracer.patch_method(report.VerdictReport, "record_failure", "report.record_failure")

    def kernel_outcome(args, res):
        if res is not None:
            tally["basis_triple.nonzero"] += 1
            if isinstance(res[0], Fraction):
                tally["basis_triple.fraction"] += 1

    closed = brackets.closed_triple_fn

    def closed_triple_fn(spec):
        kernel = closed(spec)
        if kernel is None:
            return None
        return tracer.timed("brackets.basis_triple", kernel, kernel_outcome)

    tracer.replace_function(closed, closed_triple_fn)
    tracer.patch_function(brackets, "tri_bracket", "brackets.tri_bracket")

    tracer.patch_function(polys, "normalize_rational", "polys.normalize_rational")
    for attr, value in list(vars(polys.Poly).items()):
        if inspect.isfunction(value):
            tracer.patch_method(polys.Poly, attr, "polys.Poly")

    tracer.patch_method(elements.Element, "__mul__", "elements.product")
    for attr in ("d_k", "delta", "omega"):
        tracer.patch_function(elements, attr, "elements.structure_maps")

    def ops_equal_mode(args, res):
        tally["ops_equal.window_decided"] += res[1] == "window-decided"

    def rank_gain(args, res):
        tally["span_solver_add.rank_gain"] += bool(res)

    def unknowns(args, res):
        tally["null_space.unknowns"] += len(args[1])

    tracer.patch_function(operators, "op_from_ad", "operators.op_from_ad")
    tracer.patch_method(operators.Operator, "commutator", "operators.commutator")
    tracer.patch_function(operators, "decompose", "operators.decompose")
    tracer.patch_function(operators, "ops_equal", "operators.ops_equal", ops_equal_mode)
    tracer.patch_method(linalg.SpanSolver, "add", "linalg.span_solver_add", rank_gain)
    tracer.patch_function(linalg, "null_space", "linalg.null_space", unknowns)
    tracer.patch_function(nambu, "nambu_bracket", "nambu.nambu_bracket")
    tracer.patch_function(nambu, "realize", "nambu.realize")
    for attr in (
        "span_close",
        "module_axiom_check",
        "weight_decompose",
        "cartan_normalizer_check",
        "ideal_check",
    ):
        tracer.patch_function(analysis, attr, f"analysis.{attr}")


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    t, tally = tracer, tracer.tally
    triples = t.calls("brackets.basis_triple")
    nonzero = tally["basis_triple.nonzero"]
    out = {f"cli.check.{name}.wall_s": (t.total_s(f"cli.check.{name}"), "s") for name in CHECK_NAMES}
    out.update(
        {
            "cli.emit.self_s": (t.self_s("cli.emit"), "s"),
            "cli.make_config.self_s": (t.self_s("cli.make_config"), "s"),
            "report.failures_total": (t.calls("report.record_failure"), "count"),
            "brackets.basis_triple.calls": (triples, "count"),
            "brackets.basis_triple.self_s": (t.self_s("brackets.basis_triple"), "s"),
            "brackets.basis_triple.nonzero_ratio": (_ratio(nonzero, triples), "ratio"),
            "brackets.tri_bracket.calls": (t.calls("brackets.tri_bracket"), "count"),
            "brackets.tri_bracket.self_s": (t.self_s("brackets.tri_bracket"), "s"),
            "polys.fraction_coeff_ratio": (_ratio(tally["basis_triple.fraction"], nonzero), "ratio"),
            "polys.normalize_rational.calls": (t.calls("polys.normalize_rational"), "count"),
            "polys.Poly.self_s": (t.self_s("polys.Poly"), "s"),
            "elements.product.calls": (t.calls("elements.product"), "count"),
            "elements.product.self_s": (t.self_s("elements.product"), "s"),
            "elements.structure_maps.self_s": (t.self_s("elements.structure_maps"), "s"),
            "operators.op_from_ad.calls": (t.calls("operators.op_from_ad"), "count"),
            "operators.op_from_ad.self_s": (t.self_s("operators.op_from_ad"), "s"),
            "operators.commutator.calls": (t.calls("operators.commutator"), "count"),
            "operators.commutator.self_s": (t.self_s("operators.commutator"), "s"),
            "operators.decompose.calls": (t.calls("operators.decompose"), "count"),
            "operators.decompose.self_s": (t.self_s("operators.decompose"), "s"),
            "operators.ops_equal.calls": (t.calls("operators.ops_equal"), "count"),
            "operators.ops_equal.window_decided_ratio": (
                _ratio(tally["ops_equal.window_decided"], t.calls("operators.ops_equal")),
                "ratio",
            ),
            "linalg.span_solver_add.calls": (t.calls("linalg.span_solver_add"), "count"),
            "linalg.span_solver_add.self_s": (t.self_s("linalg.span_solver_add"), "s"),
            "linalg.span_solver_add.rank_gain_ratio": (
                _ratio(tally["span_solver_add.rank_gain"], t.calls("linalg.span_solver_add")),
                "ratio",
            ),
            "linalg.null_space.calls": (t.calls("linalg.null_space"), "count"),
            "linalg.null_space.self_s": (t.self_s("linalg.null_space"), "s"),
            "linalg.null_space.unknowns": (tally["null_space.unknowns"], "count"),
            "nambu.nambu_bracket.calls": (t.calls("nambu.nambu_bracket"), "count"),
            "nambu.nambu_bracket.self_s": (t.self_s("nambu.nambu_bracket"), "s"),
            "nambu.realize.self_s": (t.self_s("nambu.realize"), "s"),
            "analysis.span_close.calls": (t.calls("analysis.span_close"), "count"),
            "analysis.span_close.self_s": (t.self_s("analysis.span_close"), "s"),
        }
    )
    for attr in ("module_axiom_check", "weight_decompose", "cartan_normalizer_check", "ideal_check"):
        out[f"analysis.{attr}.self_s"] = (t.self_s(f"analysis.{attr}"), "s")
    return out
