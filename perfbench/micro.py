"""Per-layer micro-benchmarks, named after the rows of the ROADMAP baseline
table (166 ns, 332 ns, 2,943 ns, 39 us, 53 us, 81 us, 4.0 ms, 209 us at
the re-anchor).  Inputs are fixed, not drawn from the workload seed, so
the numbers compare across runs and commits.  Each figure is the median
of five timed repeats, per operation.
"""

from __future__ import annotations

import random
import statistics
import timeit
from fractions import Fraction

REPEATS = 5
ELEMENT_TRIPLES = 50


def _per_op(fn, ops_per_call: int, number: int) -> float:
    """Median seconds per operation of `fn()`, which performs `ops_per_call` operations."""
    totals = timeit.Timer(fn).repeat(REPEATS, number)
    return statistics.median(totals) / (number * ops_per_call)


def micro_metrics() -> dict:
    """{name: (value, unit)} for the eight micro-benchmarks."""
    from trilie.brackets import OMEGA, fk_triple_fn, omega_triple, random_element, tri_bracket
    from trilie.elements import ConstantFunctional, window_basis
    from trilie.linalg import SpanSolver
    from trilie.nambu import OmegaRealization, nambu_bracket, realize
    from trilie.operators import GENERATORS, decompose
    from trilie.report import Window

    basis = [(bv.family, bv.index) for bv in window_basis(Window(-3, 3))]
    triples = [(a, b, c) for a in basis for b in basis for c in basis]

    def sweep(kernel):
        def run():
            for a, b, c in triples:
                kernel(a, b, c)

        return run

    fk_int = fk_triple_fn(1, ConstantFunctional(1))
    fk_frac = fk_triple_fn(1, ConstantFunctional(Fraction(1, 2)))

    # element triples of up to 4 terms with rational coefficients, as the
    # sampled fundamental-identity tuples use
    rng = random.Random(0)
    elements = [
        tuple(random_element(rng, Window(-3, 3)) for _ in range(3)) for _ in range(ELEMENT_TRIPLES)
    ]
    rmap = OmegaRealization()
    images = [tuple(realize(rmap, e) for e in triple) for triple in elements]

    p2, x_3 = GENERATORS["p"](2), GENERATORS["x"](-3)
    comm = p2.commutator(x_3)
    labelled = [((tag, -1), GENERATORS[tag](-1)) for tag in "pqxz"]

    # 26 random elements of the -6..6 window, which has 26 basis vectors
    vectors = [random_element(rng, Window(-6, 6)).terms for _ in range(26)]

    def span_26():
        solver = SpanSolver()
        for vec in vectors:
            solver.add(vec)

    def brackets():
        for triple in elements:
            tri_bracket(OMEGA, *triple)

    def nambu():
        for triple in images:
            nambu_bracket(*triple)

    return {
        "brackets.omega_triple_ns": (_per_op(sweep(omega_triple), len(triples), 20) * 1e9, "ns"),
        "brackets.fk_triple_int_ns": (_per_op(sweep(fk_int), len(triples), 20) * 1e9, "ns"),
        "brackets.fk_triple_fraction_ns": (_per_op(sweep(fk_frac), len(triples), 4) * 1e9, "ns"),
        "brackets.tri_bracket_4term_us": (
            _per_op(brackets, ELEMENT_TRIPLES, 8) * 1e6,
            "us",
        ),
        "operators.commutator_us": (_per_op(lambda: p2.commutator(x_3), 1, 400) * 1e6, "us"),
        "operators.decompose_us": (_per_op(lambda: decompose(comm, labelled), 1, 200) * 1e6, "us"),
        "linalg.span_solver_26_ms": (_per_op(span_26, 1, 10) * 1e3, "ms"),
        "nambu.nambu_bracket_us": (_per_op(nambu, ELEMENT_TRIPLES, 2) * 1e6, "us"),
    }
