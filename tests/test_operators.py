import gc
import weakref
from collections import Counter
from fractions import Fraction

import pytest
import sympy

from conftest import coefficient_degree, doubled_x_channel, sign_flipped_q
from trilie import (
    OMEGA,
    ConstantFunctional,
    Element,
    FiniteSupportFunctional,
    FKBracket,
    L,
    M,
    PolynomialFunctional,
    op_from_ad,
    tri_bracket,
    window_basis,
)
from trilie import operators, relations
from trilie.cli import run_command
from trilie.linalg import SpanSolver
from trilie.operators import (
    GENERATORS,
    GeneratorTable,
    Operator,
    OperatorFamily,
    ad_w,
    ad_x,
    ad_y,
    decompose,
    gen_p,
    gen_q,
    gen_x,
    gen_z,
    invariant_line_structure,
    operator_rank,
    ops_equal,
)
from trilie.relations import (
    BASIS_FK,
    BASIS_OMEGA,
    SECTION3,
    SL2_LAURENT,
    TABLE_5_1,
    verify_basis_independence,
    verify_section3_structure,
    verify_sl2_laurent,
    verify_table_5_1,
    witt_action,
)
from trilie.polys import T
from trilie.report import Window

ONE = ConstantFunctional(1)


def test_ad_channels_match_actions():
    w00 = op_from_ad(OMEGA, L(0), M(0))
    assert w00.apply(L(5)) == L(5, -5)
    assert w00.apply(M(5)) == M(5, 5)
    w21 = ad_w(OMEGA, 2, 1)
    assert w21.apply(L(3)) == L(4, -1)  # (r-t) L_{t+r-s}
    assert w21.apply(M(3)) == M(2, 2)  # (t-s) M_{t+s-r}
    x = ad_x(OMEGA, 1, -1)
    assert x.apply(L(7)).is_zero()
    assert x.apply(M(2)) == L(-2, -2)  # (s-r) L_{r+s-t}
    y = ad_y(OMEGA, 1, -1)
    assert y.apply(M(7)).is_zero()
    assert y.apply(L(2)) == M(-2, -2)


def test_ad_soundness_against_bracket():
    pairs = [(L(1), M(2)), (L(0) + M(1), L(2)), (M(-1), M(3)), (L(1, 2) - M(0), L(-2) + M(2))]
    for spec in (OMEGA, FKBracket(1, ONE)):
        for u, v in pairs:
            op = op_from_ad(spec, u, v)
            for bv in window_basis(Window(-3, 3)):
                w = Element({bv: 1})
                assert op.apply(w, ONE) == tri_bracket(spec, u, v, w)


def test_fk_collapse_channel():
    spec = FKBracket(1, ONE)
    x = ad_x(spec, 2, 0)
    # M_t -> beta_t (r-s) L_{r+s+k} with a fixed target index
    assert x.apply(M(9)) == L(3, 2)
    assert x.apply(M(-4)) == L(3, 2)
    assert x.apply(L(5)).is_zero()
    w = ad_w(spec, 2, 0)
    assert w.apply(L(3)) == L(6)  # beta_0 (t-r) L_{r+t+k} = 1*(3-2) L_6
    assert w.apply(M(3)).is_zero()


def test_fk_beta_dependence():
    beta = FiniteSupportFunctional({2: Fraction(1, 2)})
    spec = FKBracket(0, beta)
    x = ad_x(spec, 1, 0)
    assert x.apply(M(2), beta) == L(1, Fraction(1, 2))
    assert x.apply(M(3), beta).is_zero()
    with pytest.raises(ValueError):
        x.apply(M(2))  # beta atoms need the functional


def test_generator_closed_forms():
    for r in range(-4, 5):
        p, q, x, z = gen_p(r), gen_q(r), gen_x(r), gen_z(r)
        for t in range(-3, 4):
            assert p.apply(L(t)) == L(t + r, Fraction(r - 2 * t, 2))
            assert p.apply(M(t)) == M(t - r, Fraction(r + 2 * t, 2))
            assert q.apply(L(t)) == L(t + r, -1)
            assert q.apply(M(t)) == M(t - r)
            assert x.apply(L(t)).is_zero()
            assert x.apply(M(t)) == L(r - t, -1)
            assert z.apply(L(t)) == M(-r - t, -1)
            assert z.apply(M(t)).is_zero()


def test_commutator_oracle_examples():
    assert gen_z(1).commutator(gen_x(2)) == gen_q(3)
    assert gen_z(1).commutator(gen_x(2)).apply(L(0)) == L(3, -1)
    for r in range(-3, 4):
        for s in range(-3, 4):
            assert gen_p(r).commutator(gen_p(s)) == gen_p(r + s).scale(r - s)
            assert gen_x(r).commutator(gen_x(s)).is_zero()
            assert gen_q(r).commutator(gen_x(s)) == gen_x(r + s).scale(-2)


def test_ad_commutator_identity_as_operators():
    # [ad(u1,u2), ad(v1,v2)] = ad([u1,u2,v1], v2) + ad(v1, [u1,u2,v2])
    for spec in (OMEGA, FKBracket(0, ONE)):
        tuples = [
            (L(1), M(2), L(0), M(0)),
            (L(1), L(-1), L(2), M(1)),
            (M(1), M(-2), L(1), L(2)),
        ]
        for u1, u2, v1, v2 in tuples:
            lhs = op_from_ad(spec, u1, u2).commutator(op_from_ad(spec, v1, v2))
            rhs = op_from_ad(spec, tri_bracket(spec, u1, u2, v1), v2) + op_from_ad(
                spec, v1, tri_bracket(spec, u1, u2, v2)
            )
            eq, _ = ops_equal(lhs, rhs, ONE, Window(-3, 3))
            assert eq


def test_derivation_property_of_ad():
    spec = OMEGA
    d = op_from_ad(spec, L(1), M(2))
    for u in (L(0), M(1)):
        for v in (L(2), M(-1)):
            for w in (M(0), L(-2)):
                lhs = d.apply(tri_bracket(spec, u, v, w))
                rhs = (
                    tri_bracket(spec, d.apply(u), v, w)
                    + tri_bracket(spec, u, d.apply(v), w)
                    + tri_bracket(spec, u, v, d.apply(w))
                )
                assert lhs == rhs


def test_degree_bound_for_omega_operators():
    for r in range(-3, 4):
        for s in range(-3, 4):
            op = ad_w(OMEGA, r, s)
            assert coefficient_degree(op) <= 1
            comm = gen_p(r).commutator(gen_q(s))
            assert coefficient_degree(comm) <= 1


def test_beta_atom_substitution_and_apply():
    op = Operator({("L", "L", 1, 0, "b", 1, 3, 0): 2})  # L[t] -> 2*beta(t+3)*L[t]
    poly_beta = PolynomialFunctional(T)
    pure = op.substitute(poly_beta)
    assert not pure.has_beta()
    assert pure.apply(L(4)) == L(4, 14)  # 2 * (4+3)
    assert op.apply(L(4), poly_beta) == L(4, 14)
    fs = FiniteSupportFunctional({7: 5})
    assert op.apply(L(4), fs) == L(4, 10)
    assert op.apply(L(5), fs).is_zero()


def test_two_beta_atoms_do_not_compose():
    collapse = Operator({("M", "L", 0, 1, "b", 1, 0, 0): 1})  # M[t] -> beta(t)*L[1]
    reflect = Operator({("L", "M", -1, 0, "b", -1, 2, 1): 1})  # L[t] -> t*beta(2-t)*M[-t]
    with pytest.raises(ArithmeticError, match="two beta-weighted atoms"):
        collapse.compose(reflect)


def test_operator_equality_window_decided():
    beta = FiniteSupportFunctional({0: 1})
    # structurally different weights that agree wherever beta is nonzero
    a = Operator({("M", "L", 0, 1, "b", 1, 0, 0): 1})  # beta(t)
    b = Operator({("M", "L", 0, 1, "b", 1, 0, 0): 1, ("M", "L", 0, 1, "b", 1, 0, 1): 1})  # (1 + t)*beta(t)
    assert a != b
    eq, mode = ops_equal(a, b, beta, Window(-3, 3))
    assert mode == "window-decided"
    assert eq
    spec = FKBracket(0, beta)
    neq, mode = ops_equal(ad_x(spec, 2, 0), ad_x(spec, 1, 0).scale(2), beta, Window(-3, 3))
    assert mode == "window-decided" and not neq  # different collapse targets


def test_operator_rendering():
    f = FiniteSupportFunctional({0: 1, 2: Fraction(-1, 3)})
    mixed = Operator({
        ("M", "L", 0, 1, "p", 0, 0, 0): 1,
        ("M", "L", 0, 1, "p", 0, 0, 1): 2,
        ("M", "L", 0, 1, "b", 0, -3, 1): -1,
        ("M", "L", 0, 1, "b", -1, 2, 0): Fraction(1, 2),
    })
    rendered = [
        (gen_q(2), "L[t] -> (-1)*L[t+2]; M[t] -> (1)*M[t-2]"),
        (gen_x(-3), "M[t] -> (-1)*L[-3-t]"),
        (gen_z(0), "L[t] -> (-1)*M[-t]"),
        (op_from_ad(FKBracket(1, f), L(2), L(-1)), "M[t] -> ((3)*beta(t))*L[2]"),
        (op_from_ad(FKBracket(1, f), L(2), M(0)), "L[t] -> (t - 2)*L[t+3]"),
        (mixed, "M[t] -> (2*t + 1 + (1/2)*beta(-t+2) + (-t)*beta(-3))*L[1]"),
        (Operator.zero(), "0"),
    ]
    for op, text in rendered:
        assert str(op) == text


def test_decompose():
    target = gen_p(2).scale(3) - gen_q(2)
    basis = [(("p", 2), gen_p(2)), (("q", 2), gen_q(2)), (("x", 2), gen_x(2))]
    combo = decompose(target, basis)
    assert combo == {("p", 2): 3, ("q", 2): -1}
    assert decompose(gen_z(1), basis) is None


# three channels of one coordinate each, so a family reads like plain vectors
X, Y, Z = (
    Operator({key: 1})
    for key in (
        ("L", "L", 1, 0, "p", 0, 0, 0),
        ("L", "L", 1, 2, "p", 0, 0, 0),
        ("M", "L", 0, 1, "p", 0, 0, 0),
    )
)


def test_decompose_reads_the_label_coordinates():
    family = OperatorFamily([("u", X + Y), ("v", Y + Z)])
    assert family.decompose(X.scale(2) + Y.scale(3) + Z) == {"u": 2, "v": 1}
    assert family.decompose(Operator.zero()) == {}
    outside = Operator({("M", "M", 1, 5, "p", 0, 0, 0): 1})
    assert family.decompose(outside) is None
    assert family.decompose(X + Y + outside) is None  # an in-span part does not hide the rest


def test_a_dependent_operator_never_gets_a_label():
    assert OperatorFamily([("u", X + Y)]).decompose(X.scale(2) + Y.scale(2)) == {"u": 2}
    family = OperatorFamily([("u", X + Y), ("v", Y), ("w", X + Y.scale(5)), ("u2", X + Y)])
    assert family.decompose(X + Y.scale(3)) == {"u": 1, "v": 2}
    assert family.decompose(Y) == {"v": 1}
    assert family.decompose(X + Y.scale(5)) == {"u": 1, "v": 4}


def test_decompose_is_exact_with_fractions():
    family = OperatorFamily([("g", X.scale(Fraction(1, 3)) + Y.scale(Fraction(2, 7)))])
    combo = family.decompose(X.scale(Fraction(2, 3)) + Y.scale(Fraction(4, 7)))
    assert combo == {"g": 2} and type(combo["g"]) is int
    combo = family.decompose(X.scale(Fraction(1, 2)) + Y.scale(Fraction(3, 7)))
    assert combo == {"g": Fraction(3, 2)}


def test_operator_rank_structural():
    rank, mode = operator_rank([gen_p(0), gen_q(0), gen_p(0) + gen_q(0)])
    assert (rank, mode) == (2, "structural")


@pytest.mark.parametrize("window, rank", [(Window(-3, 3), 2), (Window(3, 6), 1)])
def test_operator_rank_window_decided_matches_sympy(window, rank):
    # A = ad(L[2], L[0]) reads beta(t), B = ad(L[0], M[0]) does not, and
    # ad(L[2] + M[0], L[0]) = A - B; beta's support {0, 2} lies outside 3..6,
    # so A vanishes on that window and only B's line is left
    beta = FiniteSupportFunctional({0: 1, 2: Fraction(-1, 3)})
    spec = FKBracket(1, beta)
    pairs = [(L(2), L(0)), (L(0), M(0)), (L(2) + M(0), L(0))]
    ops = [op_from_ad(spec, u, v) for u, v in pairs]
    assert [op.has_beta() for op in ops] == [True, False, True]
    images = [
        {(bv, out): c for bv in window_basis(window) for out, c in tri_bracket(spec, u, v, Element({bv: 1})).terms.items()}
        for u, v in pairs
    ]
    columns = list(dict.fromkeys(key for image in images for key in image))
    matrix = sympy.Matrix([[sympy.Rational(str(image.get(key, 0))) for key in columns] for image in images])
    assert matrix.rank() == rank
    assert operator_rank(ops, beta, window) == (rank, "window-decided")


def test_invariant_line_structure():
    labels = [0, 1, 2]
    eigen = {0: 0, 1: -1, 2: -2}
    edges = {0: set(), 1: {2}, 2: {1}}
    res = invariant_line_structure(labels, eigen, edges)
    assert res["distinct_eigenvalues"]
    assert not res["irreducible"]
    assert frozenset({0}) in res["minimal_proper"]


def test_table_5_1():
    rep = verify_table_5_1(5)
    assert rep.status == "pass"
    assert rep.stats["corrections"] == 0
    assert rep.stats["pairs_checked"] == 10 * 11 * 11


def test_sl2_laurent():
    rep = verify_sl2_laurent(4)
    assert rep.ok
    assert rep.status == "flagged"  # printed sign slip on the (q, x) line
    assert not rep.counterexamples


def test_basis_independence_omega():
    rep = verify_basis_independence("omega", Window(-4, 4))
    assert rep.status == "pass"
    assert rep.stats["rank"] == 36 == rep.stats["family_size"]


def test_basis_independence_fk():
    rep = verify_basis_independence("fk", Window(-3, 3), ONE, k=1, s0=0)
    assert rep.ok
    assert rep.stats["rank"] == rep.stats["family_size"] == 14
    assert rep.status == "flagged"  # printed X(r,-r) scaling corrected
    with pytest.raises(ValueError):
        verify_basis_independence("fk", Window(-3, 3), PolynomialFunctional(T), k=1, s0=0)


def test_section3_structure():
    for k in (0, 1):
        rep = verify_section3_structure(k, ONE, 0, Window(-3, 3))
        assert rep.ok, rep.counterexamples
        assert rep.stats["invariant_subspaces"] == "none proper (window-exact)"
    rep = verify_section3_structure(1, FiniteSupportFunctional({2: 3}), 2, Window(-3, 3))
    assert rep.ok, rep.counterexamples
    with pytest.raises(ValueError):
        verify_section3_structure(0, FiniteSupportFunctional({2: 3}), 0, Window(-3, 3))


def test_generator_table_reads_through_the_dict(monkeypatch):
    gens = GeneratorTable()
    assert gens("q", 2) is gens("q", 2) == gen_q(2)
    assert gens.family("pq", 2) is gens.family("pq", 2)
    assert gens.family("pq", 2).decompose(gen_q(2)) == {("q", 2): 1}
    monkeypatch.setitem(GENERATORS, "q", gen_p)
    assert GeneratorTable()("q", 2) == gen_p(2)


def test_table_and_sl2_fail_under_a_sign_flipped_q(monkeypatch):
    monkeypatch.setitem(GENERATORS, "q", sign_flipped_q)
    rep = verify_table_5_1(2)
    assert rep.status == "fail"
    assert "row_qq" not in rep.stats and rep.stats["corrections"] > 0
    assert verify_sl2_laurent(2).status == "fail"


def test_table_5_1_degree_check_fails_under_a_raised_p(monkeypatch):
    def raised_p(r):  # every channel's coefficient degree raised by one
        return Operator({key[:7] + (key[7] + 1,): c for key, c in gen_p(r).terms.items()})

    monkeypatch.setitem(GENERATORS, "p", raised_p)
    text = "[p_-2, p_-1] has coefficient degree > 1 after cancellation"
    rep = verify_table_5_1(2)
    assert rep.status == "fail" and text in rep.counterexamples
    code, out = run_command(["verify", "table-5-1", "--window=-2..2"])
    assert code == 1 and f"counterexample: {text}\n" in out


def test_section3_fails_under_a_broken_ad_x(monkeypatch):
    monkeypatch.setattr(relations, "ad_x", doubled_x_channel(relations.ad_x))
    rep = verify_section3_structure(0, ONE, 0, Window(-3, 3))
    assert rep.status == "fail"


def test_section3_builds_one_x_family_per_call(monkeypatch):
    solvers, refs = [], []
    add = SpanSolver.add

    def counting(self, vec):
        if not hasattr(self, "serial"):
            self.serial = len(refs)
            refs.append(weakref.ref(self))
        solvers.append(self.serial)
        return add(self, vec)

    monkeypatch.setattr(SpanSolver, "add", counting)
    window, k = Window(-3, 3), 0
    n_extended = max(2 * window.hi + k, window.hi) - min(2 * window.lo + k, window.lo) + 1
    for call in (1, 2):
        assert verify_section3_structure(k, ONE, 0, window).ok
        gc.collect()
        # one add per X-family member, all into one solver of this call,
        # and no solver outlives its call
        assert solvers == [0] * n_extended + [1] * n_extended * (call - 1)
        assert all(ref() is None for ref in refs)


@pytest.mark.parametrize(
    "args, built",
    [
        (("omega", Window(-3, 3)), 193),
        (("fk", Window(-3, 3), FiniteSupportFunctional({0: 1, 2: Fraction(-1, 3)}), 1), 115),
    ],
    ids=["omega", "fk"],
)
def test_basis_independence_builds_shared_operators_once(monkeypatch, args, built):
    calls = []
    build = operators.op_from_ad

    def counting(spec, u, v):
        calls.append((spec, u, v))
        return build(spec, u, v)

    monkeypatch.setattr(operators, "op_from_ad", counting)
    assert verify_basis_independence(*args).ok
    # a shared operator may also turn up once as a left-hand side
    assert len(calls) == built
    assert max(Counter(calls).values()) == 2


def _always(r, s, k):
    return True


# each relation group with the pairs (r, s, k) its check covers; a domain
# that fixes an index (r = 0 or s = -k) is written into the strata as well
VISITED = [
    *((group, _always) for group in TABLE_5_1 + SL2_LAURENT + SECTION3[:2]),
    (SECTION3[2], lambda r, s, k: r != 0),
    (SECTION3[3], lambda r, s, k: r == 0),
    (SECTION3[4], lambda r, s, k: s == -k),
    (BASIS_OMEGA[0], _always),
    *((group, lambda r, s, k: s != -r or r != 0) for group in BASIS_OMEGA[1:] + BASIS_FK[:1]),
    (BASIS_FK[1], _always),
    *((witt_action(fam)[0], _always) for fam in "qxz"),
    *((witt_action(fam)[1], lambda r, s, k: r == 0) for fam in "qxz"),
]


@pytest.mark.parametrize(
    "group, visited", VISITED, ids=[f"{i}-{'-'.join(group.lhs)}" for i, (group, _) in enumerate(VISITED)]
)
def test_relation_strata_are_disjoint_and_cover_the_visited_pairs(group, visited):
    grid = range(-6, 7)
    for r in grid:
        for s in grid:
            for k in grid:
                hits = [case for case in group.cases if case.holds(r, s, k)]
                assert len(hits) <= 1, (group.lhs, r, s, k, hits)
                assert bool(hits) == visited(r, s, k), (group.lhs, r, s, k)
