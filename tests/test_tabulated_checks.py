"""The tabulated realization, constructor-agreement, weight and Cartan
normalizer checks against the per-triple oracles in ``oracles.py``: the
whole report (status, stats, notes, flags, counterexample text and order)
must be the same, with the product rows intact and under the broken rows
of ``test_product_rows``.  Reports here keep every counterexample, so each
failing triple counts."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import pytest

import oracles
from conftest import ROW_MUTATIONS
from trilie import OMEGA, BasisVector, Element, FKBracket, FKRealization, L, M, OmegaRealization, SymFunction, analysis, brackets, nambu, parse_beta
from trilie.analysis import cartan_normalizer_check, fk_cartan_pairs, omega_cartan_pairs, weight_decompose
from trilie.cli import main
from trilie.brackets import PERMUTATIONS, _antisymmetric, _representatives, check_constructor_agreement
from trilie.nambu import check_realization
from trilie.report import VerdictReport, Window

WINDOW = Window(-3, 3)
WEIGHTS = ("const:1", "const:1/2", "support:0=1,2=-1/3", "poly:t^2+1")
KS = (-2, 0, 1)
BROKEN_ROWS = {
    "intact": None,
    # [L_r, M_s, M_t] = (s - t) M_{s+t-r}
    "negated omega lmm row": ("omega", 1, {"coef": (0, 1, -1)}),
    # [L_r, L_s, M_t] = beta_t (2r - s) L_{r+s+k}
    "shifted fk coefficient": ("fk", 0, {"coef": (2, -1, 0)}),
    # [L_r, L_s, M_t] = (s - 2r) L_{r+s-t}, nonzero where the Jacobian is zero
    "shifted omega llm coefficient": ("omega", 0, {"coef": (-2, 1, 0)}),
}


def _assert_same(got, want):
    assert got.to_dict() == want.to_dict()


@pytest.fixture(params=sorted(BROKEN_ROWS))
def rows(request, patch_row, monkeypatch):
    monkeypatch.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**6)
    broken = BROKEN_ROWS[request.param]
    if broken is not None:
        bracket, i, fields = broken
        patch_row(bracket, i, **fields)
    return request.param


def test_omega_realization_matches_the_oracle(rows):
    rmap = OmegaRealization()
    _assert_same(check_realization(rmap, WINDOW), oracles.check_realization(rmap, WINDOW))


@pytest.mark.parametrize("weight", WEIGHTS)
def test_fk_realization_matches_the_oracle(rows, weight):
    f = parse_beta(weight)
    for k in KS:
        rmap = FKRealization(k, f)
        _assert_same(check_realization(rmap, WINDOW), oracles.check_realization(rmap, WINDOW))


@pytest.mark.parametrize("weight", WEIGHTS)
def test_constructor_agreement_matches_the_oracle(rows, weight):
    f = parse_beta(weight)
    for k in KS:
        _assert_same(
            check_constructor_agreement(WINDOW, k, f),
            oracles.check_constructor_agreement(WINDOW, k, f),
        )


@dataclass(frozen=True)
class TwoTermImage(OmegaRealization):
    """The omega realization, except that L[2] maps to z*exp(2*x) + y."""

    def image(self, bv):
        img = super().image(bv)
        return img + SymFunction.term(1, 1) if bv == BasisVector("L", 2) else img


def test_a_two_term_output_image_fails_the_realization():
    """L[2] lies outside -1..1, so its image is read only as the image of a
    bracket's output; the Jacobian side is one monomial there, and the
    image's one matching term must not be enough."""
    window = Window(-1, 1)
    rep = check_realization(TwoTermImage(), window)
    assert rep.status == "fail"
    assert len(rep.counterexamples) == 6
    assert all(text.endswith(("z*exp(2*x) + y", "-z*exp(2*x) - y")) for text in rep.counterexamples)
    _assert_same(rep, oracles.check_realization(TwoTermImage(), window))


def test_broken_rows_fail_with_counterexamples(rows):
    """The parity above compares failing reports too, not only passing ones."""
    f = parse_beta("const:1/2")
    reports = [
        check_realization(OmegaRealization(), WINDOW),
        check_realization(FKRealization(1, f), WINDOW),
        check_constructor_agreement(WINDOW, 1, f),
    ]
    statuses = [rep.status for rep in reports]
    if rows == "intact":
        assert statuses == ["pass", "flagged", "pass"]
    else:
        assert "fail" in statuses
        assert all(rep.counterexamples for rep in reports if rep.status == "fail")


def test_passing_checks_call_no_per_triple_route(monkeypatch):
    """The tables decide every triple; nambu_bracket, tri_bracket and
    _kernel_element only write counterexample text, so a passing check
    calls none of them, and constructor agreement multiplies Elements per
    basis pair (the Lie table and the cofactors), not per triple."""
    def refuse(*args):
        raise AssertionError("a passing check took the per-triple route")

    products = []
    product = Element.__mul__

    def counted(self, other):
        products.append(None)
        return product(self, other)

    monkeypatch.setattr(nambu, "nambu_bracket", refuse)
    monkeypatch.setattr(brackets, "tri_bracket", refuse)
    monkeypatch.setattr(brackets, "_kernel_element", refuse)
    monkeypatch.setattr(Element, "__mul__", counted)
    n = 2 * len(WINDOW.indices())
    for weight in WEIGHTS:
        f = parse_beta(weight)
        for k in KS:
            assert check_realization(FKRealization(k, f), WINDOW).status == "flagged"
            products.clear()
            assert check_constructor_agreement(WINDOW, k, f).status == "pass"
            assert 0 < len(products) < n**3
        for spec, in_cartan, gens, name in list(_cartans(f))[:3]:
            assert cartan_normalizer_check(spec, WINDOW, in_cartan, gens, name).status == "pass"
    assert check_realization(OmegaRealization(), WINDOW).status == "pass"


def half_swap_omega(u):
    """omega plus half the identity: L[r] -> M[-r] + 1/2*L[r]."""
    swap = {"L": "M", "M": "L"}
    return Element({BasisVector(swap[bv.family], -bv.index): c for bv, c in u.terms.items()}) + u.scale(
        Fraction(1, 2)
    )


def third_m_delta(u):
    """delta plus a third of M[r] for each term at index r."""
    return Element({bv: c * bv.index for bv, c in u.terms.items()}) + Element(
        {BasisVector("M", bv.index): Fraction(c, 3) for bv, c in u.terms.items()}
    )


def half_d_k(k, u):
    """d_k at half the coefficient: L[r] -> 1/2*r*L[k+r]."""
    return Element({BasisVector("L", k + r): Fraction(r, 2) * c for (fam, r), c in u.terms.items() if fam == "L"})


FRACTIONAL_MAPS = {
    "omega and delta": {"omega": half_swap_omega, "delta": third_m_delta},
    "d_k": {"d_k": half_d_k},
}


@pytest.mark.parametrize("maps", sorted(FRACTIONAL_MAPS))
@pytest.mark.parametrize("weight", ("const:1/2", "poly:t^2+1"))
def test_constructor_agreement_matches_the_oracle_under_fractional_maps(monkeypatch, maps, weight):
    """Multi-term rows and Lie pairs with denominators: the scaled tables
    must divide back to the oracle's routes, failure text and order."""
    monkeypatch.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**6)
    for name, fn in FRACTIONAL_MAPS[maps].items():
        monkeypatch.setattr(brackets, name, fn)
    f = parse_beta(weight)
    for k in (0, 1):
        rep = check_constructor_agreement(WINDOW, k, f)
        assert rep.status == "fail"
        _assert_same(rep, oracles.check_constructor_agreement(WINDOW, k, f))


def _cartans(f):
    """(spec, in_cartan, generators, name) of the battery's cartans, with
    one L vector wrongly admitted and, under fk, with M[0] wrongly left out."""
    stray = BasisVector("L", 1)
    yield OMEGA, lambda bv: bv.index == 0, [L(0), M(0)], "L[0], M[0]"
    yield OMEGA, lambda bv: bv.index == 0 or bv == stray, [L(0), M(0)], "L[0], M[0] and L[1]"
    for k in KS:
        gens = [L(-k)] + [M(t) for t in WINDOW.indices()]
        lk = BasisVector("L", -k)
        yield FKBracket(k, f), lambda bv: bv.family == "M" or bv == lk, gens, "M family"
        yield FKBracket(k, f), lambda bv: bv.family == "M" or bv in (lk, stray), gens, "M family and L[1]"
        yield FKBracket(k, f), lambda bv: (bv.family == "M" and bv.index != 0) or bv == lk, gens, "M family but M[0]"


@pytest.mark.parametrize("weight", WEIGHTS)
def test_cartan_normalizer_matches_the_oracle(rows, weight):
    statuses = []
    for spec, in_cartan, gens, name in _cartans(parse_beta(weight)):
        rep = cartan_normalizer_check(spec, WINDOW, in_cartan, gens, name)
        _assert_same(rep, oracles.cartan_normalizer_check(spec, WINDOW, in_cartan, gens, name))
        statuses.append(rep.status)
    if rows == "intact":
        # a stray L vector changes nothing on this window; a missing M[0] is an offender
        assert statuses == ["pass", "pass"] + ["pass", "pass", "fail"] * len(KS)


def _normalizer_equations(monkeypatch, module, *args):
    """The (equations, unknowns) that module.cartan_normalizer_check hands to null_space."""
    calls = []
    solve = module.null_space

    def recording(equations, unknowns):
        calls.append((equations, list(unknowns)))
        return solve(equations, unknowns)

    with monkeypatch.context() as m:
        m.setattr(module, "null_space", recording)
        module.cartan_normalizer_check(*args)
    return calls


@pytest.mark.parametrize("weight", WEIGHTS)
def test_cartan_normalizer_equations_match_the_oracle(rows, weight, monkeypatch):
    """The report holds the null-space dimension and at most four offenders,
    which equations read off the wrong table entries can leave unchanged on
    this window; the equation rows themselves must be the oracle's."""
    rows_seen = 0
    for spec, in_cartan, gens, name in _cartans(parse_beta(weight)):
        args = (spec, WINDOW, in_cartan, gens, name)
        got = _normalizer_equations(monkeypatch, analysis, *args)
        assert got == _normalizer_equations(monkeypatch, oracles, *args)
        rows_seen += sum(len(equations) for equations, _ in got)
    assert rows_seen


# the weight test's non-commuting pairs, a non-diagonal pair and scaled entries
EXTRA_PAIRS = (
    [(L(0), M(0)), (L(1), M(1)), (L(0), M(0))],
    [(L(1), M(0)), (L(0), M(1))],
    [(L(0, Fraction(1, 2)), M(-1, 3)), (M(2, -2), L(1))],
)


def _assert_same_weights(spec, pairs):
    deco, rep = weight_decompose(spec, pairs, WINDOW)
    want_deco, want_rep = oracles.weight_decompose(spec, pairs, WINDOW)
    assert deco.spaces == want_deco.spaces
    assert deco == want_deco
    _assert_same(rep, want_rep)
    return rep


@pytest.mark.parametrize("weight", WEIGHTS)
def test_weight_decomposition_matches_the_oracle(rows, weight):
    f = parse_beta(weight)
    statuses = [_assert_same_weights(OMEGA, pairs).status for pairs in (omega_cartan_pairs(), *EXTRA_PAIRS)]
    for k in KS:
        spec = FKBracket(k, f)
        statuses += [_assert_same_weights(spec, pairs).status for pairs in (fk_cartan_pairs(WINDOW, k), *EXTRA_PAIRS)]
    if rows == "intact":
        assert statuses[:2] == ["pass", "fail"] and "fail" in statuses[4:]


def test_multi_term_cartan_entries_are_refused():
    two = L(0) + M(0)
    for spec in (OMEGA, FKBracket(1, parse_beta("const:1/2"))):
        for pairs in ([(two, M(0))], [(L(0), two)], [(L(0), M(0)), (Element(), M(0))]):
            with pytest.raises(ValueError, match="one basis vector times a coefficient"):
                weight_decompose(spec, pairs, WINDOW)
        with pytest.raises(ValueError, match="one basis vector times a coefficient"):
            cartan_normalizer_check(spec, WINDOW, lambda bv: bv.index == 0, [L(0), two], "L[0], L[0] + M[0]")


def test_passing_table_checks_call_no_kernel(monkeypatch):
    """Through a counting kernel that keeps its rules, every table is built
    from the rules: passing realization, constructor, weight and Cartan
    checks make no kernel call."""
    calls = []
    closed = brackets.closed_triple_fn

    def counting(spec):
        kernel = closed(spec)

        def triple(a, b, c):
            calls.append((a, b, c))
            return kernel(a, b, c)

        triple.rules = kernel.rules
        return triple

    for module in (brackets, nambu, analysis):
        monkeypatch.setattr(module, "closed_triple_fn", counting)
    for bracket in (["--bracket", "omega"], ["--bracket", "fk", "--k", "-1", "--beta", "poly:1/2*t^2-1"]):
        for check in ("nambu-realization", "constructor-agreement", "weight-decomposition"):
            assert main(["verify", check, *bracket, "--window=-3..3", "--format", "json"]) == 0
    f = parse_beta("support:0=1,2=-1/3")
    for spec, in_cartan, gens, name in _cartans(f):
        cartan_normalizer_check(spec, WINDOW, in_cartan, gens, name)
    assert calls == []


# -- the orbit route of the realization and constructor-agreement checks ----


@pytest.fixture
def routes(monkeypatch):
    """The sweeps the two checks run, in order: (orbits, the triples
    ``_index_triples`` enumerates)."""
    seen = []
    sweep = brackets._index_triples

    def spy(n, orbits):
        triples = []
        seen.append((orbits, triples))
        for i, j, ls in sweep(n, orbits):
            triples.extend((i, j, l) for l in ls)
            yield i, j, ls

    monkeypatch.setattr(brackets, "_index_triples", spy)
    monkeypatch.setattr(nambu, "_index_triples", spy)
    return seen


def _orbit_checks(window, k, f):
    """(check, oracle, its arguments, the brackets it reads) of the omega
    map, the fk map and the constructors."""
    yield check_realization, oracles.check_realization, (OmegaRealization(), window), [OMEGA]
    yield check_realization, oracles.check_realization, (FKRealization(k, f), window), [FKBracket(k, f)]
    yield check_constructor_agreement, oracles.check_constructor_agreement, (window, k, f), [FKBracket(k, f), OMEGA]


def _n(window):
    return 2 * len(window.indices())


def _full(window):
    return (False, list(product(range(_n(window)), repeat=3)))


ORBIT_WINDOWS = (Window(0, 0), Window(2, 2), Window(-3, 1))


@pytest.mark.parametrize("window", ORBIT_WINDOWS, ids=str)
@pytest.mark.parametrize("weight", ("const:1/2", "support:0=1,2=-1/3", "poly:t^2+1"))
def test_the_orbit_route_decides_as_the_oracle(routes, weight, window):
    """Intact rules: each check compares only the strictly increasing
    triples, ``_representatives(PERMUTATIONS, n)``, and its report is the
    per-triple oracle's."""
    reps = _representatives(PERMUTATIONS, _n(window))
    for k in range(-2, 3):
        for check, oracle, args, _ in _orbit_checks(window, k, parse_beta(weight)):
            routes.clear()
            _assert_same(check(*args), oracle(*args))
            assert routes == [(True, reps)], (check.__name__, args)


@pytest.mark.parametrize("mutation", sorted(ROW_MUTATIONS))
def test_every_row_mutation_gives_the_oracle_report(routes, patch_row, monkeypatch, mutation):
    """Every failure is the oracle's, in its order.  Rules that are not
    antisymmetric take the full sweep at once; antisymmetric ones take it
    after a disagreeing representative, or are decided on the orbits."""
    monkeypatch.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**6)
    if ROW_MUTATIONS[mutation] is not None:
        bracket, i, fields = ROW_MUTATIONS[mutation]
        patch_row(bracket, i, **fields)
    window = Window(-2, 1)
    statuses = []
    for check, oracle, args, specs in _orbit_checks(window, 1, parse_beta("const:1/2")):
        routes.clear()
        rep = check(*args)
        _assert_same(rep, oracle(*args))
        statuses.append(rep.status)
        if not all(_antisymmetric(*brackets.closed_triple_fn(spec).rules[::2]) for spec in specs):
            assert routes == [_full(window)]
        elif rep.status == "fail":
            assert len(routes) == 2 and routes[0][0] and routes[1] == _full(window)
        else:
            assert routes == [(True, _representatives(PERMUTATIONS, _n(window)))]
    if mutation == "intact":
        assert statuses == ["pass", "flagged", "pass"]
    else:
        assert "fail" in statuses


def test_a_kernel_without_rules_takes_the_full_sweep(routes, monkeypatch):
    closed = brackets.closed_triple_fn

    def plain(spec):
        kernel = closed(spec)
        return lambda a, b, c: kernel(a, b, c)

    for module in (brackets, nambu):
        monkeypatch.setattr(module, "closed_triple_fn", plain)
    window = Window(-2, 1)
    for check, oracle, args, _ in _orbit_checks(window, 1, parse_beta("support:0=1,2=-1/3")):
        routes.clear()
        _assert_same(check(*args), oracle(*args))
        assert routes == [_full(window)], check.__name__


def test_rules_off_antisymmetry_take_the_full_sweep(routes, patch_row, monkeypatch):
    """Both brackets with the sign of their (L, M, L) rule flipped: every
    strictly increasing triple has a sorted family pattern and still agrees,
    so only the full sweep finds the failures."""
    monkeypatch.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**6)
    for name in ("omega", "fk"):
        rules = dict(brackets.RULES[name])
        family, index, coef, t = rules["L", "M", "L"]
        rules["L", "M", "L"] = family, index, tuple(-c for c in coef), t
        monkeypatch.setitem(brackets.RULES, name, rules)
    brackets.closed_triple_fn.cache_clear()  # patch_row clears it again on teardown
    window = Window(-2, 1)
    for check, oracle, args, _ in _orbit_checks(window, 1, parse_beta("poly:t^2+1")):
        routes.clear()
        rep = check(*args)
        assert rep.status == "fail"
        assert routes == [_full(window)]
        _assert_same(rep, oracle(*args))


def test_a_lie_table_off_antisymmetry_takes_the_full_sweep(routes, monkeypatch):
    """[u, v] = d_k(u) v: f still vanishes on it, so the certificate passes,
    but the functional route is no longer alternating."""
    monkeypatch.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**6)
    monkeypatch.setattr(brackets, "lie_bracket", lambda lie, u, v: brackets.d_k(lie.k, u) * v)
    window, f = Window(-2, 1), parse_beta("const:1/2")
    rep = check_constructor_agreement(window, 1, f)
    assert rep.status == "fail"
    assert routes == [_full(window)]
    _assert_same(rep, oracles.check_constructor_agreement(window, 1, f))


def test_a_non_commutative_product_takes_the_full_sweep(routes, monkeypatch):
    """M_a M_b = M_a is associative but not commutative, so the determinant
    is not alternating; the Lie pairs multiply no two M vectors and stay
    antisymmetric.  The report is the one the full sweep gives when the
    orbit route is refused outright."""
    monkeypatch.setattr(VerdictReport, "MAX_COUNTEREXAMPLES", 10**6)
    product_key = Element._product_key

    def left_on_m(a, b):
        return a if a.family == b.family == "M" else product_key(a, b)

    monkeypatch.setattr(Element, "_product_key", staticmethod(left_on_m))
    window, f = Window(-2, 1), parse_beta("const:1/2")
    rep = check_constructor_agreement(window, 1, f)
    assert rep.status == "fail"
    assert routes == [_full(window)]
    monkeypatch.setattr(brackets, "_antisymmetric", lambda rules, weight: False)
    _assert_same(rep, check_constructor_agreement(window, 1, f))
