from fractions import Fraction

import pytest

import oracles
from conftest import ROW_MUTATIONS, sign_flipped_q
from trilie import (
    OMEGA,
    BasisVector,
    ConstantFunctional,
    Element,
    FKBracket,
    L,
    M,
    parse_beta,
    window_basis,
)
from trilie import analysis
from trilie.analysis import (
    DEFAULT_DEPTH,
    MODE_DERIVED,
    MODE_IDEAL,
    MODE_LOWER_CENTRAL,
    MODE_SELF_LOWER,
    ClosureTable,
    WindowSubspace,
    fk_cartan_pairs,
    ideal_check,
    ideal_closure_reaches_all,
    cartan_normalizer_check,
    module_axiom_check,
    natural_module_decompose,
    omega_cartan_pairs,
    span_close,
    vandermonde_extract,
    weight_decompose,
    witt_module_check,
)
from trilie.brackets import bracket_rules, closed_triple_fn, tri_bracket
from trilie.cli import main
from trilie.operators import GENERATORS, gen_p
from trilie.report import Window

ONE = ConstantFunctional(1)


def test_window_subspace_basics():
    w = Window(-2, 2)
    ws = WindowSubspace.from_elements(w, [L(0) + M(1), M(1)])
    assert ws.dim == 2
    assert ws.contains(L(0))
    assert not ws.contains(M(0))
    assert ws.basis_lines() == [L(0).support()[0], M(1).support()[0]]
    with pytest.raises(ValueError):
        ws.add(L(7))


def test_ideal_closure_fast_path_matches_general():
    w = Window(-2, 2)
    chain_fast, _ = span_close(ClosureTable(OMEGA, w), [M(1)], MODE_IDEAL)
    # a multi-term seed row goes through tri_bracket; same final span
    chain_gen, _ = span_close(ClosureTable(OMEGA, w), [M(1, 2) + L(-1)], MODE_IDEAL)
    assert chain_fast[-1].dim == chain_gen[-1].dim == 10


@pytest.mark.parametrize("depth", [0, DEFAULT_DEPTH])
@pytest.mark.parametrize("seeds", [[L(0)], [L(0) + M(1)]], ids=["single-term", "multi-term"])
def test_span_close_rejects_an_unknown_mode(seeds, depth):
    with pytest.raises(ValueError, match="unknown closure mode 'bogus'"):
        span_close(ClosureTable(OMEGA, Window(-3, 3)), seeds, "bogus", depth=depth)


def test_empty_seed_closure():
    chain, rep = span_close(ClosureTable(OMEGA, Window(-2, 2)), [], MODE_IDEAL)
    assert chain[-1].dim == 0
    assert rep.ok


def test_omega_simplicity_evidence():
    rep = ideal_closure_reaches_all(ClosureTable(OMEGA, Window(-4, 4)))
    assert rep.status == "pass"
    rep = ideal_closure_reaches_all(ClosureTable(OMEGA, Window(-4, 4)), [M(2)])
    assert rep.status == "pass"


def test_fk_derived_series():
    w = Window(-4, 4)
    fk = FKBracket(1, ONE)
    seeds = [Element({bv: 1}) for bv in window_basis(w)]
    chain, rep = span_close(ClosureTable(fk, w), seeds, MODE_DERIVED)
    assert chain[1].basis_lines() == [L(r).support()[0] for r in w.indices()]
    assert chain[-1] == chain[1]  # stabilizes at the first derived span
    assert rep.stats["stabilized_at"] >= 2


def test_derived_algebra_of_omega_contains_generating_brackets():
    # [L_r, L_s, M_s] = (s-r) L_r and [L_s, M_r, M_s] = (s-r) M_r
    from trilie import tri_bracket

    for r in range(-2, 3):
        for s in range(-2, 3):
            if r == s:
                continue
            assert tri_bracket(OMEGA, L(r), L(s), M(s)) == L(r, s - r)
            assert tri_bracket(OMEGA, L(s), M(r), M(s)) == M(r, s - r)


def test_vandermonde_extraction():
    ext, rep = vandermonde_extract(OMEGA, L(1) + M(2), 5, 1)
    assert sorted(map(str, ext)) == ["L[1]", "M[2]"]
    ext, rep = vandermonde_extract(OMEGA, L(1), 3, 1)
    assert [str(e) for e in ext] == ["L[1]"]
    ext, rep = vandermonde_extract(OMEGA, L(1) + L(2), 9, 1)
    assert sorted(map(str, ext)) == ["L[1]", "L[2]"]
    u = L(1, 2) + M(1, Fraction(1, 3)) + M(-3, -1) + L(0, 5)
    ext, rep = vandermonde_extract(OMEGA, u, 2, 3)
    assert rep.status == "pass"
    assert len(ext) == 4


def test_vandermonde_preconditions():
    with pytest.raises(ValueError):
        vandermonde_extract(OMEGA, L(5), 5, 2)  # r must dominate strictly
    with pytest.raises(ValueError):
        vandermonde_extract(FKBracket(0, ONE), L(1), 5, 2)


def test_vandermonde_insufficient_power_reported():
    u = L(1) + L(2) + M(0) + M(3)
    ext, rep = vandermonde_extract(OMEGA, u, 9, 1)
    assert rep.status == "fail"


def test_ideal_check_l_family_under_fk():
    w = Window(-4, 4)
    fk = FKBracket(1, ONE)
    rep = ideal_check(ClosureTable(fk, w), [L(r) for r in w.indices()])
    assert rep.stats["is_ideal"] == "True"
    assert rep.stats["nilpotent_as_algebra"] == "True"
    assert rep.stats["nilpotent_as_ideal"] == "False"
    assert rep.stats["hypo_nilpotent"] == "True"
    assert rep.stats["minimality_evidence"] == "True"


def test_ideal_check_m_family_under_fk():
    w = Window(-4, 4)
    fk = FKBracket(1, ONE)
    rep = ideal_check(ClosureTable(fk, w), [M(r) for r in w.indices()])
    assert rep.stats["is_ideal"] == "False"
    assert rep.stats["own_lower_central_dims"].split(",")[1] == "0"  # abelian


def test_ideal_check_single_line_under_omega():
    rep = ideal_check(ClosureTable(OMEGA, Window(-3, 3)), [L(0)])
    assert rep.stats["is_ideal"] == "False"


def test_omega_weight_decomposition():
    w = Window(-4, 4)
    deco, rep = weight_decompose(OMEGA, omega_cartan_pairs(), w)
    assert rep.status == "pass"
    assert set(deco.dims.values()) == {2}
    # weight -t space is span{L_t, M_{-t}}
    spaces = {wt[0]: labels for wt, labels in deco.spaces.items()}
    for t in w.indices():
        assert spaces[-t] == tuple(sorted((L(t).support()[0], M(-t).support()[0])))


def test_fk_weight_decomposition_growth():
    zero_dims = []
    for size in (2, 3, 4):
        w = Window(-size, size)
        deco, rep = weight_decompose(FKBracket(0, ONE), fk_cartan_pairs(w, 0), w)
        assert rep.status == "pass"
        zero_dims.append(deco.zero_weight_dim())
        nonzero = [d for wt, d in deco.dims.items() if any(wt)]
        assert set(nonzero) == {1}
    assert zero_dims == [6, 8, 10]  # all M plus L_0: grows with the window


def test_weight_decompose_brackets_each_cartan_entry_once(monkeypatch):
    calls = []
    closed = analysis.closed_triple_fn

    def counting(spec):
        triple = closed(spec)

        def counted(a, b, c):
            calls.append((a, b, c))
            return triple(a, b, c)

        return counted

    monkeypatch.setattr(analysis, "closed_triple_fn", counting)
    w = Window(-3, 3)
    pairs = fk_cartan_pairs(w, 0)  # (L[0], M[t]) for 7 values of t
    assert weight_decompose(FKBracket(0, ONE), pairs, w)[1].status == "pass"
    # one kernel evaluation per basis triple: the diagonal action on 14 basis
    # vectors per pair, then the 8 distinct entries L[0], M[-3..3] cubed (not
    # the 14 listed entries cubed), each triple once
    assert len(calls) == 7 * 14 + 8**3
    assert len(set(calls[7 * 14 :])) == 8**3


def test_weight_decompose_keeps_the_first_counterexamples():
    w = Window(-2, 2)
    pairs = [(L(0), M(0)), (L(1), M(1)), (L(0), M(0))]  # diagonal, not commuting
    _, rep = weight_decompose(OMEGA, pairs, w)
    entries = [h for pair in pairs for h in pair]
    naive = [
        f"cartan span is not abelian: [{a}, {b}, {c}] != 0"
        for a in entries
        for b in entries
        for c in entries
        if tri_bracket(OMEGA, a, b, c)
    ]
    found = [c for c in rep.counterexamples if c.startswith("cartan span")]
    assert found and found == list(dict.fromkeys(naive))[: len(found)]


def test_natural_module():
    deco, rep = natural_module_decompose(Window(-4, 4))
    assert rep.status == "pass"
    assert deco.max_dim == 1
    assert len(deco.spaces) == 18
    # L_0 and M_0 are separated by the second diagonal operator
    key_l0 = next(wt for wt, labels in deco.spaces.items() if labels == (L(0).support()[0],))
    key_m0 = next(wt for wt, labels in deco.spaces.items() if labels == (M(0).support()[0],))
    assert key_l0 == (0, -1) and key_m0 == (0, 1)


def test_cartan_normalizer_checks():
    rep = cartan_normalizer_check(
        OMEGA, Window(-3, 3), lambda bv: bv.index == 0, [L(0), M(0)], "L[0], M[0]"
    )
    assert rep.status == "pass"
    fk = FKBracket(1, ONE)
    gens = [L(-1)] + [M(t) for t in range(-3, 4)]
    rep = cartan_normalizer_check(
        fk,
        Window(-3, 3),
        lambda bv: bv.family == "M" or bv.index == -1,
        gens,
        "L[-1] plus the M family",
    )
    assert rep.status == "pass"


def test_module_axioms():
    assert module_axiom_check(OMEGA, Window(-2, 2), samples=10, seed=4).ok
    assert module_axiom_check(FKBracket(1, ONE), Window(-2, 2), samples=10, seed=4).ok


def test_witt_module_checks():
    for i in (1, 2, 3):
        rep = witt_module_check(i, Window(-3, 3))
        assert rep.ok
        assert rep.status == "flagged"
        assert not rep.counterexamples
        assert any("trivial submodule" in n for n in rep.notes)
        assert any("regular-representation reading" in n for n in rep.notes)
    with pytest.raises(ValueError):
        witt_module_check(4, Window(-2, 2))


def test_witt_equivariance_reads_the_operators(monkeypatch):
    # the q family itself: the oracle's coefficients differ first at (-2, -2)
    rep = witt_module_check(1, Window(-2, 2))
    assert any(
        "at (r=-2, s=-2) the transported bracket coefficient is 0 while the action row gives 2" in n
        for n in rep.notes
    )
    # with the p family in place of q the bijection is the identity, so it
    # intertwines the action and no equivariance flag may be raised
    monkeypatch.setitem(GENERATORS, "q", gen_p)
    rep = witt_module_check(1, Window(-2, 2))
    assert not any("not equivariant" in n for n in rep.notes)
    # [p_r, p_0] = r*p_r is nonzero, so the literal action moves the 0 line
    assert not any("trivial submodule" in n for n in rep.notes)


def test_witt_module_fails_under_a_sign_flipped_q(monkeypatch):
    monkeypatch.setitem(GENERATORS, "q", sign_flipped_q)
    rep = witt_module_check(1, Window(-2, 2))
    assert rep.status == "fail"
    assert "[p_-2, q_-2] != 2*q_-4" in rep.counterexamples
    # the other families do not use q
    assert witt_module_check(2, Window(-2, 2)).ok


# -- closures of basis-line seeds against the set-based loop -----------------


def _reference_span_close(triple, seeds, window, mode, depth=DEFAULT_DEPTH):
    """The set-based closure: every (current x slot x slot) basis triple goes
    through the kernel again at every step.  Returns the chain of sets, the
    stats and the notes span_close reports."""
    basis = list(window_basis(window))
    seed_set = frozenset(next(iter(s.terms)) for s in seeds)
    escapes = 0

    def targets(set_a, set_b, set_c):
        nonlocal escapes
        out = set()
        for va in set_a:
            for vb in set_b:
                for vc in set_c:
                    res = triple(va, vb, vc)
                    if res is None:
                        continue
                    _, fam, idx = res
                    if idx in window:
                        out.add(BasisVector(fam, idx))
                    else:
                        escapes += 1
        return frozenset(out)

    current = seed_set
    chain = [current]
    for _ in range(depth):
        if mode == MODE_IDEAL:
            nxt = current | targets(current, basis, basis)
        elif mode == MODE_DERIVED:
            nxt = targets(current, current, basis)
        elif mode == MODE_LOWER_CENTRAL:
            nxt = targets(current, seed_set, basis)
        else:
            nxt = targets(current, seed_set, seed_set)
        chain.append(nxt)
        if nxt == current:
            break
        current = nxt
    stabilized = len(chain) >= 2 and chain[-1] == chain[-2]
    stats = {
        "chain_dims": ",".join(str(len(s)) for s in chain),
        "stabilized_at": len(chain) - 1 if stabilized else -1,
        "escapes": escapes,
    }
    notes = [] if stabilized else [f"chain did not stabilize within depth {depth}"]
    if escapes:
        notes.append(
            f"{escapes} single-term bracket results fell outside the window and "
            "were dropped (projection-exact: all results are basis monomials)"
        )
    return chain, stats, notes


def _closure_seed_sets(w):
    """Each basis line alone, all Ls, all Ms and the whole window basis."""
    basis = window_basis(w)
    return [[Element({bv: 1})] for bv in basis] + [
        [L(r) for r in w.indices()],
        [M(r) for r in w.indices()],
        [Element({bv: 1}) for bv in basis],
    ]


CLOSURE_SPECS = {
    "omega": OMEGA,
    "fk-const-1": FKBracket(1, ONE),
    "fk-const-1/2": FKBracket(1, ConstantFunctional(Fraction(1, 2))),
}


@pytest.mark.parametrize("mode", [MODE_IDEAL, MODE_DERIVED, MODE_LOWER_CENTRAL, MODE_SELF_LOWER])
@pytest.mark.parametrize("name", sorted(CLOSURE_SPECS))
def test_bitmask_closure_matches_set_oracle(name, mode):
    spec, w = CLOSURE_SPECS[name], Window(-4, 4)
    table = ClosureTable(spec, w)
    for seeds in _closure_seed_sets(w):
        want_chain, want_stats, want_notes = _reference_span_close(
            closed_triple_fn(spec), seeds, w, mode
        )
        for shared in (table, ClosureTable(spec, w)):
            chain, rep = span_close(shared, seeds, mode)
            assert {k: rep.stats[k] for k in want_stats} == want_stats
            assert rep.notes == want_notes
            assert [ws.basis_lines() for ws in chain] == [sorted(s) for s in want_chain]
            # the directly built spans equal those the row reduction reaches
            assert [vars(ws.solver) for ws in chain] == [
                vars(WindowSubspace.from_elements(w, [Element({bv: 1}) for bv in sorted(s)]).solver)
                for s in want_chain
            ]


@pytest.mark.parametrize("mode", [MODE_IDEAL, MODE_DERIVED, MODE_LOWER_CENTRAL, MODE_SELF_LOWER])
def test_general_closure_matches_the_bitmask_path(mode):
    # DETERMINANT equals omega on every triple but has no closed form, so
    # the oracle closes it by bracketing every row; it picks the escape
    # note by the same rule as span_close
    w = Window(-3, 3)
    table = ClosureTable(OMEGA, w)
    for seeds in _closure_seed_sets(w):
        want_chain, want = span_close(table, seeds, mode)
        chain, rep = oracles.span_close(oracles.DETERMINANT, seeds, w, mode)
        for stat in ("chain_dims", "stabilized_at", "escapes"):
            assert rep.stats[stat] == want.stats[stat], (seeds, stat)
        assert rep.notes == want.notes, seeds
        assert chain == want_chain, seeds


# -- the table-read general paths against the tri_bracket loops they replaced --

PARITY_SPECS = {
    "omega": OMEGA,
    "fk-k-2": FKBracket(-2, ONE),
    "fk-k0-support": FKBracket(0, parse_beta("support:-1=1,2=-1/3")),
    "fk-k1-poly": FKBracket(1, parse_beta("poly:t^2+1")),
}


def _parity_seed_sets():
    """Single-term, multi-term and mixed seed sets (rows with one term and
    rows with several); single-term sets unsorted and with repeats too."""
    return [
        [L(1)],
        [M(-2), L(0, 3)],
        [M(1), L(0), M(1)],
        [L(2), L(-3)],
        [L(1) + M(-1, 2) - M(2, Fraction(1, 2))],
        [M(0) + M(1), L(2) - L(-1)],
        [L(0), M(1), M(2) - L(-1)],
        [M(-1), L(1) + M(1)],
        [L(3) + M(0), L(1) + M(1), M(2) + M(-1)],
    ]


@pytest.mark.parametrize("mode", [MODE_IDEAL, MODE_DERIVED, MODE_LOWER_CENTRAL, MODE_SELF_LOWER])
@pytest.mark.parametrize("name", sorted(PARITY_SPECS))
def test_span_close_matches_the_tri_bracket_oracle(name, mode):
    spec = PARITY_SPECS[name]
    escaped_general = False
    for w in (Window(-3, 3), Window(-4, 4)):
        table = ClosureTable(spec, w)
        for seeds in _parity_seed_sets():
            want_chain, want = oracles.span_close(spec, seeds, w, mode)
            chain, rep = span_close(table, seeds, mode)
            assert rep.to_dict() == want.to_dict(), seeds
            assert chain == want_chain, seeds
            multi = any(len(s.terms) > 1 for s in seeds)
            escaped_general |= multi and rep.stats["escapes"] > 0
    assert escaped_general  # the escape note of the general path is compared


IDEAL_CANDIDATES = {
    "span{L}": lambda w: [L(r) for r in w.indices()],
    "span{M}": lambda w: [M(r) for r in w.indices()],
    "L[0]": lambda w: [L(0)],
    "M[1]": lambda w: [M(1)],
    "partial L": lambda w: [L(r) for r in range(-1, 3)],
    # multi-term elements whose span reduces to the lines L[0], M[0]
    "lines after reduction": lambda w: [L(0) + M(0), M(0) - L(0)],
}


@pytest.mark.parametrize("candidate", sorted(IDEAL_CANDIDATES))
@pytest.mark.parametrize("name", ["omega", "fk-k-2", "fk-k1-poly"])
def test_ideal_check_matches_the_tri_bracket_oracle(name, candidate):
    spec, w = PARITY_SPECS[name], Window(-3, 3)
    elements = IDEAL_CANDIDATES[candidate](w)
    want = oracles.ideal_check(spec, elements, w)
    assert ideal_check(ClosureTable(spec, w), elements).to_dict() == want.to_dict()


@pytest.mark.parametrize("name", ["omega", "fk-k-2", "fk-k1-poly"])
def test_ideal_check_rejects_a_candidate_not_spanned_by_basis_lines(name):
    with pytest.raises(ValueError, match="spanned by basis lines"):
        ideal_check(ClosureTable(PARITY_SPECS[name], Window(-3, 3)), [L(0) + M(0), M(1)])


def test_the_first_table_escape_is_the_escape_sample(patch_row):
    # [L_r, M_s, M_t] = (t - s) L_{s+t-r}: the first escape the note shows
    # is a table entry of a basis-line row, found by its negative code
    patch_row("omega", 1, family="L")
    seeds = [L(-3), M(0) + M(1)]
    chain, rep = span_close(ClosureTable(OMEGA, Window(-3, 3)), seeds, MODE_IDEAL)
    assert rep.stats == {"chain_dims": "2,8,8", "stabilized_at": 2, "escapes": 396}
    assert rep.notes == [
        "396 bracket results had support outside the window and were projected "
        "(first: [L[-3], L[-2], M[-1]] -> L[-4]); in-window spans are evidence, "
        "not truncations of exact members"
    ]


def test_bitmask_closure_rejects_seeds_outside_the_window():
    with pytest.raises(ValueError, match="outside window"):
        span_close(ClosureTable(OMEGA, Window(-2, 2)), [L(5)], MODE_IDEAL)


def _without_lmm(closed_triple_fn):
    """closed_triple_fn with every product of one L and two Ms dropped."""

    def closed(spec):
        kernel = closed_triple_fn(spec)

        def triple(a, b, c):
            if sorted((a[0], b[0], c[0])) == ["L", "M", "M"]:
                return None
            return kernel(a, b, c)

        return triple

    return closed


def test_simplicity_evidence_fails_on_broken_kernel(monkeypatch):
    w = Window(-3, 3)
    assert ideal_closure_reaches_all(ClosureTable(OMEGA, w)).status == "pass"
    monkeypatch.setattr(analysis, "closed_triple_fn", _without_lmm(analysis.closed_triple_fn))
    rep = ideal_closure_reaches_all(ClosureTable(OMEGA, w))
    assert rep.status == "fail"
    # the M seeds still reach the L family, but no L seed reaches an M line
    assert "closure of L[-3] stops at dimension 7 < 14" in rep.counterexamples


def _counting_kernels(monkeypatch):
    """Count the kernel calls made through ``analysis.closed_triple_fn``:
    one entry per kernel it hands out, that is per closure table built."""
    calls = []
    closed = analysis.closed_triple_fn

    def counting(spec):
        kernel, i = closed(spec), len(calls)
        calls.append(0)

        def triple(a, b, c):
            calls[i] += 1
            return kernel(a, b, c)

        return triple

    monkeypatch.setattr(analysis, "closed_triple_fn", counting)
    return calls


def test_each_cli_call_builds_its_own_table(monkeypatch):
    built = _counting_kernels(monkeypatch)
    closure = ["analyze", "ideal-closure", "--bracket", "omega", "--window", "-3..3"]
    assert main(closure) == 0
    assert built == [14**3]  # one table for all 14 seeds
    assert main(closure) == 0
    assert built == [14**3] * 2
    # ideal-kinds: one table for span{L} and span{M}, shared by their closures
    assert main(["analyze", "ideal-kinds", "--bracket", "fk", "--window", "-3..3"]) == 0
    assert built == [14**3] * 3


def test_ideal_kinds_reads_the_kernel_once_per_basis_triple(monkeypatch):
    # escapes are classified from their table entries, not by new kernel calls
    calls = _counting_kernels(monkeypatch)
    assert main(["analyze", "ideal-kinds", "--bracket", "fk", "--window", "-3..3"]) == 0
    assert sum(calls) == 14**3 == 2744


def _per_triple_rows(monkeypatch, spec, window):
    """The rows of a table whose kernel carries no rules, so it reads the
    kernel once per basis triple."""
    kernel = closed_triple_fn(spec)
    with monkeypatch.context() as m:
        m.setattr(analysis, "closed_triple_fn", lambda spec: lambda a, b, c: kernel(a, b, c))
        return ClosureTable(spec, window).rows


TABLE_WEIGHTS = ("const:1", "const:1/2", "support:0=1,2=-1/3", "poly:t-1")
TABLE_SPECS = [OMEGA] + [FKBracket(k, parse_beta(b)) for k in range(-3, 4) for b in TABLE_WEIGHTS]
TABLE_WINDOWS = (Window(-3, 3), Window(-2, 5), Window(1, 4), Window(3, 5))  # beta vanishes on 3..5

@pytest.mark.parametrize("mutation", sorted(ROW_MUTATIONS))
def test_rule_built_rows_equal_the_per_triple_rows(mutation, monkeypatch, patch_row):
    broken = ROW_MUTATIONS[mutation]
    specs = TABLE_SPECS
    if broken is not None:
        bracket, i, fields = broken
        patch_row(bracket, i, **fields)
        specs = [s for s in TABLE_SPECS if (s == OMEGA) == (bracket == "omega")]
    for spec in specs:
        assert closed_triple_fn(spec).rules == bracket_rules(spec)
        for w in TABLE_WINDOWS:
            assert ClosureTable(spec, w).rows == _per_triple_rows(monkeypatch, spec, w), (spec, w)


def test_simplicity_evidence_fails_on_a_zeroed_lmm_rule(patch_row):
    # the same failure as the broken kernel above, reached through the rules
    patch_row("omega", 1, coef=(0, 0, 0))
    assert hasattr(closed_triple_fn(OMEGA), "rules")
    rep = ideal_closure_reaches_all(ClosureTable(OMEGA, Window(-3, 3)))
    assert rep.status == "fail"
    assert "closure of L[-3] stops at dimension 7 < 14" in rep.counterexamples


def _counting_rule_tables(monkeypatch):
    """Count the tables built from rules, and the per-triple calls of the
    kernels ``analysis.closed_triple_fn`` hands out: those kernels keep their
    rules, so tables take the shipped path."""
    built, calls = [], []
    closed, blocks = analysis.closed_triple_fn, ClosureTable._blocks

    def counting(spec):
        kernel = closed(spec)

        def triple(a, b, c):
            calls.append((a, b, c))
            return kernel(a, b, c)

        triple.rules = kernel.rules
        return triple

    def counted_blocks(self, *rules):
        built.append(self.spec)
        return blocks(self, *rules)

    monkeypatch.setattr(analysis, "closed_triple_fn", counting)
    monkeypatch.setattr(ClosureTable, "_blocks", counted_blocks)
    return built, calls


def test_each_cli_call_builds_its_own_rule_table(monkeypatch):
    built, calls = _counting_rule_tables(monkeypatch)
    closure = ["analyze", "ideal-closure", "--bracket", "omega", "--window", "-3..3"]
    assert main(closure) == 0
    assert built == [OMEGA]  # one table for all 14 seeds
    assert main(closure) == 0
    assert built == [OMEGA] * 2
    assert main(["analyze", "ideal-kinds", "--bracket", "fk", "--window", "-3..3"]) == 0
    assert len(built) == 3 and isinstance(built[2], FKBracket)
    assert calls == []


def test_ideal_kinds_builds_one_rule_table_and_calls_no_kernel(monkeypatch):
    built, calls = _counting_rule_tables(monkeypatch)
    assert main(["analyze", "ideal-kinds", "--bracket", "fk", "--window", "-3..3"]) == 0
    assert len(built) == 1
    assert calls == []
