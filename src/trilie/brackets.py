"""Binary and ternary brackets on A, with exact identity checkers.

Two ternary brackets are primitive:

* the weighted bracket ``fk(k, f)``: the only nonzero products are
  [L_r, L_s, M_t] = beta_t * (r - s) * L_{r+s+k}, with beta_t = f(M_t);
* the involution bracket ``omega``: [L_r, L_s, M_t] = (s - r) * L_{r+s-t}
  and [L_r, M_s, M_t] = (t - s) * M_{s+t-r}.

Each also arises from a general constructor, and
``check_constructor_agreement`` confirms on a window, from per-call
tables, that the two routes agree coefficient-exactly:

* from a Lie bracket [ , ]_k = d_k(u) v - u d_k(v) and a functional f
  vanishing on brackets: [u,v,w] = f(u)[v,w] + f(v)[w,u] + f(w)[u,v];
* from the determinant with rows (omega-row, identity row, delta-row).

Only the two closed forms are bracket specs; the constructors evaluated
on general elements are test oracles.

Brackets of window elements may land outside the window; results are
always compared as full exact elements, never truncations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, combinations, groupby, product, starmap
from math import lcm
from operator import itemgetter, mul, neg
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .elements import (
    FAMILY_L,
    FAMILY_M,
    BasisVector,
    Element,
    FunctionalSpec,
    d_k,
    delta,
    functional_eval,
    omega,
    window_basis,
)
from .linalg import null_space
from .polys import divided, integral
from .report import PASS, ConfigError, VerdictReport, Window

# -- bracket specifications --------------------------------------------


@dataclass(frozen=True)
class DkInduced:
    """Lie bracket [u, v]_k = d_k(u) v - u d_k(v)."""

    k: int

    def describe(self) -> str:
        return f"dk({self.k})"


@dataclass(frozen=True)
class FixedThird:
    """Lie bracket [u, v] = [u, v, b] under the omega ternary bracket,
    with b the fixed window-independent basis vector family[k]."""

    family: str
    k: int

    def describe(self) -> str:
        return f"fixed-third({self.family}[{self.k}])"


def FixedThirdL(k: int) -> FixedThird:
    return FixedThird(FAMILY_L, k)


def FixedThirdM(k: int) -> FixedThird:
    return FixedThird(FAMILY_M, k)


LieBracketSpec = Union[DkInduced, FixedThird]


@dataclass(frozen=True)
class OmegaBracket:
    def describe(self) -> str:
        return "omega"


@dataclass(frozen=True)
class FKBracket:
    k: int
    functional: FunctionalSpec

    def __post_init__(self):
        # closed_triple_fn is memoised on the spec, and a Fraction weight hashes slowly
        object.__setattr__(self, "_hash", hash((self.k, self.functional)))

    def __hash__(self):
        return self._hash

    def describe(self) -> str:
        return f"fk(k={self.k}, beta={self.functional.describe()})"


TriBracketSpec = Union[OmegaBracket, FKBracket]

OMEGA = OmegaBracket()


# -- Lie brackets -------------------------------------------------------


def lie_bracket(spec: LieBracketSpec, u: Element, v: Element) -> Element:
    if isinstance(spec, DkInduced):
        return d_k(spec.k, u) * v - u * d_k(spec.k, v)
    if isinstance(spec, FixedThird):
        return tri_bracket(OMEGA, u, v, Element.basis(spec.family, spec.k))
    raise TypeError(f"unknown Lie bracket spec {spec!r}")


def _lie_pairs(spec: LieBracketSpec, basis: Sequence[BasisVector]) -> List[List[Element]]:
    """The Lie bracket on the unit Elements of ``basis``: entry [i][j] is
    [basis[i], basis[j]]."""
    units = [Element({bv: 1}) for bv in basis]
    return [[lie_bracket(spec, u, v) for v in units] for u in units]


# -- the product rows and their basis kernels ------------------------------
#
# Each closed-form bracket is written once, as its nonzero products on
# canonical family patterns.  Every other basis product follows from total
# antisymmetry; a triple whose families permute no row is zero.  A row's
# output index and coefficient are integer forms over the slot indices
# (r, s, t).  Under fk the index gains k and the coefficient is multiplied
# by beta_t, the weight of the row's M slot.
#
# Triples are (family, index) pairs; a kernel returns (integer-or-rational
# coefficient, family, index) or None for zero.  Kernels are the hot path
# of the exhaustive sweeps.

Triple = Tuple[str, int]


class ProductRow(NamedTuple):
    pattern: Tuple[str, str, str]  # families of the slots (r, s, t)
    family: str  # family of the output
    index: Tuple[int, int, int]  # output index = index . (r, s, t)
    coef: Tuple[int, int, int]  # coefficient = coef . (r, s, t)


PRODUCT_ROWS = {
    "omega": (
        # [L_r, L_s, M_t] = (s - r) L_{r+s-t}
        ProductRow((FAMILY_L, FAMILY_L, FAMILY_M), FAMILY_L, (1, 1, -1), (-1, 1, 0)),
        # [L_r, M_s, M_t] = (t - s) M_{s+t-r}
        ProductRow((FAMILY_L, FAMILY_M, FAMILY_M), FAMILY_M, (-1, 1, 1), (0, -1, 1)),
    ),
    # [L_r, L_s, M_t] = beta_t (r - s) L_{r+s+k}
    "fk": (ProductRow((FAMILY_L, FAMILY_L, FAMILY_M), FAMILY_L, (1, 1, 0), (1, -1, 0)),),
}

# the signed permutations of three slots, identity first; position i of a
# permuted triple holds slot perm[i]
PERMUTATIONS = (
    ((0, 1, 2), 1),
    ((0, 2, 1), -1),
    ((1, 0, 2), -1),
    ((1, 2, 0), 1),
    ((2, 0, 1), 1),
    ((2, 1, 0), -1),
)


def permutation_cofactors(row1, row2, zero=0) -> list:
    """The determinant of the rows (row1, row2, row3), expanded over
    PERMUTATIONS and grouped by the entry of row3: it equals
    sum(c * x for c, x in zip(cofactors, row3)).  Entries are rationals, or
    Elements under the algebra product with ``zero`` the zero Element."""
    out = [zero, zero, zero]
    for (i, j, k), sign in PERMUTATIONS:
        term = row1[i] * row2[j]
        out[k] = out[k] + term if sign > 0 else out[k] - term
    return out


def expand_rows(rows) -> dict:
    """The rules of a bracket: family pattern -> (output family, index form,
    signed coefficient form, position of slot t), with the forms written
    over argument positions.  The first signed permutation of a row to
    reach a pattern gives its rule, so the rules are totally antisymmetric
    when each row is antisymmetric in its slots of one family."""
    rules = {}
    for row in rows:
        for perm, sign in PERMUTATIONS:
            pattern = tuple(row.pattern[j] for j in perm)
            if pattern not in rules:
                rules[pattern] = (
                    row.family,
                    tuple(row.index[j] for j in perm),
                    tuple(sign * row.coef[j] for j in perm),
                    perm.index(2),
                )
    return rules


RULES = {name: expand_rows(rows) for name, rows in PRODUCT_ROWS.items()}


def bracket_rules(spec: TriBracketSpec):
    """(rules, index shift, weight) of a bracket."""
    if isinstance(spec, OmegaBracket):
        return RULES["omega"], 0, None
    if isinstance(spec, FKBracket):
        return RULES["fk"], spec.k, spec.functional
    raise TypeError(f"unknown ternary bracket spec {spec!r}")


def rule_kernel(rules: dict, shift: int = 0, weight: Optional[FunctionalSpec] = None) -> Callable:
    """The basis kernel of expanded rules: each index gains ``shift``, and
    under a weight each coefficient is multiplied by beta at slot t.  The
    kernel carries ``(rules, shift, weight)`` as its ``rules`` attribute, so
    a table can be built from the rules block by block."""
    get = rules.get
    beta = weight.beta if weight is not None else None

    def triple(a: Triple, b: Triple, c: Triple):
        rule = get((a[0], b[0], c[0]))
        if rule is None:
            return None
        family, (x0, x1, x2), (y0, y1, y2), t_pos = rule
        i0, i1, i2 = a[1], b[1], c[1]
        coef = y0 * i0 + y1 * i1 + y2 * i2
        if beta is not None:
            coef = beta((i0, i1, i2)[t_pos]) * coef
        return (coef, family, x0 * i0 + x1 * i1 + x2 * i2 + shift) if coef else None

    triple.rules = (rules, shift, weight)
    return triple


def _family_runs(slot) -> dict:
    """family -> [(start, indices)], one entry per maximal run of that family in ``slot``."""
    runs, start = {}, 0
    for family, group in groupby(slot, itemgetter(0)):
        indices = [vec[1] for vec in group]
        runs.setdefault(family, []).append((start, indices))
        start += len(indices)
    return runs


def rule_table(kernel: Callable, slots, at: Tuple[int, int, int] = (0, 1, 2)):
    """The kernel on every triple of ``product(*slots)``, vector j at
    argument position at[j], as (coefficients, outputs): 0 and None where the
    bracket is zero.  Built from the kernel's rules; a kernel without rules
    is called once per triple.

    For one rule and vectors a, b of the first two slots, the coefficient and
    the output index are affine in the index of the last slot: each run of
    that slot's family is computed once per partial sum and copied in by one
    slice.  Beta is read once per index; patterns without a rule stay 0."""
    if not hasattr(kernel, "rules"):
        args = itemgetter(*map(at.index, range(3)))
        entries = list(starmap(kernel, map(args, product(*slots))))
        return [0 if res is None else res[0] for res in entries], [None if res is None else res[1:] for res in entries]
    rules, shift, weight = kernel.rules
    first, second, last = slots
    runs = _family_runs(last)
    n1, n2 = len(second), len(last)
    coefs, outs = [0] * (len(first) * n1 * n2), [None] * (len(first) * n1 * n2)
    vectors = {}  # one tuple per output vector, so equal outputs compare by identity
    for pattern, (family, index, coef, t) in rules.items():
        f0, f1, f2 = (pattern[p] for p in at)
        x0, x1, x2 = (index[p] for p in at)
        y0, y1, y2 = (coef[p] for p in at)
        t = at.index(t)
        beta = None if weight is None else {i: weight.beta(i) for f, i in slots[t] if f == (f0, f1, f2)[t]}
        coef_runs, out_runs = {}, {}
        for a, (g0, i0) in enumerate(first):
            if g0 != f0:
                continue
            for b, (g1, i1) in enumerate(second):
                if g1 != f1:
                    continue
                m = 1 if beta is None or t == 2 else beta[(i0, i1)[t]]
                c, step, s = m * (y0 * i0 + y1 * i1), m * y2, x0 * i0 + x1 * i1 + shift
                if not (c or step):
                    continue
                row = (a * n1 + b) * n2
                for start, idx in runs.get(f2, ()):
                    if (c, step, start) not in coef_runs:
                        run = [c + step * i for i in idx]
                        if beta is not None and t == 2:
                            run = [v * beta[i] for v, i in zip(run, idx)]
                        coef_runs[c, step, start] = run, [j for j, v in enumerate(run) if not v]
                    if (s, start) not in out_runs:
                        out_runs[s, start] = [vectors.setdefault(v, v) for v in [(family, s + x2 * i) for i in idx]]
                    run, zeros = coef_runs[c, step, start]
                    lo = row + start
                    coefs[lo : lo + len(run)] = run
                    outs[lo : lo + len(run)] = out_runs[s, start]
                    for j in zeros:
                        outs[lo + j] = None
    return coefs, outs


omega_triple = rule_kernel(RULES["omega"])


def fk_triple_fn(k: int, f: FunctionalSpec):
    """Closed-form basis bracket for fk(k, f), as a reusable callable."""
    return rule_kernel(RULES["fk"], k, f)


@lru_cache(maxsize=128)
def closed_triple_fn(spec: TriBracketSpec) -> Callable:
    """The basis kernel of a bracket, built once per spec."""
    return rule_kernel(*bracket_rules(spec))


@lru_cache(maxsize=128)
def integral_spec(spec: TriBracketSpec) -> Tuple[int, TriBracketSpec]:
    """(B, the bracket with its weight scaled by B), B the weight's
    denominator bound: every coefficient of the scaled bracket's kernel is
    an int, B times the bracket's.  (1, spec) for omega and integer weights."""
    weight = bracket_rules(spec)[2]
    unit = 1 if weight is None else weight.denominator()
    return (1, spec) if unit == 1 else (unit, FKBracket(spec.k, weight.scaled(unit)))


# -- ternary brackets on general elements --------------------------------


def _bracket_into(triple: Callable, unit: int, u, v, w, out: dict) -> dict:
    """Add [u, v, w] into ``out``, keyed by output (family, index), with u,
    v, w given as (vector, coefficient) pairs, through the kernel of a
    bracket whose weight is scaled by ``unit`` (its bound B): every kernel
    coefficient must be an int, so ``out`` holds B times the bracket."""
    get = out.get
    for b1, c1 in u:
        for b2, c2 in v:
            c12 = c1 * c2
            for b3, c3 in w:
                res = triple(b1, b2, b3)
                if res is None:
                    continue
                coef = res[0]
                if coef.__class__ is not int:
                    _not_divided(coef, unit)
                key = res[1:]
                out[key] = get(key, 0) + c12 * c3 * coef
    return out


def _not_divided(coef, unit: int):
    """Raise for a non-int coefficient of a kernel scaled by ``unit``."""
    raise ValueError(f"kernel coefficient {coef / unit} has a denominator that does not divide {unit}")


def tri_bracket(spec: TriBracketSpec, u: Element, v: Element, w: Element) -> Element:
    """[u, v, w]: one pass over the terms through the kernel of
    ``integral_spec(spec)``, divided back by its B."""
    unit, scaled = integral_spec(spec)
    out = _bracket_into(closed_triple_fn(scaled), unit, u.terms.items(), v.terms.items(), w.terms.items(), {})
    if unit > 1:
        out = {vec: Fraction(c, unit) for vec, c in out.items()}
    return Element({BasisVector(*vec): c for vec, c in out.items()})


def _certify_with_pairs(lie: LieBracketSpec, f: FunctionalSpec, window: Window):
    """The certificate that f([b1, b2]) = 0 on all window basis pairs, and
    the Lie-pair table it certified: entry [i][j] is [basis[i], basis[j]],
    the window basis in order."""
    rep = VerdictReport(
        "functional-vanishing-certificate",
        {"lie": lie.describe(), "beta": f.describe(), "window": str(window)},
    )
    basis = window_basis(window)
    pairs = _lie_pairs(lie, basis)
    for b1, row in zip(basis, pairs):
        for b2, value in zip(basis, row):
            val = functional_eval(f, value)
            if val:
                rep.record_failure(f"f([{b1}, {b2}]) = {val} != 0")
    rep.stats["pairs"] = len(basis) ** 2
    return rep, pairs


# -- deterministic random elements ---------------------------------------

COEFF_POOL = (1, -1, Fraction(1, 2), Fraction(-1, 2), 2, -2, Fraction(1, 3), Fraction(-1, 3))
MAX_TERMS = 4


def random_element(rng: random.Random, window: Window) -> Element:
    """Seeded small element: support <= MAX_TERMS inside the window,
    coefficients from a fixed rational pool."""
    n = rng.randint(1, MAX_TERMS)
    terms = {}
    for _ in range(n):
        fam = rng.choice((FAMILY_L, FAMILY_M))
        idx = rng.randint(window.lo, window.hi)
        terms[BasisVector(fam, idx)] = rng.choice(COEFF_POOL)
    return Element(terms)


# -- identity checkers ----------------------------------------------------

def _kernel_element(coef, out, unit: int = 1) -> Element:
    """A table entry as an Element, its coefficient divided by ``unit``."""
    return Element() if out is None else Element({BasisVector(*out): Fraction(coef, unit)})


def check_anticommutativity(spec: TriBracketSpec, window: Window) -> VerdictReport:
    """Total antisymmetry under all six permutations, every basis triple,
    on the ``rule_table`` of the closed-form kernel with the weight scaled to
    integers (``integral_spec``).
    Each permuted copy, gathered by n*n extended slices, is compared with the
    table as a whole list; mismatches are reported by (triple, permutation)."""
    rep = VerdictReport(
        "anticommutativity", {"bracket": spec.describe(), "window": str(window)}
    )
    basis = window_basis(window)
    n = len(basis)
    unit, scaled = integral_spec(spec)
    kernel = closed_triple_fn(scaled)
    # entry i*n*n + j*n + k is the kernel on (basis[i], basis[j], basis[k])
    coefs, outs = rule_table(kernel, (basis,) * 3)
    flipped = list(map(neg, coefs))
    mismatches = []
    for perm, sign in PERMUTATIONS[1:]:
        # entry x of a permuted copy is the kernel on triple x with its slots permuted
        s0, s1, s2 = (n ** (2 - perm.index(m)) for m in range(3))
        starts = [p0 * s0 + p1 * s1 for p0 in range(n) for p1 in range(n)]
        pc, po = ([*chain.from_iterable(values[st : st + n * s2 : s2] for st in starts)] for values in (coefs, outs))
        want = coefs if sign > 0 else flipped
        if pc != want or po != outs:
            mismatches += [(x, perm, pc[x], po[x]) for x in range(n**3) if pc[x] != want[x] or po[x] != outs[x]]
    for x, perm, c, out in sorted(mismatches):
        rep.record_failure(
            f"[{basis[x // n // n]}, {basis[x // n % n]}, {basis[x % n]}] vs permutation {perm}: "
            f"{_kernel_element(coefs[x], outs[x], unit)} / {_kernel_element(c, out, unit)}"
        )
    rep.stats["permutation_checks"] = 5 * n**3
    return rep


# -- nested identities in five slots ----------------------------------------
#
# An identity is a tuple of terms (sign, inner, outer) and claims that the
# signed terms sum to zero.  Each term is a bracket of brackets: the inner
# bracket takes the slots named by ``inner``; the outer bracket takes the
# slots named by ``outer``, where slot INNER holds the inner value.
#
# Every table-driven check reads the kernel of ``integral_spec(spec)``: the
# weight is scaled by its denominator bound B, so each kernel coefficient is
# an int, B times the bracket's, and B is divided back only into a failure
# text or a nonzero residual.
#
# Element brackets read the same kernel through one loop, ``_bracket_into``,
# one kernel call per term triple.  ``tri_bracket`` is one pass of it over
# the Elements' own coefficients, divided by B when B > 1.  On element
# 5-tuples (the sampled ones) an identity is one integer pass: each argument
# is scaled once by the lcm D_i of its denominators, and a term brackets its
# arguments and its inner value by two passes, so every term is an int map
# over D_0*...*D_4 * B**2: inner values stay unreduced, and only a nonzero
# residual is divided back into an Element.  Measured per call against the
# two loops this one replaced (2-core x86_64 VM, CPython 3.11): a one-term
# omega ``tri_bracket`` 2.1 -> 3.0 us, a four-term one 50 us either way, a
# fundamental-identity residual 132 -> 126 us under omega and 65 us either
# way under fk.

INNER = 5

# [[u1,u2,u3],v2,v3] = [[u1,v2,v3],u2,u3] + [u1,[u2,v2,v3],u3] + [u1,u2,[u3,v2,v3]]
FUNDAMENTAL_IDENTITY = (
    (1, (0, 1, 2), (INNER, 3, 4)),
    (-1, (0, 3, 4), (INNER, 1, 2)),
    (-1, (1, 3, 4), (0, INNER, 2)),
    (-1, (2, 3, 4), (0, 1, INNER)),
)


@lru_cache(maxsize=None)
def _check_term(sign: int, inner: tuple, outer: tuple) -> None:
    """Raise unless a nested term has a unit sign and brackets each slot
    once, with the inner value in the outer bracket."""
    if sign not in (1, -1) or INNER in inner or sorted((*inner, *outer)) != [0, 1, 2, 3, 4, INNER]:
        raise ValueError(f"nested term {sign}, {inner}, {outer} needs a unit sign and each slot once")


def identity_residual(spec: TriBracketSpec, identity, args: Sequence[Element]) -> Element:
    """The exact residual of a nested identity on five elements, in one
    integer pass of ``_bracket_into`` per bracket."""
    unit, scaled = integral_spec(spec)
    triple = closed_triple_fn(scaled)
    den = unit * unit
    slots = []
    for arg in args:
        d, terms = integral(arg.terms)
        den *= d
        slots.append(tuple(terms.items()))
    slots.append(())  # slot INNER
    out = {}
    for sign, inner, outer in identity:
        _check_term(sign, inner, outer)
        a, b, c = inner
        value = _bracket_into(triple, unit, slots[a], slots[b], slots[c], {})
        slots[INNER] = tuple((vec, sign * n) for vec, n in value.items() if n)
        if slots[INNER]:
            a, b, c = outer
            _bracket_into(triple, unit, slots[a], slots[b], slots[c], out)
    return Element({BasisVector(*vec): c for vec, c in divided(out, den).items()})


# -- the graded scalar-residual kernel of the basis sweeps -------------------
#
# Both closed-form brackets are graded: every nonzero basis bracket has one
# L fewer than its arguments, and its degree is the sum of theirs, with
# deg L_r = r and deg M_t = -t (omega) or k (fk).  Every term of a nested
# identity brackets all five slots, so on a basis 5-tuple all its nonzero
# terms land on one basis vector and the residual is a single scalar.  The
# grading is checked, never assumed: once per rule when the rules carry it,
# on every nonzero table entry otherwise.
#
# The sweep runs over the slots (a0, a1, a2) and evaluates each identity on
# all n*n "lanes" (a3, a4) at once, lane a3*n + a4, as one exact int that
# holds lane l in the w-bit field sum(v[l] << w*l) (Kronecker substitution).
# The field width bounds every lane of a residual below 2**(w-1) in
# magnitude, so a packed residual is 0 exactly when every lane is 0, and
# only a failing (a0, a1, a2) is unpacked.

LANES = (3, 4)

# the argument position of each slot (vector, x, y) of the table outer[p]
OUTER_AT = ((0, 1, 2), (1, 0, 2), (2, 0, 1))


def _sweep_tables(spec: TriBracketSpec, basis: Sequence[Triple]):
    """Integer tables of the kernel of ``integral_spec(spec)``: B times the
    bracket's values, B its weight's denominator bound.

    Returns (coef, base, outer):
    * coef[i], base[i]: the kernel on the i-th triple of
      ``product(basis, repeat=3)``, as its coefficient and its output's
      code times n*n;
    * outer[p][code*n*n + x*n + y]: the coefficient of the bracket with the
      coded vector at position p and basis[x], basis[y] at the other two.

    Codes number the inner outputs that occur, so every one has a code.
    Every table is read through ``rule_table``.  When each rule's output
    family and index form are the grading's, no value can break it, and
    every value is an int once beta is an int at each basis index, checked
    once per index.  Otherwise (a plain kernel, a rule off the grading or a
    beta value that is not an int) every nonzero entry is held to the
    grading and must be an int.
    """
    unit, scaled = integral_spec(spec)
    triple = closed_triple_fn(scaled)
    is_omega = isinstance(spec, OmegaBracket)
    # the grading law: a vector's degree is a * index + b, (a, b) by its family,
    # and a nonzero bracket lands on family f at sign * the degree sum of its
    # arguments, (f, sign) by how many of them are L; elsewhere it is zero
    form = {FAMILY_L: (1, 0), FAMILY_M: (-1, 0) if is_omega else (0, spec.k)}
    lands = {2: (FAMILY_L, 1), 1: (FAMILY_M, -1)} if is_omega else {2: (FAMILY_L, 1)}

    def graded(vecs):
        """Each vector with its (is L, degree)."""
        return [(vec, vec[0] == FAMILY_L, form[vec[0]][0] * vec[1] + form[vec[0]][1]) for vec in vecs]

    def graded_rule(pattern, rule, shift: int) -> bool:
        """Whether the grading puts every value of a rule where it lands."""
        family, sign = lands.get(pattern.count(FAMILY_L), (None, 0))  # no rule lands on family None
        index, constant = zip(*map(form.get, pattern))
        return rule[:2] == (family, tuple(sign * a for a in index)) and shift == sign * sum(constant)

    rules = getattr(triple, "rules", None)
    # on the grading every fk output is an L vector, so beta is read only at basis M vectors
    by_rules = (
        rules is not None
        and all(graded_rule(*item, rules[1]) for item in rules[0].items())
        and (rules[2] is None or all(rules[2].beta(i).__class__ is int for f, i in basis if f == FAMILY_M))
    )
    graded_basis = graded(basis)

    def table(first, p: int):
        """The kernel's (coefficients, outputs) with a vector of ``first`` at
        position p and basis vectors x, y at the other two, in the order
        (vector, x, y)."""
        coefs, outs = rule_table(triple, (first, basis, basis), OUTER_AT[p])
        if by_rules:
            return coefs, outs
        entries = zip(product(graded(first), graded_basis, graded_basis), coefs, outs)
        for ((v, lv, dv), (x, lx, dx), (y, ly, dy)), c, out in entries:
            if out is None:
                continue
            family, sign = lands.get(lv + lx + ly, (None, 0))
            want = None if family is None else (family, sign * (dv + dx + dy))
            if out != want:
                args = (v, x, y) if p == 0 else (x, v, y) if p == 1 else (x, y, v)
                raise ConfigError(
                    f"{spec.describe()} breaks its grading: [{', '.join(map(str, args))}] "
                    f"lands on {out}, the grading puts it on {want}"
                )
            if c.__class__ is not int:
                _not_divided(c, unit)
        return coefs, outs

    n2 = len(basis) ** 2
    coef, outs = table(basis, 0)
    ext = sorted({vec for vec in outs if vec is not None})
    code = {vec: i for i, vec in enumerate(ext)}
    base = [0 if vec is None else code[vec] * n2 for vec in outs]
    return coef, base, [table(ext, p)[0] for p in range(3)]


def _field_width(tables, terms: int) -> int:
    """The w with terms * max|inner coef| * max|outer coef| < 2**(w-1)."""
    coef, _, outer = tables
    return (terms * max(map(abs, coef)) * max(map(abs, chain(*outer)), default=0)).bit_length() + 1


def _unpack(row: int, w: int, count: int) -> list:
    """The first ``count`` fields of a packed row, each below 2**(w-1) in magnitude, as signed ints."""
    half, mask = 1 << w - 1, (1 << w) - 1
    row += sum(half << w * i for i in range(count))
    return [(row >> w * i & mask) - half for i in range(count)]


def _lane_splits(slots, n: int, w: int) -> list:
    """Entry r, for r < n**len(slots) with base-n digits holding ``slots``:
    (the part of r in the digits of lane slots, the shift of their field)."""
    splits = [(0, 0)]
    for k, s in enumerate(slots):
        weight, field = n ** (len(slots) - 1 - k), w * (n if s == 3 else 1)
        steps = [(d * weight, d * field) if s in LANES else (0, 0) for d in range(n)]
        splits = [(drop + dd, shift + ds) for drop, shift in splits for dd, ds in steps]
    return splits


def _compile_term(sign, inner, outer, n: int, tables, w: int, cache: dict) -> Callable:
    """A function of (a0, a1, a2) giving the term's signed packed row over
    the lanes.  The row sums part[b] * packed[b + offset] over the inner
    outputs b: part packs the inner coefficients over the lanes the inner
    bracket holds, packed the outer table over the lanes the outer bracket
    holds, and the fixed slots pick the part and the offset.  Both depend
    only on where the lanes sit, so terms share them through ``cache``."""
    _check_term(sign, inner, outer)
    coef, base, outer_tables = tables
    x, y = (s for s in outer if s != INNER)
    table, n2 = outer_tables[outer.index(INNER)], n * n
    if ("out", outer) not in cache and {x, y} & set(LANES):
        splits = _lane_splits((x, y), n, w)
        cache["out", outer] = packed = [0] * len(table)
        for j, v in enumerate(table):
            if v:
                drop, shift = splits[j % n2]
                packed[j - drop] += v << shift
    packed = cache.get(("out", outer), table)
    u0, u1, u2 = (n ** (2 - inner.index(s)) if s in inner else 0 for s in range(3))
    v0, v1, v2 = ((n if s == x else 1) if s in (x, y) else 0 for s in range(3))
    if not set(inner) & set(LANES):  # one inner coefficient times one packed outer row

        def term(a0, a1, a2):
            i = a0 * u0 + a1 * u1 + a2 * u2
            return sign * coef[i] * packed[base[i]] if coef[i] else 0

        return term
    if ("in", inner) not in cache:
        splits, groups = _lane_splits(inner, n, w), {}
        for i, c in enumerate(coef):
            if c:
                drop, shift = splits[i]
                group = groups.setdefault(i - drop, {})
                group[base[i]] = group.get(base[i], 0) + (c << shift)
        cache["in", inner] = {  # codes are n*n apart in base: a slice of packed
            key: (min(g), max(g) + n2, [g.get(b, 0) for b in range(min(g), max(g) + 1, n2)])
            for key, g in groups.items()
        }
    parts = cache["in", inner]

    def term(a0, a1, a2):
        lo, hi, factors = parts.get(a0 * u0 + a1 * u1 + a2 * u2, (0, 0, ()))  # () when zero on every lane
        row = sum(map(mul, factors, packed[lo + a0 * v0 + a1 * v1 + a2 * v2 : hi : n2]))
        return row if sign > 0 else -row

    return term


def _symmetries(identity) -> list:
    """The (perm, sign) of PERMUTATIONS with R(a permuted by perm) = sign * R(a)
    for the residual R of a nested identity under a totally antisymmetric
    bracket: relabelling slots 0-2 by perm gives sign times the same terms,
    once each bracket's slots are sorted and each term's sign multiplied by
    the parity of the sorts."""

    def terms(perm) -> dict:
        out, relabel = {}, (*perm, 3, 4, INNER)
        for sign, *pair in identity:
            pair = [[relabel[s] for s in slots] for slots in pair]
            key = tuple(tuple(sorted(slots)) for slots in pair)
            out[key] = out.get(key, 0) + sign * (-1) ** sum(x > y for s in pair for x, y in combinations(s, 2))
        return {key: c for key, c in out.items() if c}

    base = terms((0, 1, 2))
    return [(perm, e) for perm, _ in PERMUTATIONS for e in (1, -1) if terms(perm) == {k: e * c for k, c in base.items()}]


def _antisymmetric(rules, weight) -> bool:
    """Whether the rules make the kernel totally antisymmetric at every
    index: each permuted pattern holds the permuted rule, its coefficient
    form times the sign, and under a weight slot t where the permutation
    puts it."""
    for pattern, (family, index, coef, t) in rules.items():
        for perm, sign in PERMUTATIONS:
            rule = rules.get(tuple(pattern[j] for j in perm))
            want = (family, tuple(index[j] for j in perm), tuple(sign * coef[j] for j in perm))
            if rule is None or rule[:3] != want or (weight is not None and rule[3] != perm.index(t)):
                return False
    return True


def _representatives(symmetries, n: int) -> list:
    """The lex-least triple of each orbit of the symmetries on range(n)**3
    whose stabiliser holds no odd element: a triple fixed by an odd one has
    R = -R = 0."""
    reps = list(product(range(n), repeat=3))
    for perm, sign in symmetries:
        reps = [a for a, b in zip(reps, map(itemgetter(*perm), reps)) if b > a or (b == a and sign > 0)]
    return reps


def _index_triples(n: int, orbits: bool):
    """(i, j, the range of l) over every triple of range(n) in lexicographic
    order, or with ``orbits`` over the strictly increasing ones: those are
    ``_representatives(PERMUTATIONS, n)``, one per orbit of the six
    permutations, since a triple with a repeated index is fixed by an odd
    transposition."""
    for i in range(n):
        for j in range(i + 1, n - 1) if orbits else range(n):
            yield i, j, range(j + 1, n) if orbits else range(n)


def check_nested_identities(
    rep: VerdictReport, spec: TriBracketSpec, window: Window, samples: int, seed: int, checks
) -> None:
    """Record every failure of the given nested identities: on all window
    basis 5-tuples, then on seeded random element 5-tuples.

    Each check is (identity, basis message, sample message); the basis
    message formats the five basis slots, the sample message may name
    {residual} and {args}.  Basis tuples go through the graded
    scalar-residual kernel, and every one is decided.  When the kernel's
    rules are antisymmetric at every index, an identity's residual changes
    only by a sign under its symmetries (``_symmetries``), so the sweep
    evaluates it on one representative (a0, a1, a2) per orbit and all n*n
    lanes.  A kernel without rules, rules that are not antisymmetric and
    any failing representative take the full sweep over every (a0, a1,
    a2), which records failures with tuples in lexicographic order, then
    identities in order.
    """
    basis = [(bv.family, bv.index) for bv in window_basis(window)]
    n = len(basis)
    tables = _sweep_tables(spec, basis)
    w = _field_width(tables, max(len(identity) for identity, _, _ in checks))
    cache = {}
    identities = [[_compile_term(*term, n, tables, w, cache) for term in identity] for identity, _, _ in checks]
    rules = getattr(closed_triple_fn(integral_spec(spec)[1]), "rules", None)
    decided = (
        rules is not None
        and _antisymmetric(rules[0], rules[2])
        and not any(
            sum([term(*a) for term in terms])
            for (identity, _, _), terms in zip(checks, identities)
            for a in _representatives(_symmetries(identity), n)
        )
    )

    def basis_text(message: str, slots) -> str:
        return message.format(*(basis[i] for i in slots))

    for a in () if decided else product(range(n), repeat=3):
        failing = []
        for pos, terms in enumerate(identities):
            row = sum([term(*a) for term in terms])
            if row:
                failing += ((lane, pos) for lane, v in enumerate(_unpack(row, w, n * n)) if v)
        for lane, pos in sorted(failing):
            rep.record_failure(partial(basis_text, checks[pos][1], (*a, *divmod(lane, n))))
    rep.stats["basis_tuples"] = n**5
    rng = random.Random(seed)
    for _ in range(samples):
        args = [random_element(rng, window) for _ in range(5)]
        for identity, _, message in checks:
            res = identity_residual(spec, identity, args)
            if res:
                rep.record_failure(message.format(residual=res, args="; ".join(map(str, args))))
    rep.stats["sampled_tuples"] = samples


def check_fundamental_identity(
    spec: TriBracketSpec, window: Window, sample_elements: int = 0, seed: int = 0
) -> VerdictReport:
    """The generalized Jacobi identity, exhaustively over basis 5-tuples in
    the window plus seeded random element 5-tuples, with exact residuals."""
    rep = VerdictReport(
        "fundamental-identity",
        {
            "bracket": spec.describe(),
            "window": str(window),
            "samples": sample_elements,
            "seed": seed,
        },
    )
    message = "residual nonzero at basis tuple {},{},{};{},{}"
    check_nested_identities(
        rep, spec, window, sample_elements, seed,
        [(FUNDAMENTAL_IDENTITY, message, "residual {residual} at sampled tuple {args}")],
    )
    return rep


def check_constructor_agreement(
    window: Window, k: int, f: FunctionalSpec
) -> VerdictReport:
    """Two agreements on every window basis triple:

    (a) the functional construction over [ , ]_k reproduces fk(k, f);
    (b) the determinant construction reproduces the omega bracket.

    Each route is combined per triple from integer tables built once per
    call: for (a) f on basis vectors, scaled by the lcm F of its
    denominators, and the Lie bracket on basis pairs (the table the
    certificate of f brackets), scaled by the lcm P of its denominators;
    for (b) the rows (omega, identity, delta) of basis vectors, scaled by
    the lcm R of their denominators, and the cofactors on basis pairs of
    the determinant with those rows, which carry R^2.  A triple's
    determinant multiplies cofactor and row terms under the algebra
    product, memoised per key pair.  Each route is compared with the entry
    of the closed-form kernel's ``rule_table`` times F*P or R^3, and only a
    counterexample divides the route back into an Element to print the two
    values.

    Both sides of both agreements are alternating when what the check reads
    makes them so, and then agreement on the strictly increasing triples
    decides all n**3: a permutation multiplies every side by its sign, and
    a triple with a repeated vector is zero on every side.  That holds when
    (1) both kernels' rules are totally antisymmetric (``_antisymmetric``),
    so a permuted table entry is the signed entry and a repeated vector
    gives 0; (2) the certified Lie-pair table is antisymmetric, its
    diagonal empty, so the functional route is alternating; and (3) the
    product is commutative on the keys the rows hold.  With (3) the
    determinant is alternating in its rows, because the product is also
    associative: ``Element._product_key`` adds the indices of one family
    and gives zero across families, and each row term is one key times an
    int.  All three are checked first; if one fails, or a representative
    disagrees, every triple is compared in lexicographic order, so the
    failures are the full sweep's.
    """
    rep = VerdictReport(
        "constructor-agreement",
        {"window": str(window), "k": k, "beta": f.describe()},
    )
    cert, pairs = _certify_with_pairs(DkInduced(k), f, window)
    rep.merge_status(cert)
    rep.notes.extend(cert.notes)
    if cert.status != PASS:
        rep.counterexamples.extend(cert.counterexamples)
        return rep
    basis = window_basis(window)
    n = len(basis)
    kernels = [closed_triple_fn(spec) for spec in (FKBracket(k, f), OMEGA)]
    fk_table, omega_table = (rule_table(kernel, (basis,) * 3) for kernel in kernels)
    units = [Element({bv: 1}) for bv in basis]
    weights = [functional_eval(f, u) for u in units]
    rows = [(omega(u), u, delta(u)) for u in units]
    lie_scale = lcm(*(c.denominator for row in pairs for value in row for c in value.terms.values()))
    f_scale = lcm(*(c.denominator for c in weights))
    row_scale = lcm(*(c.denominator for row in rows for x in row for c in x.terms.values()))
    fk_scale, omega_scale = f_scale * lie_scale, row_scale**3
    lie = [[tuple((bv, int(c * lie_scale)) for bv, c in value.terms.items()) for value in row] for row in pairs]
    weights = [int(c * f_scale) for c in weights]
    rows = [tuple(x.scale(row_scale) for x in row) for row in rows]
    row_terms = [[(b, pos, c) for pos, x in enumerate(row) for b, c in x.terms.items()] for row in rows]
    product_key = lru_cache(maxsize=None)(Element._product_key)

    def agrees(acc: dict, table, scale: int, x: int) -> bool:
        """Whether the int accumulator, zeros aside, is entry x of the table times scale."""
        out = table[1][x]
        return {key: c for key, c in acc.items() if c} == ({} if out is None else {out: table[0][x] * scale})

    def failures(orbits: bool):
        """(route name, accumulator, table, scale, entry) of each disagreement
        on ``_index_triples(n, orbits)``, the functional route first."""
        for i, j, ls in _index_triples(n, orbits):
            cofactors = [tuple(c.terms.items()) for c in permutation_cofactors(rows[i], rows[j], Element())]
            f1, f2 = weights[i], weights[j]
            for l in ls:
                x = (i * n + j) * n + l
                route = {}
                for weight, terms in ((f1, lie[j][l]), (f2, lie[l][i]), (weights[l], lie[i][j])):
                    if weight:
                        for bv, c in terms:
                            route[bv] = route.get(bv, 0) + weight * c
                if (route or fk_table[1][x]) and not agrees(route, fk_table, fk_scale, x):
                    yield "functional", route, fk_table, fk_scale, x
                det = {}
                for b, pos, c in row_terms[l]:
                    for a, ca in cofactors[pos]:
                        key = product_key(a, b)
                        if key is not None:
                            det[key] = det.get(key, 0) + ca * c
                if (det or omega_table[1][x]) and not agrees(det, omega_table, omega_scale, x):
                    yield "determinant", det, omega_table, omega_scale, x

    def text(name: str, acc: dict, table, scale: int, x: int) -> str:
        value = Element(divided({key: c for key, c in acc.items() if c}, scale))
        return (
            f"{name} route {value} != closed form {_kernel_element(table[0][x], table[1][x])} "
            f"on [{units[x // n // n]},{units[x // n % n]},{units[x % n]}]"
        )

    keys = {b for terms in row_terms for b, _, _ in terms}
    decided = (
        all(hasattr(kernel, "rules") and _antisymmetric(kernel.rules[0], kernel.rules[2]) for kernel in kernels)
        and all(pairs[i][j] == -pairs[j][i] for i in range(n) for j in range(i, n))
        and all(product_key(a, b) == product_key(b, a) for a, b in combinations(keys, 2))
        and not any(failures(True))
    )
    for failure in () if decided else failures(False):
        rep.record_failure(partial(text, *failure))
    rep.stats["triples"] = n**3
    rep.note("functional route uses the Lie bracket induced by d_k, as in the source proof")
    return rep


# -- window centre of a Lie bracket ---------------------------------------


def center_window(spec: LieBracketSpec, window: Window):
    """Exact solution space of [x, b] = 0 for every window basis vector b.

    Results of brackets are kept in full (indices may leave the window);
    every output coordinate must vanish.  Returns (basis vectors of the
    solution space as Elements, report).
    """
    rep = VerdictReport("center", {"lie": spec.describe(), "window": str(window)})
    unknowns = list(window_basis(window))
    eq_rows = {}  # one equation per (bprime, output coordinate)
    for b, row in zip(unknowns, _lie_pairs(spec, unknowns)):
        for bprime, res in zip(unknowns, row):
            for out_bv, c in res.terms.items():
                eq_rows.setdefault((bprime, out_bv), {})[b] = c
    kernel = null_space(list(eq_rows.values()), unknowns)
    center = [Element(vec) for vec in kernel]
    rep.stats["dimension"] = len(center)
    rep.note(
        "solution space is exact for commutation against window basis vectors; "
        "vectors central here need not be central against out-of-window basis "
        "vectors (window-boundary caveat)"
    )
    for elem in center:
        rep.note(f"central: {elem}")
    return center, rep
