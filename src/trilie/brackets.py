"""Binary and ternary brackets on A, with exact identity checkers.

Two ternary brackets are primitive:

* the weighted bracket ``fk(k, f)``: the only nonzero products are
  [L_r, L_s, M_t] = beta_t * (r - s) * L_{r+s+k}, with beta_t = f(M_t);
* the involution bracket ``omega``: [L_r, L_s, M_t] = (s - r) * L_{r+s-t}
  and [L_r, M_s, M_t] = (t - s) * M_{s+t-r}.

Each also arises from a general constructor, and the checkers confirm
the two routes agree coefficient-exactly:

* from a Lie bracket [ , ]_k = d_k(u) v - u d_k(v) and a functional f
  vanishing on brackets: [u,v,w] = f(u)[v,w] + f(v)[w,u] + f(w)[u,v];
* from the determinant with rows (omega-row, identity row, delta-row).

Brackets of window elements may land outside the window; results are
always compared as full exact elements, never truncations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import itemgetter
from typing import Callable, Optional, Sequence, Tuple, Union

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
from .report import PASS, VerdictReport, Window

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

    def describe(self) -> str:
        return f"fk(k={self.k}, beta={self.functional.describe()})"


@dataclass(frozen=True)
class FromFunctionalBracket:
    """Ternary bracket built from a Lie bracket and a functional.

    Evaluation requires that f vanishes on Lie brackets; this is never
    assumed, it is certified on a window first (``certify``), and the
    bracket refuses to evaluate arguments outside the certified window.
    """

    lie: LieBracketSpec
    functional: FunctionalSpec
    certified: Optional[Window] = None

    def describe(self) -> str:
        cert = str(self.certified) if self.certified else "uncertified"
        return f"from-functional(lie={self.lie.describe()}, beta={self.functional.describe()}, certified={cert})"


@dataclass(frozen=True)
class DeterminantBracket:
    def describe(self) -> str:
        return "determinant"


TriBracketSpec = Union[OmegaBracket, FKBracket, FromFunctionalBracket, DeterminantBracket]

OMEGA = OmegaBracket()
DETERMINANT = DeterminantBracket()


class BracketPreconditionError(ValueError):
    """Raised when a bracket is evaluated without its certified hypothesis."""


# -- Lie brackets -------------------------------------------------------


def lie_bracket(spec: LieBracketSpec, u: Element, v: Element) -> Element:
    if isinstance(spec, DkInduced):
        return d_k(spec.k, u) * v - u * d_k(spec.k, v)
    if isinstance(spec, FixedThird):
        return tri_bracket(OMEGA, u, v, Element.basis(spec.family, spec.k))
    raise TypeError(f"unknown Lie bracket spec {spec!r}")


# -- fast closed forms on basis triples ---------------------------------
#
# Triples are (family, index) pairs; the return value is
# (integer-or-rational coefficient, family, index) or None for zero.
# These are the hot path of the exhaustive sweeps.

Triple = Tuple[str, int]


def omega_triple(a: Triple, b: Triple, c: Triple):
    fa, ia = a
    fb, ib = b
    fc, ic = c
    if fa == FAMILY_L:
        if fb == FAMILY_L:
            if fc == FAMILY_L:
                return None
            r, s, t = ia, ib, ic                      # (L, L, M)
            coef = s - r
            return (coef, FAMILY_L, r + s - t) if coef else None
        if fc == FAMILY_L:                            # (L, M, L) ~ -(L, L, M)
            r, s, t = ia, ic, ib
            coef = r - s
            return (coef, FAMILY_L, r + s - t) if coef else None
        r, s, t = ia, ib, ic                          # (L, M, M)
        coef = t - s
        return (coef, FAMILY_M, s + t - r) if coef else None
    # fa == M
    if fb == FAMILY_L:
        if fc == FAMILY_L:                            # (M, L, L) ~ +(L, L, M) cyclic
            r, s, t = ib, ic, ia
            coef = s - r
            return (coef, FAMILY_L, r + s - t) if coef else None
        r, s, t = ib, ia, ic                          # (M, L, M) ~ -(L, M, M)
        coef = s - t
        return (coef, FAMILY_M, s + t - r) if coef else None
    if fc == FAMILY_L:                                # (M, M, L) ~ +(L, M, M) cyclic
        r, s, t = ic, ia, ib
        coef = t - s
        return (coef, FAMILY_M, s + t - r) if coef else None
    return None                                       # (M, M, M)


def fk_triple_fn(k: int, f: FunctionalSpec):
    """Closed-form basis bracket for fk(k, f), as a reusable callable."""

    beta = f.beta

    def triple(a: Triple, b: Triple, c: Triple):
        fa, ia = a
        fb, ib = b
        fc, ic = c
        nL = (fa == FAMILY_L) + (fb == FAMILY_L) + (fc == FAMILY_L)
        if nL != 2:
            return None
        if fa == FAMILY_M:
            r, s, t, sign = ib, ic, ia, 1             # cyclic (M,L,L) -> (L,L,M)
        elif fb == FAMILY_M:
            r, s, t, sign = ia, ic, ib, -1            # swap last two
        else:
            r, s, t, sign = ia, ib, ic, 1
        coef = beta(t) * (r - s) * sign
        return (coef, FAMILY_L, r + s + k) if coef else None

    return triple


def closed_triple_fn(spec: TriBracketSpec) -> Optional[Callable]:
    if isinstance(spec, OmegaBracket):
        return omega_triple
    if isinstance(spec, FKBracket):
        return fk_triple_fn(spec.k, spec.functional)
    return None


# -- ternary brackets on general elements --------------------------------


def tri_bracket(spec: TriBracketSpec, u: Element, v: Element, w: Element) -> Element:
    if isinstance(spec, (OmegaBracket, FKBracket)):
        triple = closed_triple_fn(spec)
        out = {}
        for b1, c1 in u.terms.items():
            for b2, c2 in v.terms.items():
                c12 = c1 * c2
                for b3, c3 in w.terms.items():
                    res = triple(b1, b2, b3)
                    if res is None:
                        continue
                    coef, fam, idx = res
                    bv = BasisVector(fam, idx)
                    s = out.get(bv, 0) + c12 * c3 * coef
                    if s:
                        out[bv] = s
                    else:
                        out.pop(bv, None)
        return Element(out)
    if isinstance(spec, FromFunctionalBracket):
        if spec.certified is None:
            raise BracketPreconditionError(
                "from-functional bracket used without certifying that the "
                "functional vanishes on Lie brackets; call certify_from_functional first"
            )
        for elem in (u, v, w):
            for bv in elem.terms:
                if bv.index not in spec.certified:
                    raise BracketPreconditionError(
                        f"argument index {bv.index} outside certified window {spec.certified}"
                    )
        f, lie = spec.functional, spec.lie
        out = Element.zero()
        out = out + lie_bracket(lie, v, w).scale(functional_eval(f, u))
        out = out + lie_bracket(lie, w, u).scale(functional_eval(f, v))
        out = out + lie_bracket(lie, u, v).scale(functional_eval(f, w))
        return out
    if isinstance(spec, DeterminantBracket):
        ou, ov, ow = omega(u), omega(v), omega(w)
        du, dv, dw = delta(u), delta(v), delta(w)
        return (
            ou * (v * dw - w * dv)
            - ov * (u * dw - w * du)
            + ow * (u * dv - v * du)
        )
    raise TypeError(f"unknown ternary bracket spec {spec!r}")


def certify_from_functional(
    lie: LieBracketSpec, f: FunctionalSpec, window: Window
) -> Tuple[FromFunctionalBracket, VerdictReport]:
    """Certify f([b1, b2]) = 0 on all window basis pairs, then hand back a
    bracket spec that is allowed to evaluate on that window."""
    rep = VerdictReport(
        "functional-vanishing-certificate",
        {"lie": lie.describe(), "beta": f.describe(), "window": str(window)},
    )
    basis = window_basis(window)
    for b1 in basis:
        for b2 in basis:
            val = functional_eval(f, lie_bracket(lie, Element({b1: 1}), Element({b2: 1})))
            if val:
                rep.record_failure(f"f([{b1}, {b2}]) = {val} != 0")
    rep.stats["pairs"] = len(basis) ** 2
    certified = window if rep.status == PASS else None
    return FromFunctionalBracket(lie, f, certified), rep


# -- deterministic random elements ---------------------------------------

COEFF_POOL = (1, -1, Fraction(1, 2), Fraction(-1, 2), 2, -2, Fraction(1, 3), Fraction(-1, 3))


def random_element(rng: random.Random, window: Window, max_terms: int = 4) -> Element:
    """Seeded small element: support <= max_terms inside the window,
    coefficients from a fixed rational pool."""
    n = rng.randint(1, max_terms)
    terms = {}
    for _ in range(n):
        fam = rng.choice((FAMILY_L, FAMILY_M))
        idx = rng.randint(window.lo, window.hi)
        terms[BasisVector(fam, idx)] = rng.choice(COEFF_POOL)
    return Element(terms)


# -- identity checkers ----------------------------------------------------

_PERMS = (
    ((0, 2, 1), -1),
    ((1, 0, 2), -1),
    ((1, 2, 0), 1),
    ((2, 0, 1), 1),
    ((2, 1, 0), -1),
)


def _closed_kernel(spec: TriBracketSpec) -> Callable:
    triple = closed_triple_fn(spec)
    if triple is None:
        raise ValueError(
            f"basis sweeps need a closed-form bracket (omega or fk), not {spec.describe()}"
        )
    return triple


def _kernel_element(res) -> Element:
    return Element() if res is None else Element({BasisVector(res[1], res[2]): res[0]})


def check_anticommutativity(spec: TriBracketSpec, window: Window) -> VerdictReport:
    """Total antisymmetry under all six permutations, every basis triple,
    comparing closed-form kernel results."""
    rep = VerdictReport(
        "anticommutativity", {"bracket": spec.describe(), "window": str(window)}
    )
    triple = _closed_kernel(spec)
    perms = [(perm, sign, itemgetter(*perm)) for perm, sign in _PERMS]
    for args in product(window_basis(window), repeat=3):
        base = triple(*args)
        for perm, sign, permute in perms:
            permuted = triple(*permute(args))
            want = None if base is None else (sign * base[0], base[1], base[2])
            if permuted != want:
                rep.record_failure(
                    f"[{args[0]}, {args[1]}, {args[2]}] vs permutation {perm}: "
                    f"{_kernel_element(base)} / {_kernel_element(permuted)}"
                )
    rep.stats["permutation_checks"] = 5 * len(window_basis(window)) ** 3
    return rep


# -- nested identities in five slots ----------------------------------------
#
# An identity is a tuple of terms (sign, inner, outer) and claims that the
# signed terms sum to zero.  Each term is a bracket of brackets: the inner
# bracket takes the slots named by ``inner``; the outer bracket takes the
# slots named by ``outer``, where slot INNER holds the inner value.

INNER = 5

# [[u1,u2,u3],v2,v3] = [[u1,v2,v3],u2,u3] + [u1,[u2,v2,v3],u3] + [u1,u2,[u3,v2,v3]]
FUNDAMENTAL_IDENTITY = (
    (1, (0, 1, 2), (INNER, 3, 4)),
    (-1, (0, 3, 4), (INNER, 1, 2)),
    (-1, (1, 3, 4), (0, INNER, 2)),
    (-1, (2, 3, 4), (0, 1, INNER)),
)


def identity_residual(spec: TriBracketSpec, identity, args: Sequence[Element]) -> Element:
    """The exact residual of a nested identity on five elements."""
    out = Element.zero()
    for sign, inner, outer in identity:
        value = tri_bracket(spec, *itemgetter(*inner)(args))
        if value:
            out = out + tri_bracket(spec, *itemgetter(*outer)((*args, value))).scale(sign)
    return out


def check_nested_identities(
    rep: VerdictReport, spec: TriBracketSpec, window: Window, samples: int, seed: int, checks
) -> None:
    """Record every failure of the given nested identities: on all window
    basis 5-tuples, then on seeded random element 5-tuples.

    Each check is (identity, basis message, sample message); the basis
    message formats the five basis slots, the sample message may name
    {residual} and {args}.  On basis tuples the exact residual is summed
    in one dict with the closed-form kernel.  Inner brackets only take
    window basis vectors, so their values are tabulated once per sweep.
    """
    triple = _closed_kernel(spec)
    basis = [(bv.family, bv.index) for bv in window_basis(window)]
    n = len(basis)
    inner_values = {}
    for ijk in product(range(n), repeat=3):
        res = triple(*(basis[i] for i in ijk))
        if res is not None:
            inner_values[ijk] = (res[0], res[1:])
    terms = [
        [(sign, itemgetter(*inner), itemgetter(*outer)) for sign, inner, outer in identity]
        for identity, _, _ in checks
    ]
    lookup = inner_values.get
    for idx, vecs in zip(product(range(n), repeat=5), product(basis, repeat=5)):
        for pos, identity in enumerate(terms):
            acc = {}
            for sign, inner, outer in identity:
                value = lookup(inner(idx))
                if value is None:
                    continue
                res = triple(*outer((*vecs, value[1])))
                if res is None:
                    continue
                key = res[1:]
                s = acc.get(key, 0) + sign * value[0] * res[0]
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
            if acc:
                rep.record_failure(checks[pos][1].format(*vecs))
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
    check_nested_identities(
        rep,
        spec,
        window,
        sample_elements,
        seed,
        [
            (
                FUNDAMENTAL_IDENTITY,
                "residual nonzero at basis tuple {},{},{};{},{}",
                "residual {residual} at sampled tuple {args}",
            )
        ],
    )
    return rep


def check_constructor_agreement(
    window: Window, k: int, f: FunctionalSpec
) -> VerdictReport:
    """Two agreements on every window basis triple:

    (a) the functional construction over [ , ]_k reproduces fk(k, f);
    (b) the determinant construction reproduces the omega bracket.
    """
    rep = VerdictReport(
        "constructor-agreement",
        {"window": str(window), "k": k, "beta": f.describe()},
    )
    ff_spec, cert = certify_from_functional(DkInduced(k), f, window)
    rep.merge_status(cert)
    rep.notes.extend(cert.notes)
    if cert.status != PASS:
        rep.counterexamples.extend(cert.counterexamples)
        return rep
    fk_spec = FKBracket(k, f)
    basis = [Element({bv: 1}) for bv in window_basis(window)]
    triples = 0
    for u in basis:
        for v in basis:
            for w in basis:
                triples += 1
                a = tri_bracket(ff_spec, u, v, w)
                b = tri_bracket(fk_spec, u, v, w)
                if a != b:
                    rep.record_failure(
                        f"functional route {a} != closed form {b} on [{u},{v},{w}]"
                    )
                da = tri_bracket(DETERMINANT, u, v, w)
                db = tri_bracket(OMEGA, u, v, w)
                if da != db:
                    rep.record_failure(
                        f"determinant route {da} != closed form {db} on [{u},{v},{w}]"
                    )
    rep.stats["triples"] = triples
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
    equations = {}
    for b in unknowns:
        img = {}
        for bprime in unknowns:
            res = lie_bracket(spec, Element({b: 1}), Element({bprime: 1}))
            for out_bv, c in res.terms.items():
                img[(bprime, out_bv)] = c
        equations[b] = img
    # transpose: one equation per (bprime, output coordinate)
    eq_rows = {}
    for b, img in equations.items():
        for key, c in img.items():
            eq_rows.setdefault(key, {})[b] = c
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
