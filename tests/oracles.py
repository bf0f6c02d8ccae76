"""Hand-written closed forms of the two brackets, the two constructor
brackets, the rational operator product, the dense-tuple polynomial, the
per-triple realization and constructor checks, and the eager solver with
the per-bracket closure and ideal loops, kept as test oracles.

The package derives its basis kernels and ad operators from the product
rows in ``trilie.brackets``; these are the family-case analyses it used
before, written out independently so the derived forms can be compared
against them value for value and type for type.  ``compose`` and
``commutator`` multiply channel operators term by term over rationals,
the reference for the integer kernel of ``trilie.operators``.
``relation_holds`` is one visit of a relation sweep decided over
rationals: scale * lhs as an Operator against the summed terms of the
scaled right-hand generators, the reference for the integer residual of
``trilie.relations.RelationSweep.run``.
``DensePoly`` is the polynomial as an ascending coefficient tuple, the
reference for the sparse ``trilie.polys.Poly``.  ``check_realization`` and
``check_constructor_agreement`` build both sides of every basis triple as
SymFunctions or Elements, the reference for the tabulated checks.  They
compare all n**3 triples with no symmetry assumed, so they are the
full-sweep oracles of ``nambu.check_realization`` and
``brackets.check_constructor_agreement``, which decide every triple from
the strictly increasing ones when both sides are alternating.
``FromFunctionalBracket`` and ``DETERMINANT`` are the paper's two general
constructions as bracket specs, evaluated on elements by ``tri_bracket``
here; they read ``d_k``, ``omega`` and ``delta`` through
``trilie.brackets``, so a patch of those reaches the oracle and the
tabulated check alike.  On ``omega`` and ``fk`` the same ``tri_bracket`` is
the rational per-term loop, one kernel call per term triple with no
integer form and no division, the reference for the package's integer
pass; it shares only the kernel of ``brackets.closed_triple_fn`` with it.
``EagerSpanSolver`` keeps a certificate row beside every echelon row and
scans every pivot on each reduction; ``span_close`` and ``ideal_check``
bracket every row with ``tri_bracket``, on spans over that solver: the
references for the pivot-lookup solver and for the table-read basis
lines.  ``weight_decompose`` and ``cartan_normalizer_check`` bracket
through ``_ad`` closures (the products of two elements' terms, applied to
a third element by one kernel call per term), the reference for the
package's ``rule_table`` reads.  ``closure_rows`` reads the kernel once per
window basis triple, the reference for the rows ``ClosureTable`` builds
block by block from the product rules.
``lane_failures`` is the basis sweep of the nested identities as it was
before the lanes were packed into one int: each term's row is a list of
plain ints, one per lane, summed lane by lane.  ``sweep_tables`` builds the
sweep's integer tables from the rational kernel, checks the grading
through a per-entry closure and scales them by the lcm of their
denominators, the reference for the package's tables over the weight
scaled by its denominator bound.  ``identity_residual`` is
the nested identity on five elements as two ``tri_bracket`` calls per
term, the reference for the fused integer pass of the package.
``basis_residual`` is the same identity on five basis vectors as two
plain kernel calls per term, the reference for the basis sweeps: it
shares only the kernel of ``brackets.closed_triple_fn`` with them.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, product
from math import comb, lcm
from operator import add, itemgetter, mul, sub
from typing import Callable, Optional

from trilie import brackets
from trilie.brackets import (
    INNER,
    LANES,
    OMEGA,
    DkInduced,
    FKBracket,
    LieBracketSpec,
    OmegaBracket,
    _certify_with_pairs,
    _sweep_tables,
    closed_triple_fn,
)
from trilie.analysis import (
    DEFAULT_DEPTH,
    MODE_DERIVED,
    MODE_IDEAL,
    MODE_LOWER_CENTRAL,
    MODE_SELF_LOWER,
    WeightDecomposition,
    WindowSubspace,
    _project,
)
from trilie.elements import FAMILY_L, FAMILY_M, BasisVector, Element, FunctionalSpec, functional_eval, window_basis
from trilie.linalg import null_space, vec_add_scaled, vec_scale
from trilie.nambu import FKRealization, nambu_bracket, realize
from trilie.operators import Operator, ops_equal
from trilie.polys import Poly, add_into, normalize_rational, rat_str
from trilie.report import PASS, ConfigError, VerdictReport, Window


def omega_triple(a, b, c):
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


def fk_triple_fn(k, f):
    beta = f.beta

    def triple(a, b, c):
        fa, ia = a
        fb, ib = b
        fc, ic = c
        nL = (fa == FAMILY_L) + (fb == FAMILY_L) + (fc == FAMILY_L)
        if nL != 2:
            return None
        if fa == FAMILY_M:
            r, s, t = ib, ic, ia                      # cyclic (M,L,L) -> (L,L,M)
        elif fb == FAMILY_M:
            r, s, t = ic, ia, ib                      # swap last two, then the L's
        else:
            r, s, t = ia, ib, ic
        coef = beta(t) * (r - s)
        return (coef, FAMILY_L, r + s + k) if coef else None

    return triple


def _plain_terms(channel, p):
    """The terms of the polynomial coefficient p on one channel."""
    return [(channel + ("p", 0, 0, d), c) for d, c in p.terms.items()]


def op_from_ad_omega(u, v):
    """w -> [u, v, w] under omega, channel by channel."""
    pairs = []
    for (f1, i1), c1 in u.terms.items():
        for (f2, i2), c2 in v.terms.items():
            w = c1 * c2
            if f1 == FAMILY_L and f2 == FAMILY_M:
                r, s, sgn = i1, i2, 1
            elif f1 == FAMILY_M and f2 == FAMILY_L:
                r, s, sgn = i2, i1, -1
            elif f1 == FAMILY_L:  # (L, L)
                r, s = i1, i2
                pairs.append(((FAMILY_M, FAMILY_L, -1, r + s, "p", 0, 0, 0), w * (s - r)))
                continue
            else:  # (M, M)
                r, s = i1, i2
                pairs.append(((FAMILY_L, FAMILY_M, -1, r + s, "p", 0, 0, 0), w * (s - r)))
                continue
            c = w * sgn
            pairs += _plain_terms((FAMILY_L, FAMILY_L, 1, r - s), Poly((r, -1)).scale(c))
            pairs += _plain_terms((FAMILY_M, FAMILY_M, 1, s - r), Poly((-s, 1)).scale(c))
    return Operator(add_into({}, pairs))


def op_from_ad_fk(k, f, u, v):
    """w -> [u, v, w] under fk(k, f), channel by channel; the beta(t)
    atoms are substituted when f has a polynomial form."""
    pairs = []
    for (f1, i1), c1 in u.terms.items():
        for (f2, i2), c2 in v.terms.items():
            w = c1 * c2
            if f1 == FAMILY_L and f2 == FAMILY_M:
                r, s, sgn = i1, i2, 1
            elif f1 == FAMILY_M and f2 == FAMILY_L:
                r, s, sgn = i2, i1, -1
            elif f1 == FAMILY_L:  # (L, L): collapse onto L[r+s+k]
                r, s = i1, i2
                pairs.append(((FAMILY_M, FAMILY_L, 0, r + s + k, "b", 1, 0, 0), w * (r - s)))
                continue
            else:
                continue  # (M, M) acts as zero
            beta_s = f.beta(s)
            if beta_s:
                coeff = Poly((-r, 1)).scale(w * sgn * beta_s)  # beta_s * (t - r)
                pairs += _plain_terms((FAMILY_L, FAMILY_L, 1, r + k), coeff)
    return Operator(add_into({}, pairs)).substitute(f)


def compose(outer, inner):
    """outer after inner over rational products: each term of outer is
    read at the index eps1*t + m1 a term of inner lands on, expanded
    binomially."""
    pairs = []
    for (fin1, fout1, eps1, m1, kind1, bs1, bo1, d1), c1 in inner.terms.items():
        for (fin2, fout2, eps2, m2, kind2, bs2, bo2, d2), c2 in outer.terms.items():
            if fin2 != fout1:
                continue
            if kind2 == "p":
                atom = (kind1, bs1, bo1)
            elif kind1 == "p":
                atom = ("b", bs2 * eps1, bs2 * m1 + bo2)
            else:
                raise ArithmeticError("product of two beta-weighted atoms is not representable")
            head = (fin1, fout2, eps2 * eps1, eps2 * m1 + m2) + atom
            c = c1 * c2
            for j in range(d2 + 1):
                pairs.append((head + (d1 + j,), c * comb(d2, j) * eps1 ** j * m1 ** (d2 - j)))
    return Operator(add_into({}, pairs))


def commutator(a, b):
    """a after b minus b after a, as two separate compositions."""
    return compose(a, b) - compose(b, a)


def relation_holds(gens, case, lhs, r, s, k=0, s0=0, functional=None, window=None):
    """Whether scale * lhs = sum of coefficient * generator holds for the
    relations.Case ``case`` at (r, s), the generators read from ``gens``:
    the zero relation is lhs == 0, and otherwise scale * lhs is compared
    with the coefficient-scaled generator terms summed as rationals,
    structurally, or through ops_equal under a weight."""

    def at(form):
        a, b, c, d, e = form
        return a * r + b * s + c * k + d * s0 + e

    def value(coef):
        v = coef.const
        for form in coef.forms:
            v *= at(form)
        for form in coef.betas:
            v *= functional.beta(at(form))
        return v

    if not case.rhs:
        return not lhs
    want = {}
    for coef, tag, index in case.rhs:
        x = value(coef)
        if x:
            add_into(want, ((key, x * c) for key, c in gens(tag, *map(at, index)).terms.items()))
    scaled = lhs.scale(value(case.scale))
    if functional is None:
        return scaled.terms == want
    return ops_equal(scaled, Operator(want), functional, window)[0]


@dataclass(frozen=True)
class DensePoly:
    """Polynomial in one variable t, coefficients ascending by degree."""

    coeffs: tuple

    def __post_init__(self):
        cs = [normalize_rational(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return DensePoly(tuple(out))

    def __neg__(self):
        return DensePoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, DensePoly):
            if not self.coeffs or not other.coeffs:
                return DensePoly(())
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return DensePoly(tuple(out))
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        if c == 0:
            return DensePoly(())
        return DensePoly(tuple(c * a for a in self.coeffs))

    def __call__(self, t):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return normalize_rational(acc)

    def compose_affine(self, a, b):
        """Substitute t -> a*t + b (Horner over the affine argument)."""
        arg = DensePoly((b, a))
        acc = DensePoly(())
        for c in reversed(self.coeffs):
            acc = acc * arg + DensePoly((c,))
        return acc

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if d == 0:
                body = rat_str(mag)
            else:
                var = "t" if d == 1 else f"t^{d}"
                body = var if mag == 1 else f"{rat_str(mag)}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def check_realization(rmap, window):
    """The Jacobian of the images against the image of the bracket the map
    realizes, each side built as a SymFunction on every window basis triple."""
    spec = rmap.spec
    rep = VerdictReport(
        "nambu-realization",
        {"map": rmap.describe(), "bracket": spec.describe(), "window": str(window)},
    )
    basis = window_basis(window)
    triples = 0
    for b1 in basis:
        g1 = rmap.image(b1)
        for b2 in basis:
            g2 = rmap.image(b2)
            for b3 in basis:
                triples += 1
                lhs = nambu_bracket(g1, g2, rmap.image(b3))
                rhs = realize(
                    rmap, tri_bracket(spec, Element({b1: 1}), Element({b2: 1}), Element({b3: 1}))
                )
                if lhs != rhs:
                    rep.record_failure(
                        f"[{b1},{b2},{b3}]: jacobian gives {lhs}, bracket image is {rhs}"
                    )
    rep.stats["triples"] = triples
    if isinstance(rmap, FKRealization) and rep.status == PASS:
        rep.flag(
            "the printed M-image (+beta_r y exp(kx)) makes the map an "
            "anti-homomorphism: the Jacobian produces the (s-r) orientation "
            "while this bracket carries (r-s); the oracle negates the M images "
            "and the homomorphism is then exact"
        )
    return rep


# -- the constructor brackets -------------------------------------------------


@dataclass(frozen=True)
class FromFunctionalBracket:
    """Ternary bracket built from a Lie bracket and a functional.

    Evaluation requires that f vanishes on Lie brackets; this is never
    assumed, it is certified on a window first (``certify_from_functional``),
    and the bracket refuses to evaluate arguments outside the certified
    window.
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


DETERMINANT = DeterminantBracket()


class BracketPreconditionError(ValueError):
    """Raised when a bracket is evaluated without its certified hypothesis."""


def certify_from_functional(lie, f, window):
    """Certify f([b1, b2]) = 0 on all window basis pairs, then hand back a
    bracket spec that is allowed to evaluate on that window."""
    rep, _ = _certify_with_pairs(lie, f, window)
    return FromFunctionalBracket(lie, f, window if rep.status == PASS else None), rep


def tri_bracket(spec, u, v, w):
    """[u, v, w] under a constructor bracket, or under omega or fk by one
    kernel call per term triple, its rational coefficient multiplied in
    as it comes: the reference for the integer pass of the package's
    ``tri_bracket``.  The kernel is ``brackets.closed_triple_fn(spec)``, so a
    patch of it reaches both."""
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
        out = out + brackets.lie_bracket(lie, v, w).scale(functional_eval(f, u))
        out = out + brackets.lie_bracket(lie, w, u).scale(functional_eval(f, v))
        out = out + brackets.lie_bracket(lie, u, v).scale(functional_eval(f, w))
        return out
    if isinstance(spec, DeterminantBracket):
        omega, delta = brackets.omega, brackets.delta
        ou, ov, ow = omega(u), omega(v), omega(w)
        du, dv, dw = delta(u), delta(v), delta(w)
        return (
            ou * (v * dw - w * dv)
            - ov * (u * dw - w * du)
            + ow * (u * dv - v * du)
        )
    triple = brackets.closed_triple_fn(spec)
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
                out[bv] = out.get(bv, 0) + c12 * c3 * coef
    return Element(out)


def identity_residual(spec, identity, args):
    """The exact residual of a nested identity on five elements, every
    bracket an Element from ``tri_bracket``."""
    out = Element.zero()
    for sign, inner, outer in identity:
        value = tri_bracket(spec, *itemgetter(*inner)(args))
        if value:
            out = out + tri_bracket(spec, *itemgetter(*outer)((*args, value))).scale(sign)
    return out


def basis_residual(spec, identity, args):
    """The residual of a nested identity on five basis vectors, as a map
    from output (family, index) to nonzero coefficient: per term one
    kernel call for the inner bracket and one for the outer, through
    ``brackets.closed_triple_fn(spec)``, summed per output vector."""
    triple = brackets.closed_triple_fn(spec)
    out = {}
    for sign, inner, outer in identity:
        res = triple(*itemgetter(*inner)(args))
        if res is not None:
            value = triple(*itemgetter(*outer)((*args, res[1:])))
            if value is not None:
                out[value[1:]] = out.get(value[1:], 0) + sign * res[0] * value[0]
    return {vec: c for vec, c in out.items() if c}


def check_constructor_agreement(window, k, f):
    """Both constructions against the closed forms, four tri_bracket calls
    on every window basis triple."""
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


class EagerSpanSolver:
    """Incremental reduced row echelon span that keeps every row's
    certificate up to date and reduces against every pivot in turn."""

    def __init__(self):
        self.rows = []
        self.pivots = []
        self.combos = []
        self._n_inserted = 0

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        residual = dict(vec)
        combo = {}
        for i, pk in enumerate(self.pivots):
            c = residual.get(pk)
            if c:
                vec_add_scaled(residual, self.rows[i], -c)
                vec_add_scaled(combo, self.combos[i], c)
        return residual, combo

    def add(self, vec, tag=None):
        if tag is None:
            tag = self._n_inserted
        self._n_inserted += 1
        residual, combo = self.reduce(vec)
        if not residual:
            return False
        pivot = min(residual)
        inv = Fraction(1, 1) / Fraction(residual[pivot])
        row = vec_scale(residual, inv)
        rcombo = vec_scale(combo, -inv)
        rcombo[tag] = normalize_rational(rcombo.get(tag, 0) + inv)
        for i, existing in enumerate(self.rows):
            c = existing.get(pivot)
            if c:
                vec_add_scaled(existing, row, -c)
                vec_add_scaled(self.combos[i], rcombo, -c)
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < pivot:
            pos += 1
        self.rows.insert(pos, row)
        self.pivots.insert(pos, pivot)
        self.combos.insert(pos, rcombo)
        return True

    def contains(self, vec):
        residual, _ = self.reduce(vec)
        return not residual

    def express(self, vec):
        residual, combo = self.reduce(vec)
        if residual:
            return None
        return combo


def _eager_subspace(window, elements=()):
    ws = WindowSubspace(window, EagerSpanSolver())
    for e in elements:
        ws.add(e)
    return ws


def closure_rows(spec, window):
    """``ClosureTable(spec, window).rows`` from one call of the bracket's
    kernel per basis triple: each entry is its output's bit, 0 for a zero
    bracket, -1 or -2 for an L or M output outside the window."""
    basis = window_basis(window)
    n = len(basis)
    bit = {bv: 1 << p for p, bv in enumerate(basis)}
    escape = {FAMILY_L: -1, FAMILY_M: -2}
    triple = closed_triple_fn(spec)
    entry = []
    for a, b, c in product(basis, repeat=3):
        res = triple(a, b, c)
        out = None if res is None else BasisVector(*res[1:])
        entry.append(0 if out is None else bit.get(out, escape[out.family]))
    pair, pair_escapes = [0] * n**2, [0] * n**2
    single, single_escapes = [0] * n, [0] * n
    for abc, e in enumerate(entry):
        ab, a = abc // n, abc // n**2
        if e > 0:
            pair[ab] |= e
            single[a] |= e
        elif e:
            pair_escapes[ab] += 1
            single_escapes[a] += 1
    return entry, pair, pair_escapes, single, single_escapes


def span_close(spec, seeds, window, mode, depth=DEFAULT_DEPTH):
    """The closure chain and report, with every bracket taken by
    tri_bracket; single-term seeds get the note of projection-exact
    escapes, as in the package."""
    rep = VerdictReport(
        "span-close",
        {
            "bracket": spec.describe(),
            "mode": mode,
            "window": str(window),
            "depth": depth,
            "seeds": "; ".join(str(s) for s in seeds) or "(empty)",
        },
    )
    basis = [Element({bv: 1}) for bv in window_basis(window)]
    escapes = 0
    escape_sample = None

    def bracket_rows(rows_a, rows_b, rows_c):
        nonlocal escapes, escape_sample
        for va in rows_a:
            for vb in rows_b:
                for b in rows_c:
                    res = tri_bracket(spec, va, vb, b)
                    if not res:
                        continue
                    inside, outside = _project(res, window)
                    if outside:
                        escapes += 1
                        if escape_sample is None:
                            escape_sample = f"[{va}, {vb}, {b}] -> {res}"
                    if inside:
                        yield inside

    current = _eager_subspace(window, seeds)
    chain = [current]
    for _ in range(depth):
        rows = current.basis_elements()
        seed_rows = chain[0].basis_elements()
        if mode == MODE_IDEAL:
            nxt = _eager_subspace(window, rows)
            new_rows = list(bracket_rows(rows, basis, basis))
        elif mode == MODE_DERIVED:
            nxt = _eager_subspace(window)
            new_rows = list(bracket_rows(rows, rows, basis))
        elif mode == MODE_LOWER_CENTRAL:
            nxt = _eager_subspace(window)
            new_rows = list(bracket_rows(rows, seed_rows, basis))
        else:
            nxt = _eager_subspace(window)
            new_rows = list(bracket_rows(rows, seed_rows, seed_rows))
        for e in new_rows:
            nxt.add(e)
        chain.append(nxt)
        if nxt == current:
            break
        current = nxt
    stabilized = len(chain) >= 2 and chain[-1] == chain[-2]
    rep.stats["chain_dims"] = ",".join(str(s.dim) for s in chain)
    rep.stats["stabilized_at"] = len(chain) - 1 if stabilized else -1
    rep.stats["escapes"] = escapes
    if not stabilized:
        rep.note(f"chain did not stabilize within depth {depth}")
    if escapes and all(len(s.terms) == 1 for s in seeds):
        rep.note(
            f"{escapes} single-term bracket results fell outside the window and "
            "were dropped (projection-exact: all results are basis monomials)"
        )
    elif escapes:
        rep.note(
            f"{escapes} bracket results had support outside the window and were "
            f"projected (first: {escape_sample}); in-window spans are evidence, "
            "not truncations of exact members"
        )
    return chain, rep


def ideal_check(spec, candidate, window, depth=DEFAULT_DEPTH):
    """The ideal report, every candidate row bracketed against every basis
    pair with tri_bracket and every closure taken by ``span_close`` above."""
    rep = VerdictReport("ideal-check", {"bracket": spec.describe(), "window": str(window)})
    sub = _eager_subspace(window, candidate)
    lines = sub.basis_lines()
    families = None
    if lines is not None:
        fams = {bv.family for bv in lines}
        expected = [bv for bv in window_basis(window) if bv.family in fams]
        if sorted(lines) == sorted(expected):
            families = fams
    basis = [Element({bv: 1}) for bv in window_basis(window)]
    is_ideal = True
    boundary = 0
    witnesses = 0
    for row in sub.basis_elements():
        for b1 in basis:
            for b2 in basis:
                res = tri_bracket(spec, row, b1, b2)
                if not res:
                    continue
                inside, outside = _project(res, window)
                escaped_families = outside and (
                    families is None
                    or any(bv.family not in families for bv in outside.terms)
                )
                if outside and not escaped_families:
                    boundary += 1
                if escaped_families or (inside and not sub.contains(inside)):
                    is_ideal = False
                    witnesses += 1
                    if witnesses <= 3:
                        rep.note(f"not an ideal: [{row}, {b1}, {b2}] = {res} leaves the candidate")
    rep.stats["is_ideal"] = str(is_ideal)
    rep.stats["escape_witnesses"] = witnesses
    rep.stats["boundary_escapes"] = boundary
    own_chain, _ = span_close(spec, list(candidate), window, MODE_SELF_LOWER, depth)
    own_nilpotent = own_chain[-1].dim == 0
    rep.stats["own_lower_central_dims"] = ",".join(str(s.dim) for s in own_chain)
    rep.stats["nilpotent_as_algebra"] = str(own_nilpotent)
    if len(own_chain) > 1 and own_chain[1].dim == 0:
        rep.note("candidate has zero bracket with itself (abelian subalgebra)")
    lc_chain, _ = span_close(spec, list(candidate), window, MODE_LOWER_CENTRAL, depth)
    lc_zero = lc_chain[-1].dim == 0
    rep.stats["ideal_lower_central_dims"] = ",".join(str(s.dim) for s in lc_chain)
    rep.stats["nilpotent_as_ideal"] = str(lc_zero)
    rep.stats["hypo_nilpotent"] = str(is_ideal and own_nilpotent and not lc_zero)
    if is_ideal:
        minimal = True
        for row in sub.basis_elements():
            closure = span_close(spec, [row], window, MODE_IDEAL, depth)[0][-1]
            for other in sub.basis_elements():
                if not closure.contains(other):
                    minimal = False
                    rep.note(
                        f"ideal closure of {row} does not recover {other} "
                        "(no window minimality evidence)"
                    )
                    break
            if not minimal:
                break
        rep.stats["minimality_evidence"] = str(minimal)
    return rep


def _ad(spec, u, v) -> Callable[[dict], dict]:
    """w -> [u, v, w] for w given by its terms, as a map from output
    (family, index) to nonzero coefficient.  The products of the terms of
    u and v are formed once, and each costs one kernel call per term of
    w."""
    triple = closed_triple_fn(spec)
    prods = [(b1, b2, c1 * c2) for b1, c1 in u.terms.items() for b2, c2 in v.terms.items()]

    def ad(w: dict) -> dict:
        out = {}
        for b3, c3 in w.items():
            for b1, b2, c12 in prods:
                res = triple(b1, b2, b3)
                if res is not None:
                    key = res[1:]
                    out[key] = out.get(key, 0) + c12 * c3 * res[0]
        return {key: normalize_rational(c) for key, c in out.items() if c}

    return ad


def weight_decompose(spec, cartan_pairs, window):
    """The weight decomposition and its report, with one ``_ad`` closure
    per Cartan pair applied to each window basis vector, and one per pair
    of Cartan entries applied to each entry: the reference for the
    package's tables."""
    rep = VerdictReport(
        "weight-decomposition",
        {
            "bracket": spec.describe(),
            "window": str(window),
            "pairs": "; ".join(f"({h1}, {h2})" for h1, h2 in cartan_pairs),
        },
    )
    basis = window_basis(window)
    weights = {bv: [] for bv in basis}
    diagonal = True
    for h1, h2 in cartan_pairs:
        ad = _ad(spec, h1, h2)
        for bv in basis:
            img = ad({bv: 1})
            lam = img.get(bv, 0)
            if any(key != bv for key in img):
                diagonal = False
                img = Element({BasisVector(*key): c for key, c in img.items()})
                rep.record_failure(f"action of ({h1}, {h2}) is not diagonal: {bv} -> {img}")
            weights[bv].append(lam)
    spaces = {}
    if diagonal:
        for bv in basis:
            spaces.setdefault(tuple(weights[bv]), []).append(bv)
    deco = WeightDecomposition({w: tuple(sorted(v)) for w, v in spaces.items()})
    if diagonal:
        rep.stats["weight_spaces"] = len(deco.spaces)
        rep.stats["max_dim"] = deco.max_dim
        rep.stats["zero_weight_dim"] = deco.zero_weight_dim()
        total = sum(deco.dims.values())
        if total != len(basis):
            rep.record_failure("weight spaces do not exhaust the window span")
        else:
            rep.note("window span is the direct sum of the weight spaces")
    # abelianness of the span of all cartan entries, each distinct entry
    # once (under fk every pair repeats L[-k])
    gens = list(dict.fromkeys(h for pair in cartan_pairs for h in pair))
    for a in gens:
        for b in gens:
            ad = _ad(spec, a, b)
            for c in gens:
                if ad(c.terms):
                    rep.record_failure(f"cartan span is not abelian: [{a}, {b}, {c}] != 0")
    return deco, rep


def cartan_normalizer_check(spec, window, in_cartan, cartan_generators, name):
    """The self-normalization report, with one ``_ad`` closure per
    (unknown, generator) pair applied to each window basis vector."""
    rep = VerdictReport(
        "cartan-self-normalization", {"cartan": name, "window": str(window)}
    )
    unknowns = list(window_basis(window))
    equations = {}
    outside = {}
    for b in unknowns:
        for j, h in enumerate(cartan_generators):
            ad = _ad(spec, Element({b: 1}), h)
            for jb, bb in enumerate(unknowns):
                for key, c in ad({bb: 1}).items():
                    off = outside.get(key)
                    if off is None:
                        off = outside[key] = not in_cartan(BasisVector(*key))
                    if off:
                        equations.setdefault((j, jb, key), {})[b] = c
    kernel = null_space(list(equations.values()), unknowns)
    offenders = []
    for vec in kernel:
        if any(not in_cartan(bv) for bv in vec):
            offenders.append(str(Element(vec)))
    rep.stats["normalizer_dimension"] = len(kernel)
    if offenders:
        for o in offenders[:4]:
            rep.record_failure(f"element outside the cartan normalizes it: {o}")
    else:
        rep.note("normalizing set is contained in the cartan span (self-normalizing)")
    return rep


# -- the lane-by-lane basis sweep of the nested identities ---------------------


def _index_rows(n, weights):
    """The linear index sum(weights[s] * a[s]) on every lane, as the fixed
    slots and an iterator of (their values, row)."""
    fixed = [s for s in weights if s not in LANES]
    lane = [weights.get(3, 0) * a3 + weights.get(4, 0) * a4 for a3, a4 in product(range(n), repeat=2)]
    rows = (
        (key, list(map(sum(weights[s] * v for s, v in zip(fixed, key)).__add__, lane)))
        for key in product(range(n), repeat=len(fixed))
    )
    return fixed, rows


def _compile_term(sign, inner, outer, n, tables, cache):
    """A function of (a0, a1, a2) giving the term's unsigned row over the
    lanes, or None when the inner bracket is zero on every lane.  Rows
    depend on which slots are lanes, so terms share them through ``cache``."""
    coef, base, outer_tables = tables
    x, y = (s for s in outer if s != INNER)
    if sign not in (1, -1) or sorted((*inner, x, y)) != [0, 1, 2, 3, 4]:
        raise ValueError(f"nested term {sign}, {inner}, {outer} needs a unit sign and each slot once")
    table = outer_tables[outer.index(INNER)]
    fixed_out, offset_rows = _index_rows(n, {x: n, y: 1})
    out_pattern = tuple(s if s in LANES else None for s in (x, y))
    if out_pattern not in cache:
        cache[out_pattern] = dict(offset_rows)
    offsets = cache[out_pattern]
    i0, i1, i2 = inner

    if not fixed_out:  # inner slots all fixed: a scalar times a gathered outer row
        n2, lane_offsets = n * n, offsets[()]
        contiguous = lane_offsets == list(range(n2))

        def term(a):
            i = (a[i0] * n + a[i1]) * n + a[i2]
            c, b = coef[i], base[i]
            if not c:
                return None
            if contiguous:
                return map(c.__mul__, table[b : b + n2])
            return map(c.__mul__, map(table.__getitem__, map(b.__add__, lane_offsets)))

        return term

    fixed_in, index_rows = _index_rows(n, {i0: n * n, i1: n, i2: 1})
    pattern = tuple(s if s in LANES else None for s in inner)
    if pattern not in cache:
        cache[pattern] = rows = {}
        for key, index in index_rows:
            c_row = list(map(coef.__getitem__, index))
            rows[key] = (c_row, list(map(base.__getitem__, index))) if any(c_row) else None
    rows = cache[pattern]

    def term(a):
        inner_row = rows[tuple(map(a.__getitem__, fixed_in))]
        if inner_row is None:
            return None
        c_row, b_row = inner_row
        lane_offsets = offsets[tuple(map(a.__getitem__, fixed_out))]
        return map(mul, c_row, map(table.__getitem__, map(add, b_row, lane_offsets)))

    return term


def lane_residuals(spec, window, identities):
    """(a, position of the identity, its residual row over the lanes) for
    every (a0, a1, a2) of the basis sweep, in the sweep's order."""
    n = len(window_basis(window))
    tables = _sweep_tables(spec, [(bv.family, bv.index) for bv in window_basis(window)])
    cache = {}
    compiled = [
        [(add if sign > 0 else sub, _compile_term(sign, inner, outer, n, tables, cache))
         for sign, inner, outer in identity]
        for identity in identities
    ]
    zeros = [0] * (n * n)
    for a in product(range(n), repeat=3):
        for pos, terms in enumerate(compiled):
            row = zeros
            for op, term in terms:
                values = term(a)
                if values is not None:
                    row = map(op, row, values)
            yield a, pos, list(row)


def lane_failures(spec, window, checks):
    """Every failing (basis 5-tuple, identity) of the basis sweep, as the
    formatted basis messages in the sweep's order: tuples in lexicographic
    order, then identities in order.  Each check is (identity, message)."""
    basis = window_basis(window)
    n = len(basis)
    out, failing = [], []
    residuals = lane_residuals(spec, window, [identity for identity, _ in checks])
    for a, pos, row in residuals:
        failing += ((lane, pos) for lane in compress(range(n * n), row))
        if pos == len(checks) - 1:
            for lane, i in sorted(failing):
                slots = (*a, *divmod(lane, n))
                out.append(checks[i][1].format(*(tuple(basis[s]) for s in slots)))
            failing = []
    return out


def _graded_output(spec):
    """The basis vector the grading assigns to a basis triple's bracket, or
    None where it allows no nonzero value.  Every M_t has degree k under fk,
    so fk may not output an M."""
    is_omega = isinstance(spec, OmegaBracket)

    @lru_cache(maxsize=None)
    def grade(vec):
        fam, idx = vec
        return fam == FAMILY_L, idx if fam == FAMILY_L else -idx if is_omega else spec.k

    def graded(args):
        (la, da), (lb, db), (lc, dc) = map(grade, args)
        n_l, degree = la + lb + lc, da + db + dc
        if n_l == 2:
            return (FAMILY_L, degree)
        return (FAMILY_M, -degree) if n_l == 1 and is_omega else None

    return graded


def sweep_tables(spec, basis):
    """The sweep's (coef, base, outer) tables of the rational kernel of
    ``spec``, every entry held to the grading, all scaled by the lcm of
    their denominators; returns them with that lcm."""
    triple, graded = brackets.closed_triple_fn(spec), _graded_output(spec)

    def entry(*args):
        res = triple(*args)
        if res is not None and res[1:] != graded(args):
            raise ConfigError(
                f"{spec.describe()} breaks its grading: [{', '.join(map(str, args))}] "
                f"lands on {res[1:]}, the grading puts it on {graded(args)}"
            )
        return res

    n2 = len(basis) ** 2
    inner = [entry(*args) for args in product(basis, repeat=3)]
    ext = sorted({res[1:] for res in inner if res})
    code = {vec: i for i, vec in enumerate(ext)}
    outer = [
        [entry(*xy[:p], vec, *xy[p:]) for vec in ext for xy in product(basis, repeat=2)]
        for p in range(3)
    ]
    scale = lcm(*{res[0].denominator for table in (inner, *outer) for res in table if res})

    def scaled(res):
        return 0 if res is None else int(res[0] * scale)

    base = [0 if res is None else code[res[1:]] * n2 for res in inner]
    return (list(map(scaled, inner)), base, [list(map(scaled, t)) for t in outer]), scale
