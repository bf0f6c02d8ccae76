"""Hand-written closed forms of the two brackets, the dense-tuple
polynomial and the per-triple realization and constructor checks, kept as
test oracles.

The package derives its basis kernels and ad operators from the product
rows in ``trilie.brackets``; these are the family-case analyses it used
before, written out independently so the derived forms can be compared
against them value for value and type for type.  ``DensePoly`` is the
polynomial as an ascending coefficient tuple, the reference for the
sparse ``trilie.polys.Poly``.  ``check_realization`` and
``check_constructor_agreement`` build both sides of every basis triple as
SymFunctions or Elements, the reference for the tabulated checks.
"""

from dataclasses import dataclass

from trilie.brackets import (
    DETERMINANT,
    OMEGA,
    DkInduced,
    FKBracket,
    certify_from_functional,
    tri_bracket,
)
from trilie.elements import FAMILY_L, FAMILY_M, Element, window_basis
from trilie.nambu import FKRealization, _pairing_ok, nambu_bracket, realize
from trilie.operators import Operator
from trilie.polys import Poly, add_into, normalize_rational, rat_str
from trilie.report import PASS, VerdictReport


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


def check_realization(rmap, spec, window):
    """The Jacobian of the images against the image of the bracket, each
    side built as a SymFunction on every window basis triple."""
    if not _pairing_ok(rmap, spec):
        raise ValueError(
            f"realization {rmap.describe()} does not correspond to bracket {spec.describe()}"
        )
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
