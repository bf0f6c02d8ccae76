"""Hand-written closed forms of the two brackets, kept as test oracles.

The package derives its basis kernels and ad operators from the product
rows in ``trilie.brackets``; these are the family-case analyses it used
before, written out independently so the derived forms can be compared
against them value for value and type for type.
"""

from trilie.elements import FAMILY_L, FAMILY_M
from trilie.operators import CoeffFn, Operator
from trilie.polys import Poly, add_into


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
                pairs.append(((FAMILY_M, FAMILY_L, -1, r + s), CoeffFn.const(w * (s - r))))
                continue
            else:  # (M, M)
                r, s = i1, i2
                pairs.append(((FAMILY_L, FAMILY_M, -1, r + s), CoeffFn.const(w * (s - r))))
                continue
            c = w * sgn
            pairs.append(((FAMILY_L, FAMILY_L, 1, r - s), CoeffFn.from_poly(Poly((r, -1)).scale(c))))
            pairs.append(((FAMILY_M, FAMILY_M, 1, s - r), CoeffFn.from_poly(Poly((-s, 1)).scale(c))))
    return Operator(add_into({}, pairs))


def op_from_ad_fk(k, f, u, v):
    """w -> [u, v, w] under fk(k, f), channel by channel."""
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
                cf = CoeffFn.from_beta(Poly.const(w * (r - s))).substitute(f)
                pairs.append(((FAMILY_M, FAMILY_L, 0, r + s + k), cf))
                continue
            else:
                continue  # (M, M) acts as zero
            beta_s = f.beta(s)
            if beta_s:
                coeff = Poly((-r, 1)).scale(w * sgn * beta_s)  # beta_s * (t - r)
                pairs.append(((FAMILY_L, FAMILY_L, 1, r + k), CoeffFn.from_poly(coeff)))
    return Operator(add_into({}, pairs))
