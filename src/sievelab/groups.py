"""Char-poly class densities of GSp4(F_l) in closed form, in plain Python.

An element with similitude mu has the char poly
X^4 - a1 X^3 + a2 X^2 - mu a1 X + mu^2 = X^2 Q(X + mu/X), with
Q(Y) = Y^2 - a1 Y + c and c = a2 - 2 mu; each root Y of Q carries the
eigenvalue pair X^2 - Y X + mu.  The derived group Sp4 is simply connected,
so the centralizer C of a semisimple element is connected: by Lang's theorem
the char poly fixes one rational semisimple class, and C(F_l) holds
l^(dim C - 3) unipotent elements (Steinberg, Mem. AMS 80, 1968).  So
N(a1, a2, mu) = |GSp4(F_l)| l^(dim C - 3) / |C(F_l)| elements have the key.
GL2(F_l)'s densities are ``config.gl2_class_density``; the matrix-group
oracle these are checked against lives in the tests.
"""

from fractions import Fraction

from .config import legendre, sp_order


def _centralizer(l, a1, c, mu):
    """(|C(F_l)|, dim C - 3) for the semisimple class of Q(Y) = Y^2 - a1 Y + c
    on the similitude-mu coset."""
    gl2 = l * (l - 1) ** 2 * (l + 1)
    roots = [y for y in range(l) if (y * y - a1 * y + c) % l == 0]
    # the discriminants of the pairs with two distinct eigenvalues; a root
    # with Y^2 = 4 mu carries the eigenvalue Y/2 twice
    discs = [(y * y - 4 * mu) % l for y in roots if (y * y - 4 * mu) % l]
    if not roots:  # Q irreducible
        if a1 % l == 0 and (c + 4 * mu) % l == 0:  # Y = +-2 sqrt(mu), mu a nonsquare
            return (l - 1) * l * l * (l**4 - 1), 4
        norm = c * c - 4 * mu * (a1 * a1 - 2 * c) + 16 * mu * mu
        return (l - 1) * (l * l - 1 if legendre(norm, l) == 1 else l * l + 1), 0
    if len(roots) == 1:  # a double root: the centre, else the Siegel Levi
        if not discs:
            return (l - 1) * sp_order(2, l), 8
        return (l - 1) * (gl2 if legendre(discs[0], l) == 1 else l * (l - 1) * (l + 1) ** 2), 2
    if not discs:  # Y = +-2 sqrt(mu), mu a square
        return gl2 * l * (l * l - 1), 4
    torus = [l - 1 if legendre(d, l) == 1 else l + 1 for d in discs]
    if len(discs) == 1:  # the Klingen Levi
        return torus[0] * gl2, 2
    return (l - 1) * torus[0] * torus[1], 0


def charpoly_class_density(l, delta):
    """Densities of the char-poly keys (a1, a2), sorted, on the
    {similitude = delta} coset of GSp4(F_l), for an odd prime l."""
    if l % 2 == 0:
        raise ValueError("l must be an odd prime")
    if delta % l == 0:
        raise ValueError("delta must be a unit")
    mu = delta % l
    coset = sp_order(2, l)
    out = {}
    for a1 in range(l):
        for a2 in range(l):
            order, unipotent = _centralizer(l, a1, (a2 - 2 * mu) % l, mu)
            out[a1, a2] = Fraction((l - 1) * coset * l**unipotent // order, coset)
    return out
