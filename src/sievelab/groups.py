"""Matrix groups GL2/SL2 and GSp4/Sp4 over F_l: orders, classes, lemma checks.

Matrices are dense tuples-of-tuples mod l; the symplectic form is the
standard block J = [[0, -I], [I, 0]].  Brute-force operations are capped by
group order; larger cases are served by formulas or char-poly statistics only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

BRUTE_ORDER_CAP = 10**6
SUBGROUP_ORDER_CAP = 10**4


@dataclass(frozen=True)
class GroupSpec:
    g: int  # 1 or 2
    l: int  # odd prime
    flavor: str  # "gsp" (full similitude) or "sp" (symplectic)
    pm1_quotient: bool = False

    def __post_init__(self):
        if self.flavor not in ("gsp", "sp"):
            raise ValueError("flavor must be 'gsp' or 'sp'")
        if self.l == 2:
            raise ValueError("l = 2 unsupported")


# ---------------------------------------------------------------- matrix ops

def mat_mul(a, b, l):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % l for j in range(n))
        for i in range(n)
    )


def mat_neg(a, l):
    return tuple(tuple((-v) % l for v in row) for row in a)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_det(a, l):
    n = len(a)
    if n == 2:
        return (a[0][0] * a[1][1] - a[0][1] * a[1][0]) % l
    # Gaussian elimination mod l
    m = [list(row) for row in a]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] % l), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det = det * m[col][col] % l
        inv = pow(m[col][col], -1, l)
        for r in range(col + 1, n):
            f = m[r][col] * inv % l
            if f:
                for c in range(col, n):
                    m[r][c] = (m[r][c] - f * m[col][c]) % l
    return det % l


def mat_inv(a, l):
    n = len(a)
    if n == 2:
        d = mat_det(a, l)
        di = pow(d, -1, l)
        return (
            (a[1][1] * di % l, (-a[0][1]) * di % l),
            ((-a[1][0]) * di % l, a[0][0] * di % l),
        )
    m = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] % l)
        m[col], m[piv] = m[piv], m[col]
        inv = pow(m[col][col], -1, l)
        m[col] = [v * inv % l for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [(v - f * w) % l for v, w in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def mat_trace(a, l):
    return sum(a[i][i] for i in range(len(a))) % l


def charpoly_e1_e2(a, l):
    """First two char-poly coefficients (trace, sum of 2x2 principal minors)."""
    n = len(a)
    e1 = mat_trace(a, l)
    e2 = 0
    for i in range(n):
        for j in range(i + 1, n):
            e2 += a[i][i] * a[j][j] - a[i][j] * a[j][i]
    return e1, e2 % l


def symplectic_J(g):
    """Block antidiagonal form [[0, -I_g], [I_g, 0]] as a 2g x 2g matrix."""
    n = 2 * g
    J = [[0] * n for _ in range(n)]
    for i in range(g):
        J[i][g + i] = -1
        J[g + i][i] = 1
    return tuple(tuple(row) for row in J)


def similitude_factor(m, l, g):
    """mu with m^T J m = mu J, or None if m is not a symplectic similitude."""
    n = 2 * g
    J = symplectic_J(g)
    mt = tuple(tuple(m[j][i] for j in range(n)) for i in range(n))
    mj = mat_mul(mat_mul(mt, tuple(tuple(v % l for v in row) for row in J), l), m, l)
    mu = None
    for i in range(n):
        for j in range(n):
            expect = J[i][j] % l
            if expect:
                cand = mj[i][j] * pow(expect, -1, l) % l
                if mu is None:
                    mu = cand
                elif cand != mu:
                    return None
            elif mj[i][j] % l:
                return None
    return mu


# ------------------------------------------------------------- element sets

def group_order(spec):
    """Exact order from the classical formulas; quotient by +-1 halves."""
    g, l = spec.g, spec.l
    sp = l ** (g * g)
    for i in range(1, g + 1):
        sp *= l ** (2 * i) - 1
    order = sp if spec.flavor == "sp" else (l - 1) * sp
    if spec.pm1_quotient:
        order //= 2
    return order


def gl2_elements(l):
    out = []
    rng = range(l)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if (a * d - b * c) % l:
                        out.append(((a, b), (c, d)))
    return out


def sl2_elements(l):
    return [m for m in gl2_elements(l) if mat_det(m, l) == 1]


def transvection(v, l, g):
    """T_v : x -> x + <x, v> v with the standard symplectic pairing."""
    n = 2 * g
    J = symplectic_J(g)
    T = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        # <e_i, v> = sum_j J[i][j] v_j
        pair = sum(J[i][j] * v[j] for j in range(n)) % l
        for j in range(n):
            T[i][j] = (T[i][j] + pair * v[j]) % l
    return tuple(tuple(row) for row in T)


def closure(generators, mul):
    """BFS closure of a nonempty generating set under ``mul``: in a finite
    group this is the generated subgroup (the identity is a power)."""
    gens = list(generators)
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        new = []
        for a in frontier:
            for g_ in gens:
                prod = mul(a, g_)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        frontier = new
    return seen


def sp4_elements(l):
    """Sp4(F_l) by generated closure from symplectic transvections."""
    basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    extra = [(1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1)]
    gens = [transvection(v, l, 2) for v in basis + extra]
    elems = closure(gens, lambda a, b: mat_mul(a, b, l))
    expect = group_order(GroupSpec(2, l, "sp"))
    if len(elems) != expect:
        raise AssertionError("transvection closure did not reach Sp4")
    return elems


def gsp4_elements(l):
    """GSp4(F_l) as the union of similitude-scaled copies of Sp4."""
    sp = sp4_elements(l)
    out = set()
    for nu in range(1, l):
        D = ((nu, 0, 0, 0), (0, nu, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        for m in sp:
            out.add(mat_mul(D, m, l))
    return out


def spec_elements(spec):
    """Brute element set for a GroupSpec (g=1 any small l; g=2 via closure)."""
    if group_order(spec) > BRUTE_ORDER_CAP:
        raise ValueError("brute force infeasible")
    if spec.g == 1:
        elems = gl2_elements(spec.l) if spec.flavor == "gsp" else sl2_elements(spec.l)
    else:
        elems = gsp4_elements(spec.l) if spec.flavor == "gsp" else sp4_elements(spec.l)
    if spec.pm1_quotient:
        elems = {pm1_rep(m, spec.l) for m in elems}
    return set(elems)


def pm1_rep(m, l):
    """Canonical representative of {m, -m}."""
    neg = mat_neg(m, l)
    return m if m <= neg else neg


# --------------------------------------------------------------- class data

@dataclass(frozen=True)
class ClassTable:
    spec: GroupSpec
    mode: str  # "brute" or "charpoly"
    entries: dict  # class key -> element count

    @property
    def total(self):
        return sum(self.entries.values())


def find_generators(elements, mul):
    """Greedy small generating set, verified by closure."""
    elems = sorted(elements)
    full = set(elements)
    gens = []
    have = {elems[0]} if elems else set()
    for e in elems:
        if e not in have:
            gens.append(e)
            have = closure(gens, mul)
            if have == full:
                break
    return gens


def conjugacy_classes(elements, mul, inv):
    """Partition into conjugacy classes via orbit closure under generator
    conjugation (the generators generate the group, so orbits are full)."""
    gens = find_generators(elements, mul)
    conj = [(g_, inv(g_)) for g_ in gens]
    unassigned = set(elements)
    classes = []
    for e in sorted(elements):
        if e not in unassigned:
            continue
        orbit = {e}
        frontier = [e]
        while frontier:
            new = []
            for x in frontier:
                for g_, gi in conj:
                    y = mul(mul(g_, x), gi)
                    if y not in orbit:
                        orbit.add(y)
                        new.append(y)
            frontier = new
        unassigned -= orbit
        classes.append(orbit)
    return classes


def class_table(spec, mode):
    """Class counts: true conjugacy classes (brute) or char-poly keys."""
    if mode == "brute":
        if group_order(spec) > BRUTE_ORDER_CAP:
            raise ValueError("brute force infeasible")
        l = spec.l
        elems = spec_elements(spec)
        if spec.pm1_quotient:
            mul = lambda a, b: pm1_rep(mat_mul(a, b, l), l)
            inv = lambda a: pm1_rep(mat_inv(a, l), l)
        else:
            mul = lambda a, b: mat_mul(a, b, l)
            inv = lambda a: mat_inv(a, l)
        classes = conjugacy_classes(elems, mul, inv)
        entries = {}
        for i, cls in enumerate(sorted(classes, key=lambda c: min(c))):
            entries[("class", i, min(cls))] = len(cls)
        return ClassTable(spec, mode, entries)
    if mode == "charpoly":
        if spec.pm1_quotient:
            raise ValueError("charpoly keys are defined on the matrix groups")
        l = spec.l
        elems = spec_elements(spec)
        entries = {}
        for m in elems:
            if spec.g == 1:
                key = (mat_trace(m, l), mat_det(m, l))
            else:
                e1, e2 = charpoly_e1_e2(m, l)
                key = (e1, e2, similitude_factor(m, l, 2))
            entries[key] = entries.get(key, 0) + 1
        return ClassTable(spec, mode, entries)
    raise ValueError("mode must be 'brute' or 'charpoly'")


def charpoly_class_density(spec, delta):
    """Char-poly densities on the fixed-similitude coset det = delta.

    g=1: keys are traces over the {det = delta} coset of GL2(F_l).
    g=2: keys are (a1, a2) over the {similitude = delta} coset of GSp4(F_l).
    """
    l = spec.l
    if delta % l == 0:
        raise ValueError("delta must be a unit")
    delta = delta % l
    counts = {}
    total = 0
    if spec.g == 1:
        for m in gl2_elements(l):
            if mat_det(m, l) == delta:
                total += 1
                key = mat_trace(m, l)
                counts[key] = counts.get(key, 0) + 1
    else:
        for m in gsp4_elements(l):
            if similitude_factor(m, l, 2) == delta:
                total += 1
                key = charpoly_e1_e2(m, l)
                counts[key] = counts.get(key, 0) + 1
    return {k: Fraction(v, total) for k, v in sorted(counts.items())}


# ------------------------------------------------------------ lemma checks

@dataclass(frozen=True)
class Property1Report:
    g: int
    l_values: tuple
    beta1: int
    beta2: int
    c1: float  # smallest constant with |G_l| <= c1 l^beta1 over the range
    c2: float
    passes: bool  # both constants <= 2


def property1_check(g, l_values):
    """Verify |G_l| <= c l^{2g^2+g+1} and |G_l^#| <= c l^{g+1} with c <= 2."""
    beta1 = 2 * g * g + g + 1
    beta2 = g + 1
    c1 = 0.0
    c2 = 0.0
    for l in l_values:
        spec = GroupSpec(g, l, "gsp", pm1_quotient=True)
        order = group_order(spec)
        n_classes = len(class_table(spec, "brute").entries)
        c1 = max(c1, order / l**beta1)
        c2 = max(c2, n_classes / l**beta2)
    return Property1Report(g, tuple(l_values), beta1, beta2, c1, c2, c1 <= 2 and c2 <= 2)


def all_subgroups(elements, mul):
    """Every subgroup, by closure-BFS over one-element extensions."""
    if len(elements) > SUBGROUP_ORDER_CAP:
        raise ValueError("brute force infeasible")
    elems = sorted(elements)
    e = None
    for cand in elems:
        if all(mul(cand, x) == x for x in elems[:4]):
            if all(mul(cand, x) == x for x in elems):
                e = cand
                break
    if e is None:
        raise ValueError("no identity found")
    found = {frozenset([e])}
    frontier = [frozenset([e])]
    while frontier:
        new = []
        for H in frontier:
            for g_ in elems:
                if g_ not in H:
                    H2 = frozenset(closure(set(H) | {g_}, mul))
                    if H2 not in found:
                        found.add(H2)
                        new.append(H2)
        frontier = new
    return found


def jordan_check_elements(elements, mul, inv):
    """Direct finite verification of Jordan's lemma on one group:
    every proper subgroup misses at least one conjugacy class."""
    classes = conjugacy_classes(elements, mul, inv)
    full = frozenset(elements)
    for H in all_subgroups(elements, mul):
        if H == full:
            continue
        if all(any(x in H for x in cls) for cls in classes):
            return False
    return True


def jordan_check(spec):
    if group_order(spec) > SUBGROUP_ORDER_CAP:
        raise ValueError("brute force infeasible")
    l = spec.l
    elems = spec_elements(spec)
    if spec.pm1_quotient:
        mul = lambda a, b: pm1_rep(mat_mul(a, b, l), l)
        inv = lambda a: pm1_rep(mat_inv(a, l), l)
    else:
        mul = lambda a, b: mat_mul(a, b, l)
        inv = lambda a: mat_inv(a, l)
    return jordan_check_elements(elems, mul, inv)


def pm1_lifting_check(g, l):
    """g=1, l=3: any subgroup of GL2(F_3) surjecting mod +-1 is everything,
    checked over the full subgroup lattice.  g=2: the constructive witness,
    namely that both block-antidiagonal matrices square to -1."""
    if g == 1:
        if l != 3:
            raise ValueError("exhaustive check only for l = 3")
        elems = gl2_elements(3)
        mul = lambda a, b: mat_mul(a, b, 3)
        quotient_size = len({pm1_rep(m, 3) for m in elems})
        for H in all_subgroups(elems, mul):
            image = {pm1_rep(m, 3) for m in H}
            if len(image) == quotient_size and len(H) != len(elems):
                return False
        return True
    n = 2 * g
    I = identity(g)
    for sign in (1, -1):
        M = [[0] * n for _ in range(n)]
        for i in range(g):
            M[i][g + i] = sign % l
            M[g + i][i] = (-sign) % l
        M = tuple(tuple(row) for row in M)
        sq = mat_mul(M, M, l)
        if sq != mat_neg(identity(n), l):
            return False
    return True
