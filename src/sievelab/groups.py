"""Matrix groups GL2/SL2 and GSp4/Sp4 over F_l: orders, classes, lemma checks.

A matrix over F_l is an int64 code: its entries, row by row, as base-l digits
with the first entry most significant, so sorted codes sort like the entry
tuples; 4 x 4 codes fit int64 up to l = 13, and the order cap keeps g = 2 at
l = 3.  A group is the sorted read-only array of its codes, built once per
GroupSpec; products, inverses and conjugations act on whole code arrays.  The
symplectic form is the standard block J = [[0, -I], [I, 0]].  Brute-force
operations are capped by group order; larger cases are served by formulas or
char-poly statistics only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

BRUTE_ORDER_CAP = 10**6
SUBGROUP_ORDER_CAP = 10**4
_BLOCK = 2**16  # products per broadcast multiplication in closure


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


# ---------------------------------------------------------------- matrix codes

def _digits(l, n):
    return l ** np.arange(n * n - 1, -1, -1, dtype=np.int64)


def _encode(m, l):
    """Codes of a stack (..., n, n) of integer matrices, reduced mod l."""
    m = np.asarray(m, dtype=np.int64) % l
    n = m.shape[-1]
    return m.reshape(m.shape[:-2] + (n * n,)) @ _digits(l, n)


def _decode(codes, l, n):
    codes = np.asarray(codes, dtype=np.int64)
    return (codes[..., None] // _digits(l, n) % l).reshape(codes.shape + (n, n))


def _J(g):
    """Block antidiagonal form [[0, -I_g], [I_g, 0]]."""
    I, Z = np.eye(g, dtype=np.int64), np.zeros((g, g), dtype=np.int64)
    return np.block([[Z, -I], [I, Z]])


def _similitude(m, l):
    """mu with m^T J m = mu J, for a stack of symplectic similitudes."""
    g = m.shape[-1] // 2
    return (np.swapaxes(m, -1, -2) @ _J(g) @ m)[..., g, 0] % l


def _inverse(m, l):
    """Inverse of a stack of GL2 matrices (adjugate over det) or of GSp4
    similitudes (mu^-1 J^-1 m^T J, since J^-1 m^T J m = mu)."""
    unit_inv = np.array([0] + [pow(v, -1, l) for v in range(1, l)], dtype=np.int64)
    if m.shape[-1] == 2:
        det = (m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]) % l
        adj = np.stack([m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0]], axis=-1)
        return adj.reshape(m.shape) * unit_inv[det][..., None, None] % l
    J = _J(m.shape[-1] // 2)
    return (-J @ np.swapaxes(m, -1, -2) @ J) * unit_inv[_similitude(m, l)][..., None, None] % l


def _pm1(codes, l, n):
    """Canonical representative of {m, -m}: the smaller code."""
    return np.minimum(codes, _encode(-_decode(codes, l, n), l))


def _code_ops(l, n, pm1=False):
    """Broadcasting (mul, inv) on codes of n x n matrices mod l, on the
    quotient by +-1 when ``pm1``."""
    canon = functools.partial(_pm1, l=l, n=n) if pm1 else (lambda c: c)

    def mul(a, b):
        return canon(_encode(_decode(a, l, n) @ _decode(b, l, n), l))

    def inv(a):
        return canon(_encode(_inverse(_decode(a, l, n), l), l))

    return mul, inv


def _transvection(v, l):
    """T_v : x -> x + <x, v> v, the matrix I + (J v) v^T."""
    v = np.array(v, dtype=np.int64)
    return (np.eye(len(v), dtype=np.int64) + np.outer(_J(len(v) // 2) @ v, v)) % l


_TRANSVECTION_VECTORS = {
    1: [(1, 0), (0, 1)],
    2: [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        (1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1)],
}


def _generators(spec):
    """Transvections generating Sp_2g(F_l), with the similitudes
    diag(d, .., d, 1, .., 1), d = 2 .. l - 1, for the full group."""
    g = spec.g
    mats = [_transvection(v, spec.l) for v in _TRANSVECTION_VECTORS[g]]
    if spec.flavor == "gsp":
        mats += [np.diag([d] * g + [1] * g) for d in range(2, spec.l)]
    return _encode(np.array(mats), spec.l)


def closure(generators, mul):
    """Subgroup generated by a nonempty set, as a sorted array.

    BFS in which each layer multiplies the frontier by every generator in
    broadcast ``mul`` calls of at most _BLOCK products, which bounds the
    memory of the decoded matrices; in a finite group the identity is a power.
    """
    gens = np.unique(np.asarray(generators))
    seen = frontier = gens
    step = max(1, _BLOCK // gens.size)
    while frontier.size:
        products = np.unique(np.concatenate([
            mul(frontier[i:i + step, None], gens[None, :])
            for i in range(0, frontier.size, step)
        ]))
        frontier = np.setdiff1d(products, seen, assume_unique=True)
        seen = np.union1d(seen, frontier)
    return seen


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


@functools.cache
def spec_elements(spec):
    """Sorted read-only codes of a group: GL2/SL2 by filtering every 2 x 2
    matrix on det, Sp4/GSp4 by closure; the smaller code of +-m for the
    quotient."""
    if group_order(spec) > BRUTE_ORDER_CAP:
        raise ValueError("brute force infeasible")
    l = spec.l
    if spec.pm1_quotient:
        base = spec_elements(replace(spec, pm1_quotient=False))
        elems = np.unique(_pm1(base, l, 2 * spec.g))
    elif spec.g == 1:
        codes = np.arange(l**4, dtype=np.int64)
        m = _decode(codes, l, 2)
        det = (m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]) % l
        elems = codes[det == 1] if spec.flavor == "sp" else codes[det != 0]
    else:
        elems = closure(_generators(spec), _code_ops(l, 4)[0])
    if elems.size != group_order(spec):
        raise AssertionError("element set does not match the order formula")
    elems.flags.writeable = False
    return elems


def gl2_elements(l):
    return spec_elements(GroupSpec(1, l, "gsp"))


def sl2_elements(l):
    return spec_elements(GroupSpec(1, l, "sp"))


def sp4_elements(l):
    return spec_elements(GroupSpec(2, l, "sp"))


# --------------------------------------------------------------- class data

@dataclass(frozen=True)
class ClassTable:
    spec: GroupSpec
    mode: str  # "brute" or "charpoly"
    entries: dict  # class key -> element count

    @property
    def total(self):
        return sum(self.entries.values())


def _class_labels(elements, conjugators, mul, inv):
    """Index of the smallest element of each element's conjugacy class.

    ``elements`` is a sorted group and ``conjugators`` generate it; the
    classes are the connected components of the permutations x -> g x g^-1,
    found by min-label propagation with pointer jumping.
    """
    perms = [np.searchsorted(elements, mul(mul(g, elements), inv(g))) for g in conjugators]
    labels = np.arange(len(elements))
    while True:
        new = labels
        for perm in perms:
            new = np.minimum(new, new[perm])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def class_table(spec, mode):
    """Class counts: true conjugacy classes (brute) or char-poly keys."""
    l, n = spec.l, 2 * spec.g
    if mode == "brute":
        elems = spec_elements(spec)
        labels = _class_labels(elems, _generators(spec), *_code_ops(l, n, spec.pm1_quotient))
        reps, sizes = np.unique(labels, return_counts=True)
        entries = {
            ("class", i, tuple(map(tuple, _decode(elems[r], l, n).tolist()))): size
            for i, (r, size) in enumerate(zip(reps.tolist(), sizes.tolist()))
        }
        return ClassTable(spec, mode, entries)
    if mode == "charpoly":
        if spec.pm1_quotient:
            raise ValueError("charpoly keys are defined on the matrix groups")
        # keys (trace, det) for g=1 and (e1, e2, similitude) for g=2, where
        # e2 = (tr(m)^2 - tr(m^2)) / 2 is the sum of the principal 2x2 minors
        m = _decode(spec_elements(spec), l, n)
        tr = np.trace(m, axis1=-2, axis2=-1)
        cols = [tr % l, (tr * tr - np.trace(m @ m, axis1=-2, axis2=-1)) // 2 % l]
        if spec.g == 2:
            cols.append(_similitude(m, l))
        keys, counts = np.unique(np.stack(cols, axis=1), axis=0, return_counts=True)
        return ClassTable(spec, mode, dict(zip(map(tuple, keys.tolist()), counts.tolist())))
    raise ValueError("mode must be 'brute' or 'charpoly'")


def charpoly_class_density(spec, delta):
    """Char-poly densities on the fixed-similitude coset det = delta.

    g=1: keys are traces over the {det = delta} coset of GL2(F_l), in closed
    form: #{tr = t, det = delta} = l (l + chi(t^2 - 4 delta)) out of
    |SL2(F_l)| = l (l^2 - 1).
    g=2: keys are (a1, a2) over the {similitude = delta} coset of GSp4(F_l).
    """
    l = spec.l
    if delta % l == 0:
        raise ValueError("delta must be a unit")
    delta = delta % l
    if spec.g == 1:
        chi = {0: 0, 1: 1, l - 1: -1}
        return {
            t: Fraction(l + chi[pow(t * t - 4 * delta, (l - 1) // 2, l)], l * l - 1)
            for t in range(l)
        }
    entries = class_table(GroupSpec(2, l, "gsp"), "charpoly").entries
    counts = {key[:2]: v for key, v in entries.items() if key[2] == delta}
    total = sum(counts.values())
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
    """Every subgroup as a sorted array, by closure-BFS over one-element
    extensions."""
    elems = np.unique(np.asarray(elements))
    if len(elems) > SUBGROUP_ORDER_CAP:
        raise ValueError("brute force infeasible")
    e = elems[mul(elems, elems) == elems]  # the only idempotent of a group
    if len(e) != 1:
        raise ValueError("no identity found")
    found = {e.tobytes(): e}
    frontier = [e]
    while frontier:
        new = []
        for H in frontier:
            for g_ in np.setdiff1d(elems, H, assume_unique=True):
                H2 = closure(np.append(H, g_), mul)
                if H2.tobytes() not in found:
                    found[H2.tobytes()] = H2
                    new.append(H2)
        frontier = new
    return list(found.values())


def jordan_check_elements(elements, mul, inv):
    """Direct finite verification of Jordan's lemma on one group: every
    proper subgroup misses at least one conjugacy class.  ``mul`` and
    ``inv`` must broadcast over arrays."""
    elems = np.unique(np.asarray(elements))
    labels = _class_labels(elems, elems, mul, inv)
    n_classes = np.unique(labels).size
    return not any(
        len(H) < len(elems) and np.unique(labels[np.isin(elems, H)]).size == n_classes
        for H in all_subgroups(elems, mul)
    )


def jordan_check(spec):
    if group_order(spec) > SUBGROUP_ORDER_CAP:
        raise ValueError("brute force infeasible")
    return jordan_check_elements(
        spec_elements(spec), *_code_ops(spec.l, 2 * spec.g, spec.pm1_quotient)
    )


def pm1_lifting_check(g, l):
    """g=1, l=3: any subgroup of GL2(F_3) surjecting mod +-1 is everything,
    checked over the full subgroup lattice.  g=2: the constructive witness,
    namely that both block-antidiagonal matrices +-J square to -1."""
    if g == 1:
        if l != 3:
            raise ValueError("exhaustive check only for l = 3")
        elems = gl2_elements(3)
        quotient_size = np.unique(_pm1(elems, 3, 2)).size
        return not any(
            np.unique(_pm1(H, 3, 2)).size == quotient_size and len(H) != len(elems)
            for H in all_subgroups(elems, _code_ops(3, 2)[0])
        )
    minus_one = -np.eye(2 * g, dtype=np.int64) % l
    return all(np.array_equal(M @ M % l, minus_one) for M in (_J(g), -_J(g)))
