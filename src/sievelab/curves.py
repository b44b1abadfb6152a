"""The g = 1 a_p layer: Frobenius traces of an elliptic family at residues mod p.

``ap_table`` gives a_p at every residue t mod p of a g=1 family in
O(p log p): a twist moves each curve onto one of three one-parameter rows
(j = 0, j = 1728, and y^2 = x^3 + cx + c), and each row is one FFT
correlation of the quadratic character with a weighted value count.
``ap_sums`` gives the same values at a few residues for a block of
primes by direct character sums, in O(p) per residue and prime.
Schoof-type algorithms are out of scope.  Good reduction uses the crude
divisibility criterion on the discriminant, not minimal models.  The exact
per-curve oracles (specialization over Q, point counts, the surjectivity
verdict) live in ``tests/oracles.py``.  numpy is imported inside the
functions that use it, so importing this module for its family documents
loads none.
"""

from __future__ import annotations

# the family documents live in the numpy-free config; callers import them from here
from .config import PCAP_LIMIT, CurveFamily, default_elliptic_family, default_genus2_family


def _pow_mod(base, e, p):
    """base^e mod p by square-and-multiply, p^2 within base's int dtype; e and p broadcast."""
    import numpy as np

    out, base = np.ones_like(base), base % p
    some = int(np.bitwise_or.reduce(e, axis=None))  # a multiply only at bits some e has
    for i in range(some.bit_length()):
        if some >> i & 1:
            out = np.where(e >> i & 1, out * base % p, out)
        base = base * base % p
    return out


def ap_table(family, p):
    """a_p for every residue t mod p of a g=1 family, in O(p log p).

    With S(A, B) = sum_x chi(x^3 + Ax + B), the twist x -> wx gives
    S(A, B) = chi(w) S(A/w^2, B/w^3); w = B/A sends every curve with AB != 0
    to S(c, c), c = A^3/B^2.  The rows S(c, c), S(0, B) and S(A, 0) over all
    c, B, A are cyclic correlations of chi with weighted value counts, one
    FFT each, so no (p x p) grid is built.

    Returns an int16 array of length p (|a_p| <= 2 sqrt(p) < 2^15) with
    BAD_SENTINEL at residues where the specialization has bad reduction
    (discriminant vanishes mod p).
    """
    import numpy as np

    x = np.arange(p, dtype=np.int64)
    A, B, chi = _coefficients(family, p, x)
    inv = _pow_mod(x, p - 2, p)  # the inverse of every unit (Fermat)
    x3 = x * x % p * x % p
    # S(c, c) = chi(-1) + sum_{x != -1} chi(x + 1) chi(x^3/(x + 1) + c)
    y = x[1:]  # y = x + 1
    weights = np.stack([
        np.bincount(x3[:-1] * inv[y] % p, weights=chi[y], minlength=p),
        np.bincount(x3, minlength=p),  # S(0, B) = sum_u #{x^3 = u} chi(u + B)
        np.bincount(x * x % p, weights=chi[:p], minlength=p),  # S(A, 0), x^3 + Ax = x (x^2 + A)
    ])
    # row[c] = sum_u w[u] chi(u + c mod p), read off a linear correlation with
    # chi repeated twice; a power-of-two length >= 2p avoids wrap-around
    n = 1 << (2 * p - 1).bit_length()
    fw = np.fft.rfft(weights, n)
    f = np.fft.irfft(np.conj(fw) * np.fft.rfft(chi[:2 * p], n), n)[:, :p]
    rows = np.rint(f).astype(np.int64)
    if np.abs(f - rows).max() >= 0.25:
        raise AssertionError("FFT rounding residue too large")
    generic, j0, j1728 = rows
    generic += chi[p - 1]
    A3 = A * A % p * A % p
    twisted = chi[B * inv[A] % p] * generic[A3 * inv[B] % p * inv[B] % p]
    return _traces(-np.where(A == 0, j0[B], np.where(B == 0, j1728[A], twisted)), A, B, p)


def ap_sums(family, primes, t):
    """a_p of a g=1 family for a block of primes, column j of the (n, k) int
    residues t mod primes[j] giving ``ap_table(family, primes[j])[t[:, j]]``
    of the (n, k) int16 result, by the character sums
    a_p(t) = -sum_x chi(x^3 + A(t)x + B(t)): all but one (n, p) pass per
    prime is done once per block; cheaper than tables for a few residues."""
    import numpy as np

    p = np.asarray(primes)
    if (p > PCAP_LIMIT).any():
        raise ValueError("prime cap exceeded")
    A, B, chi = _coefficients(family, p, t)
    cubes = (np.arange(p.max()) ** 3 % p[:, None]).astype(np.int32)
    A32, B32, x = A.astype(np.int32), B.astype(np.int32), np.arange(p.max(), dtype=np.int32)
    a, buf = np.empty(t.shape, dtype=np.int64), np.empty((2, len(t) * p.max()), dtype=np.int32)
    for j, q in enumerate(primes):
        # Ax mod q + x^3 mod q + B < 3q, in chi's periods; Ax < q^2 fits int32, Ax -
        # q floor(Ax / q) beats a remainder, and reused buffers fault no pages
        v, w = buf[:, :len(t) * q].reshape(2, len(t), q)
        np.multiply(A32[:, j, None], x[:q], out=v)
        v -= np.multiply(np.floor_divide(v, q, out=w), q, out=w)
        v += cubes[j, :q]
        v += B32[:, j, None]
        a[:, j] = np.take(chi[j], v).sum(axis=1, dtype=np.int32)
    return _traces(-a, A, B, p)


def _coefficients(family, p, t):
    """(A(t), B(t), chi) of a g=1 family: its coefficients mod p at the
    int residues t, and the quadratic character of F_p as an int8 table of
    period p over [0, 3p), chi[0] = 0; for a row of primes, one per column
    of t, chi has one row each."""
    import numpy as np

    if family.genus != 1:
        raise ValueError("ap_table and ap_sums are g=1 only")
    A = np.broadcast_to(family.A.eval_mod((t,), p), t.shape)
    B = np.broadcast_to(family.B.eval_mod((t,), p), t.shape)
    p = np.asarray(p)[..., None]
    periods = p * np.arange(3)
    squares = (np.arange(1, p.max() // 2 + 1) ** 2 % p)[..., None] + periods[..., None, :]
    chi = np.full(p.shape[:-1] + (3 * p.max(),), -1, dtype=np.int8)
    np.put_along_axis(chi, squares.reshape(p.shape[:-1] + (-1,)), 1, axis=-1)
    np.put_along_axis(chi, periods, 0, axis=-1)  # y^2 = 0 for y a multiple of p
    return A, B, chi


def _traces(a, A, B, p):
    """The sums a as int16 a_p: BAD_SENTINEL where the discriminant
    -16(4A^3 + 27B^2) vanishes mod p, the Hasse bound asserted elsewhere."""
    good = -16 * (4 * (A * A % p * A % p) + 27 * (B * B % p)) % p != 0
    if (good & (a * a > 4 * p)).any():
        raise AssertionError("Hasse bound violated")
    a[~good] = BAD_SENTINEL
    return a.astype("int16")


BAD_SENTINEL = -(2**15)  # the int16 minimum
