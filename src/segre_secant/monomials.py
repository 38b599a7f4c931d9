"""Monomial bases for the two sides of the affine/multigraded dictionary.

A bidegree-(a, b) form on P^n x P^m is a combination of monomials
x^alpha y^beta with |alpha| = a, |beta| = b.  Fixing inside P^(n+m) the two
disjoint coordinate subspaces

    H1 = {z_n = ... = z_(n+m) = 0}   (dimension n - 1),
    H2 = {z_0 = ... = z_n = 0}       (dimension m - 1),

the degree-(a+b) monomials z^gamma that vanish to order b on H1 and order a
on H2 are exactly those with block degree >= a on {z_0..z_n} and >= b on
{z_n..z_(n+m)} (the overlap variable z_n belongs to both blocks).  Both
monomial sets have C(n+a, n) * C(m+b, m) elements and correspond under an
explicit bijection that splits the exponent of z_n between the two factors.

Every basis is an int64 array with one exponent vector per row.  All
enumerations use descending lexicographic order on exponent tuples and are
stable across runs; every matrix in the package orders its columns this
way, bigraded columns alpha-major.

``gradient_rows`` is the one evaluator of monomials and their first
partial derivatives, at one point or at a panel of points in one call; the
tangent and affine condition matrices are both assembled from it.
"""

from __future__ import annotations

from itertools import chain, combinations

import numpy as np


def exponent_vectors(degree: int, nvars: int) -> np.ndarray:
    """All exponent vectors of the given total degree, descending lex.

    Returns an int64 array of shape (C(degree + nvars - 1, nvars - 1), nvars).
    """
    if degree < 0 or nvars < 1:
        raise ValueError(f"need degree >= 0 and nvars >= 1, got ({degree}, {nvars})")
    if nvars == 1:
        return np.array([[degree]], dtype=np.int64)
    # Stars and bars: nvars - 1 bars among degree + nvars - 1 slots, the gaps
    # between bars being the exponents.  combinations() yields bar positions
    # in ascending lex order, which is ascending lex order on exponents.
    slots = degree + nvars - 1
    bars = np.fromiter(
        chain.from_iterable(combinations(range(slots), nvars - 1)), dtype=np.int64
    ).reshape(-1, nvars - 1)
    edges = np.hstack([np.full((bars.shape[0], 1), -1), bars, np.full((bars.shape[0], 1), slots)])
    return np.ascontiguousarray((np.diff(edges, axis=1) - 1)[::-1])


def gradient_rows(exps: np.ndarray, points, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Values and first partials of the monomials z^e at points, mod p.

    ``exps`` holds one exponent vector per row.  ``points`` is one point,
    with one coordinate per column of ``exps``, or a (k, nvars) array of k
    points evaluated at once.  For one point, returns ``(values, partials)``
    with values[j] = z^exps[j] and partials[i, j] = d(z^exps[j])/dz_i; for k
    points, the same with a leading axis of length k.  Entries are reduced
    to [0, p).  Every product is reduced before the next, so p < 2**31
    keeps each intermediate inside int64.
    """
    nmon, nvars = exps.shape
    z = np.asarray(points, dtype=np.int64) % p
    single = z.ndim == 1
    z = np.atleast_2d(z)
    k = z.shape[0]
    table = np.ones((k, nvars, int(exps.max()) + 1), dtype=np.int64)
    for d in range(1, table.shape[2]):
        table[:, :, d] = table[:, :, d - 1] * z % p
    var = np.arange(nvars)[:, None]
    # factors[:, i, l] is variable l's factor of the partial in z_i, without
    # its exponent (lowered by one where l = i), and factors[:, nvars, l]
    # its factor of the monomial itself; a product over l gives both.
    powers = table[:, var, exps.T]
    factors = np.repeat(powers[:, None], nvars + 1, axis=1)
    factors[:, var[:, 0], var[:, 0]] = table[:, var, np.maximum(exps.T - 1, 0)]
    product = factors[:, :, 0]
    for v in range(1, nvars):
        product = product * factors[:, :, v] % p
    partials = product[:, :nvars] * (exps.T % p) % p
    values = product[:, nvars]
    if single:
        return values[0], partials[0]
    return values, partials


def _validate(spec) -> tuple[int, int, int, int]:
    n, m, a, b = spec.n, spec.m, spec.a, spec.b
    if min(n, m, a, b) < 1:
        raise ValueError(f"n, m, a, b must all be >= 1, got ({n}, {m}, {a}, {b})")
    return n, m, a, b


def split_exponent_array(spec) -> np.ndarray:
    """Degree-(a+b) monomials vanishing to order b on H1 and order a on H2.

    These are the gamma with sum(gamma[0..n]) >= a and sum(gamma[n..n+m]) >= b
    (index n counted in both blocks), one per row in descending lex order.
    The count always equals C(n+a, n) * C(m+b, m).
    """
    n, m, a, b = _validate(spec)
    gammas = exponent_vectors(a + b, n + m + 1)
    keep = (gammas[:, : n + 1].sum(axis=1) >= a) & (gammas[:, n:].sum(axis=1) >= b)
    return gammas[keep]


def split_to_bigraded(spec) -> np.ndarray:
    """The dictionary as an int64 index permutation.

    Entry j is the alpha-major bigraded column of split monomial j (row j of
    ``split_exponent_array``).  gamma maps to (alpha, beta) with
    alpha_i = gamma_i for i < n, beta_j = gamma_(n+j) for j >= 1, and the
    exponent of the overlap variable z_n splitting as
    alpha_n = a - sum(gamma[:n]), beta_0 = b - sum(gamma[n+1:]); this is the
    unique split consistent with both bidegrees.

    Raises if the map fails to be a bijection onto the bigraded basis (which
    would indicate a violated invariant, not a user error).
    """
    n, m, a, b = _validate(spec)
    gammas = split_exponent_array(spec)
    images = np.column_stack([
        gammas[:, :n],
        a - gammas[:, :n].sum(axis=1),
        b - gammas[:, n + 1 :].sum(axis=1),
        gammas[:, n + 1 :],
    ])
    alphas = exponent_vectors(a, n + 1)
    betas = exponent_vectors(b, m + 1)
    bigraded = np.hstack([
        np.repeat(alphas, betas.shape[0], axis=0),
        np.tile(betas, (alphas.shape[0], 1)),
    ])
    # Alpha-major order over descending-lex factors is descending lex order
    # on (alpha, beta), so sorting the images that way must reproduce the
    # bigraded basis exactly, once each.
    order = np.lexsort(-images.T[::-1])
    if not np.array_equal(images[order], bigraded):
        raise AssertionError(
            f"dictionary is not a bijection onto the bigraded basis for ({n}, {m}, {a}, {b})"
        )
    perm = np.empty(order.shape[0], dtype=np.int64)
    perm[order] = np.arange(order.shape[0])
    return perm
