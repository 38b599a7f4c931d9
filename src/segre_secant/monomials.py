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

``monomial_values`` is the one evaluator of monomials: it builds a gather
index into a table of coordinate powers once, then evaluates a panel of
points at a time.  ``gradient_rows`` evaluates first partial derivatives
through it, as the values of the exponents lowered by one in each variable.

``euler_panel`` builds the rows of both rank profiles from an exponent
matrix and its variable that is 1 at every point: the split basis and z_0,
or ``bigraded`` without x_0's column and y_0.  By the Euler identity
z_i d(z^gamma)/dz_i = gamma_i z^gamma, the partials at a point scaled by
its coordinates are the exponent matrix times the one vector of monomial
values.  Scaling a row by a nonzero constant changes no span, so where
every such coordinate is nonzero mod p these rows have the rank and row
rank profile of the partials themselves; a panel with a zero coordinate
gets the partials of ``gradient_rows`` instead.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .numerology import _ambient


@lru_cache(maxsize=256)
def exponent_vectors(degree: int, nvars: int) -> np.ndarray:
    """All exponent vectors of the given total degree, descending lex.

    Returns a read-only int64 array of shape (C(degree + nvars - 1, nvars - 1),
    nvars), the same object on every call with the same arguments.
    """
    if degree < 0 or nvars < 1:
        raise ValueError(f"need degree >= 0 and nvars >= 1, got ({degree}, {nvars})")
    if nvars == 1:
        exps = np.array([[degree]], dtype=np.int64)
    else:
        # Stars and bars: nvars - 1 bars among degree + nvars - 1 slots, the
        # gaps between bars being the exponents.  combinations() yields bar
        # positions in ascending lex order, which is ascending lex order on
        # exponents.
        slots = degree + nvars - 1
        bars = np.fromiter(
            chain.from_iterable(combinations(range(slots), nvars - 1)), dtype=np.int64
        ).reshape(-1, nvars - 1)
        edges = np.hstack([np.full((bars.shape[0], 1), -1), bars, np.full((bars.shape[0], 1), slots)])
        exps = np.ascontiguousarray((np.diff(edges, axis=1) - 1)[::-1])
    exps.flags.writeable = False
    return exps


def monomial_values(exps: np.ndarray):
    """The evaluator of the monomials z^exps[j], built once for many panels.

    ``exps`` holds one exponent vector per row.  Returns ``values(z, p)``,
    which takes k points as a (k, nvars) int64 array of coordinates in
    [0, p) and returns the (k, nmon) array of values z^exps[j] mod p.  The
    gather index into the flattened table of powers z_v^0, ..., z_v^d (d the
    largest exponent) is built here; a call builds the table and multiplies
    the gathered powers, each product reduced before the next, so p < 2**31
    keeps every intermediate inside int64.  A coordinate that is 1 at every
    point adds nothing to a value and can be left out of both arguments.
    """
    nvars = exps.shape[1]
    stride = int(exps.max(initial=0)) + 1
    index = exps.T + stride * np.arange(nvars)[:, None]

    def values(z: np.ndarray, p: int) -> np.ndarray:
        table = np.empty((z.shape[0], nvars, stride), dtype=np.int64)
        table[:, :, 0] = 1
        table[:, :, 1:2] = z[:, :, None]
        # Powers 1..d - 1 are in place: z^(d - 1) times each of z^1..z^c
        # gives the next c, so each step about doubles them.
        d = 2
        while d < stride:
            c = min(d - 1, stride - d)
            np.multiply(table[:, :, d - 1 : d], table[:, :, 1 : c + 1], out=table[:, :, d : d + c])
            table[:, :, d : d + c] %= p
            d += c
        factors = table.reshape(z.shape[0], nvars * stride)[:, index]
        product = factors[:, 0]
        for v in range(1, nvars):
            product = product * factors[:, v]
            product %= p
        return product

    return values


def gradient_rows(exps: np.ndarray, points, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Values and first partials of the monomials z^e at points, mod p.

    ``exps`` holds one exponent vector per row.  ``points`` is one point,
    with one coordinate per column of ``exps``, or a (k, nvars) array of k
    points evaluated at once.  For one point, returns ``(values, partials)``
    with values[j] = z^exps[j] and partials[i, j] = d(z^exps[j])/dz_i; for k
    points, the same with a leading axis of length k.  Entries are reduced
    to [0, p).  All of them come from one ``monomial_values`` call.
    """
    nmon, nvars = exps.shape
    z = np.asarray(points, dtype=np.int64) % p
    single = z.ndim == 1
    z = np.atleast_2d(z)
    # Block i < nvars holds the exponents lowered by one in z_i (0 where
    # z_i does not occur, whose partial is 0 anyway), block nvars the
    # exponents themselves: the partial in z_i is exps[:, i] times block i.
    lowered = np.maximum(exps - np.eye(nvars, dtype=np.int64)[:, None], 0)
    cube = monomial_values(np.vstack([lowered.reshape(-1, nvars), exps]))(z, p).reshape(-1, nvars + 1, nmon)
    partials = cube[:, :nvars] * (exps.T % p) % p
    values = cube[:, nvars]
    if single:
        return values[0], partials[0]
    return values, partials


def euler_panel(exps: np.ndarray, one: int, p: int):
    """``rows_at(z)``: one row per variable of ``exps`` at each of k points.

    Variable ``one`` is 1 at every point; z[:, 1:] holds the others in
    order (z[:, 0] is the chart's 1).  If no z[:, 1:] is 0 mod p, row i of
    a point is exps[:, i] times the values z^exps (Euler form, entries below
    max(exps) * p, left for ``absorb`` to reduce), else the partials.
    """
    nmon = exps.shape[0]
    weights = np.ascontiguousarray(exps.T)
    values_at = monomial_values(np.delete(exps, one, axis=1))

    def rows_at(z: np.ndarray) -> np.ndarray:
        if z[:, 1:].all():
            return (weights[None] * values_at(z[:, 1:], p)[:, None, :]).reshape(-1, nmon)
        return gradient_rows(exps, np.insert(z[:, 1:], one, 1, axis=1), p)[1].reshape(-1, nmon)

    return rows_at


def bigraded(alphas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Row i * len(betas) + j is (alphas[i], betas[j]), so descending lex if both factors are."""
    return np.hstack([np.repeat(alphas, betas.shape[0], axis=0), np.tile(betas, (alphas.shape[0], 1))])


def _validate(spec) -> tuple[int, int, int, int]:
    n, m, a, b = spec.n, spec.m, spec.a, spec.b
    _ambient(n, m, a, b)  # the closed-form layer's n, m, a, b >= 1 check, with its text
    return n, m, a, b


def split_exponent_array(spec) -> np.ndarray:
    """Degree-(a+b) monomials vanishing to order b on H1 and order a on H2.

    These are the gamma with sum(gamma[0..n]) >= a and sum(gamma[n..n+m]) >= b
    (index n counted in both blocks), one per row in descending lex order.
    They are built as the images (alpha_<n, alpha_n + beta_0, beta_>0) of
    the bigraded basis, so the count always equals C(n+a, n) * C(m+b, m).
    """
    n, m, a, b = _validate(spec)
    pairs = bigraded(exponent_vectors(a, n + 1), exponent_vectors(b, m + 1))
    gammas = np.hstack([pairs[:, :n], pairs[:, n : n + 1] + pairs[:, n + 1 : n + 2], pairs[:, n + 2 :]])
    return gammas[np.lexsort(-gammas.T[::-1])]


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
    # ``bigraded`` is in descending lex order, so sorting the images that
    # way must reproduce it exactly, once each.
    order = np.lexsort(-images.T[::-1])
    if not np.array_equal(images[order], bigraded(exponent_vectors(a, n + 1), exponent_vectors(b, m + 1))):
        raise AssertionError(
            f"dictionary is not a bijection onto the bigraded basis for ({n}, {m}, {a}, {b})"
        )
    perm = np.empty(order.shape[0], dtype=np.int64)
    perm[order] = np.arange(order.shape[0])
    return perm
