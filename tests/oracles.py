"""Independent oracles used by the test suite.

These deliberately avoid the package's own elimination code paths: the
rational and modular row reductions work over exact fractions and Python
integers with their own pivoting logic, the brute-force monomial
enumerators walk plain cartesian products, and the tangent rows are
evaluated in exact Python integers.  The one exception is
``full_rank_profile``, which checks the trial loop's control flow and so
reuses the package's rank accumulator (checked against ``modular_rank`` by
its own tests).  ``points_off_h1_one_by_one`` draws the affine path's
points one at a time, straight from the generator, and
``filtered_split_exponents`` builds the split basis by filtering every
degree-(a+b) exponent vector, the package's first construction of it.
Slow is fine here; independence is the point.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from segre_secant import RankAccumulator, exponent_vectors


def rational_rank(rows) -> int:
    """Rank over the rationals of an integer matrix, by fraction elimination."""
    work = [[Fraction(int(v)) for v in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(work)):
            if work[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        head = work[rank][col]
        work[rank] = [v / head for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [v - factor * w for v, w in zip(work[i], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


def modular_rank(rows, p) -> int:
    """Rank over F_p of an integer matrix, by elimination in Python ints."""
    work = [[int(v) % p for v in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        head = [v * inv % p for v in work[rank]]
        for i in range(rank + 1, len(work)):
            factor = work[i][col]
            if factor:
                work[i] = [(v - factor * w) % p for v, w in zip(work[i], head)]
        rank += 1
    return rank


def chart_point(x, y, p):
    """The point of P^(n+m) over (x, y) in P^n x P^m, with z_n = 1.

    z = (x_0/x_n, ..., x_(n-1)/x_n, 1, y_1/y_0, ..., y_m/y_0) mod p, so the
    double point there imposes on the split basis the conditions the
    tangent space at (x, y) imposes on the bigraded one; needs x_n, y_0 != 0.
    """
    x = [int(v) % p for v in x]
    y = [int(v) % p for v in y]
    if x[-1] == 0 or y[0] == 0:
        raise ValueError("chart z_n = 1 needs x_n and y_0 nonzero")
    inv_x, inv_y = pow(x[-1], p - 2, p), pow(y[0], p - 2, p)
    return [v * inv_x % p for v in x[:-1]] + [1] + [v * inv_y % p for v in y[1:]]


def brute_split_monomials(n, m, a, b):
    """Degree-(a+b) exponents with both block-degree constraints, by brute force."""
    nvars = n + m + 1
    degree = a + b
    found = []
    for gamma in product(range(degree + 1), repeat=nvars):
        if sum(gamma) != degree:
            continue
        if sum(gamma[: n + 1]) >= a and sum(gamma[n:]) >= b:
            found.append(gamma)
    return found


def filtered_split_exponents(n, m, a, b):
    """The split basis as every degree-(a+b) exponent vector in n+m+1 variables,
    descending lex, kept where sum(gamma[0..n]) >= a and sum(gamma[n..n+m]) >= b."""
    gammas = exponent_vectors(a + b, n + m + 1)
    keep = (gammas[:, : n + 1].sum(axis=1) >= a) & (gammas[:, n:].sum(axis=1) >= b)
    return gammas[keep]


def segre_secant_dim(n: int, m: int, s: int) -> int:
    """dim of the s-th secant of the Segre embedding of P^n x P^m, closed form.

    Points of the image are rank-one (n+1) x (m+1) matrices; sums of s of
    them fill the determinantal locus of rank <= t = min(s, min(n, m) + 1),
    whose projective dimension is t(n + m + 2 - t) - 1.
    """
    t = min(s, min(n, m) + 1)
    return t * (n + m + 2 - t) - 1


def _compositions(total, parts):
    if parts == 1:
        return [(total,)]
    return [(k,) + rest for k in range(total + 1) for rest in _compositions(total - k, parts - 1)]


def integer_monomial(exps, coords):
    """z^exps in exact integer arithmetic."""
    value = 1
    for e, c in zip(exps, coords):
        value *= c**e
    return value


def integer_partial(exps, coords, var):
    """d(z^exps)/dz_var in exact integer arithmetic."""
    if exps[var] == 0:
        return 0
    lowered = list(exps)
    lowered[var] -= 1
    return exps[var] * integer_monomial(lowered, coords)


def integer_tangent_matrix(n, m, a, b, points):
    """Tangent rows of the bidegree-(a, b) map in exact integer arithmetic.

    Columns are alpha-major in ascending lex order (the package uses
    descending lex, so its columns match these reversed); rows per point are
    the n + 1 x-partials, then the m + 1 y-partials.
    """
    columns = [(alpha, beta) for alpha in _compositions(a, n + 1) for beta in _compositions(b, m + 1)]
    rows = []
    for x, y in points:
        for i in range(n + 1):
            rows.append([integer_partial(al, x, i) * integer_monomial(be, y) for al, be in columns])
        for j in range(m + 1):
            rows.append([integer_monomial(al, x) * integer_partial(be, y, j) for al, be in columns])
    return rows


def scan_thresholds(dims, step, N):
    """(e, e*) of the dimensions dims[s - 1] of sigma_s, s = 1, 2, ..., by linear scan.

    e is the last s with dim = s * step - 1 (0 if none), e* the first s with
    dim = N (None if none); no monotonicity in s is assumed.
    """
    e = max((s for s, dim in enumerate(dims, start=1) if dim == s * step - 1), default=0)
    estar = next((s for s, dim in enumerate(dims, start=1) if dim == N), None)
    return e, estar


def full_rank_profile(ncols, field, s_max, trials, rng_for, block_at):
    """Rank after each of s_max blocks, max over trials, with no early stop.

    Every trial draws and absorbs all s_max blocks from its stream
    rng_for(trial), whatever its rank, and every trial runs.
    """
    best = [0] * s_max
    for trial in range(trials):
        rng = rng_for(trial)
        acc = RankAccumulator(ncols, field)
        ranks = [acc.absorb(block_at(rng)) for _ in range(s_max)]
        best = [max(old, new) for old, new in zip(best, ranks)]
    return best


def points_off_h1_one_by_one(n, m, p, rng, k, retries=16):
    """k points of P^(n+m) off H1, drawn one point at a time.

    Each draw is 1 followed by n + m coordinates from one
    ``rng.integers(0, p, size=n + m)`` call; a draw whose trailing m + 1
    coordinates all vanish lies on H1 and is retried, and ``retries`` draws
    in a row on H1 raise RuntimeError.  This is the affine path's sampling
    loop before it drew a panel at a time.
    """
    points = []
    for _ in range(k):
        for _ in range(retries):
            point = [1] + rng.integers(0, p, size=n + m, dtype=np.int64).tolist()
            if any(point[n:]):
                points.append(point)
                break
        else:
            raise RuntimeError(f"{retries} draws in a row on H1")
    return points
