"""Independent oracles used by the test suite.

These deliberately avoid the package's own elimination code paths: the
rational row reduction works over exact fractions with its own pivoting
logic, the brute-force monomial enumerators walk plain cartesian
products, and the tangent rows are evaluated in exact Python integers.
Slow is fine here; independence is the point.
"""

from fractions import Fraction
from itertools import product


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


def quadric_veronese_secant_dim(n: int, s: int) -> int:
    """dim of the s-th secant of the quadratic Veronese of P^n, closed form.

    Points of the image are squares of linear forms, i.e. rank-one symmetric
    (n+1) x (n+1) matrices; sums of s of them fill the rank <= s locus, whose
    projective dimension is C(n+2, 2) - 1 - C(n+2-s, 2).
    """
    if s >= n + 1:
        return (n + 1) * (n + 2) // 2 - 1
    total = (n + 1) * (n + 2) // 2
    corank = n + 1 - s
    return total - 1 - corank * (corank + 1) // 2


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
