"""Grassmann secant varieties of Veronese embeddings.

Sec_(k, s-1) of a variety X collects the k-planes lying inside spans of s
independent points of X; for X = the degree-a Veronese image of P^n its
expected dimension is min(sn + (k+1)(s-1-k), (k+1)(N-k)) with
N = C(n+a, n) - 1.  The defect of that Grassmann secant variety equals the
ordinary (s-1)-defect of the Segre product P^k x X, which for a Veronese X
is exactly the bidegree-(a, 1) embedding of P^n x P^k.

For k = 1 that embedding is P^n x P^1, so the m = 1 classification answers
every query in closed form: the unique defective case is n = 2, a = 3,
s = 5, defect 1 (pairs of plane cubics expressible through the same 5 cube
powers).  Other k lie outside that classification and are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import NamedTuple

from .numerology import _defective_run, check_sweep_size, classify


@dataclass(frozen=True)
class GrassmannQuery:
    """Ask for dim Sec_(k, s-1) of the degree-a Veronese image of P^n."""

    n: int
    a: int
    k: int
    s: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.a < 1:
            raise ValueError(f"need n, a >= 1, got ({self.n}, {self.a})")
        if not 0 <= self.k <= self.s - 1:
            raise ValueError(f"need 0 <= k <= s - 1, got k={self.k}, s={self.s}")
        if self.s - 1 >= self.N:
            raise ValueError(
                f"need s - 1 < N = {self.N} for spanning to make sense, got s={self.s}"
            )

    @property
    def N(self) -> int:
        """Ambient dimension of the Veronese image, C(n+a, n) - 1."""
        return comb(self.n + self.a, self.n) - 1


def grassmann_expected_dim(query: GrassmannQuery) -> int:
    """min(sn + (k+1)(s-1-k), (k+1)(N-k))."""
    return min(
        query.s * query.n + (query.k + 1) * (query.s - 1 - query.k),
        (query.k + 1) * (query.N - query.k),
    )


@dataclass(frozen=True)
class GrassmannVerdict:
    """Closed-form defect and dimension of one k = 1 Grassmann secant query."""

    query: GrassmannQuery
    expected_dim: int
    defect: int
    dim: int
    rule: str


def grassmann_defect(query: GrassmannQuery) -> GrassmannVerdict:
    """Defect and dimension of Sec_(1, s-1) via the Segre-product correspondence.

    The defect is classify's (s-1)-defect of the bidegree-(a, 1) embedding
    of P^n x P^1, and dim is the expected Grassmann dimension minus it.
    Raises ValueError for k != 1, which the classification does not cover.
    """
    if query.k != 1:
        raise ValueError(f"only k = 1 is classified, got k={query.k}")
    expected = grassmann_expected_dim(query)
    verdict = classify(query.n, query.a, 1, query.s)
    return GrassmannVerdict(
        query=query,
        expected_dim=expected,
        defect=verdict.defect,
        dim=expected - verdict.defect,
        rule=verdict.rule,
    )


class CorollaryCell(NamedTuple):
    """One k = 1 cell of the corollary sweep.

    An immutable record, built for every cell of a sweep: a named tuple
    costs about half what a frozen dataclass does to build.
    """

    n: int
    a: int
    s: int
    expected_dim: int
    dim: int
    defect: int


@dataclass(frozen=True)
class CorollaryReport:
    """Closed-form sweep of all k = 1 Grassmann secants within bounds."""

    n_max: int
    a_max: int
    cells: tuple[CorollaryCell, ...]

    @property
    def defective(self) -> tuple[CorollaryCell, ...]:
        return tuple(cell for cell in self.cells if cell.defect > 0)

    @property
    def passed(self) -> bool:
        """True when the defective cells are exactly those the corollary predicts.

        That is (n, a, s) = (2, 3, 5) with defect 1 when the grid holds
        (n, a) = (2, 3), that is when a_max >= 3, and none otherwise.
        """
        expected = ((2, 3, 5, 1),) if self.a_max >= 3 else ()
        return tuple((cell.n, cell.a, cell.s, cell.defect) for cell in self.defective) == expected


def check_corollary(n_max: int, a_max: int) -> CorollaryReport:
    """Sweep k = 1 over all valid (n, a, s) with n <= n_max, a <= a_max.

    The sweep has sum (C(n+a, n) - 2) cells, and is refused past
    MAX_SWEEP_CELLS.

    Expected outcome: defect 0 everywhere except (2, 3, 5), where the defect
    is 1 (and dim Sec_(1,4) of the cubic Veronese surface is 15 against an
    expected 16).
    """
    if n_max < 2 or a_max < 2:
        raise ValueError(f"bounds must be >= 2, got ({n_max}, {a_max})")
    check_sweep_size(
        f"the k = 1 corollary sweep up to ({n_max}, {a_max})",
        (comb(n + a, n) - 2 for n in range(1, n_max + 1) for a in range(1, a_max + 1)),
    )
    cells = []
    for n in range(1, n_max + 1):
        for a in range(1, a_max + 1):
            # grassmann_defect's k = 1 answer, from integers: the defect is
            # classify's inside the defective run of (n, a, 1), and 0 outside.
            N = comb(n + a, n) - 1
            first, end, _ = _defective_run(n, a, 1) or (0, 0, 0)
            for s in range(2, N + 1):
                expected = min(s * n + 2 * (s - 2), 2 * (N - 1))
                defect = classify(n, a, 1, s).defect if first <= s < end else 0
                cells.append(CorollaryCell(n, a, s, expected, expected - defect, defect))
    return CorollaryReport(n_max=n_max, a_max=a_max, cells=tuple(cells))
