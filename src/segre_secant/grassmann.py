"""Grassmann secant varieties of Veronese embeddings.

Sec_(k, s-1) of a variety X collects the k-planes lying inside spans of s
independent points of X; for X = the degree-a Veronese image of P^n its
expected dimension is min(sn + (k+1)(s-1-k), (k+1)(N-k)) with
N = C(n+a, n) - 1.  The defect of that Grassmann secant variety equals the
ordinary (s-1)-defect of the Segre product P^k x X, which for a Veronese X
is exactly the bidegree-(a, 1) embedding of P^n x P^k.  So:

  * k = 1 queries are answered in closed form by the m = 1 classification
    (the unique defective case is n = 2, a = 3, s = 5, defect 1: pairs of
    plane cubics expressible through the same 5 cube powers);
  * k >= 2 queries fall back to Monte-Carlo tangent ranks of the
    (n, k, a, 1) embedding and are tagged "unclassified";
  * k = 0 queries are ordinary secants of the Veronese itself and are
    measured by a dedicated Veronese tangent matrix (a degenerate second
    factor is not a valid Segre product), also tagged "unclassified".
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .field import ConditionMatrix, PrimeField
from .monomials import exponent_vectors, gradient_rows
from .numerology import _defective_run, check_sweep_size, classify
from .terracini import (
    DEFAULT_MEMORY_BUDGET,
    SegreVeroneseSpec,
    check_memory_budget,
    check_prime_bound,
    panel_rows,
    rank_profile,
    secant_dimension,
    trial_rng,
)

TAG_CLOSED_FORM = "closed-form"
TAG_UNCLASSIFIED = "unclassified"

#: method_id of the plain Veronese stream in trial_rng's spawn key.
_METHOD_VERONESE = 2


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
    """Defect and dimension of one Grassmann secant query."""

    query: GrassmannQuery
    expected_dim: int
    defect: int
    dim: int
    tag: str
    rule: str | None = None
    prime: int | None = None
    seed: int | None = None
    trials: int | None = None


def veronese_tangent_matrix(n: int, a: int, points, field: PrimeField) -> ConditionMatrix:
    """Stacked gradient rows of the degree-a monomial map on P^n.

    Columns run over the C(n+a, n) degree-a exponents in descending lex
    order; each point contributes n + 1 partial rows, of rank n + 1 at a
    generic point (the Euler relation only ties them to the value row).
    """
    exps = exponent_vectors(a, n + 1)
    points = [np.asarray(x, dtype=np.int64) for x in points]
    for x in points:
        if x.shape != (n + 1,):
            raise ValueError(f"point must have {n + 1} coordinates, got {x.shape}")
    points = np.array(points, dtype=np.int64).reshape(len(points), n + 1)
    return ConditionMatrix(gradient_rows(exps, points, field.p)[1].reshape(-1, exps.shape[0]), field)


def veronese_secant_dimension(
    n: int,
    a: int,
    s: int,
    trials: int = 3,
    field: PrimeField | None = None,
    seed: int = 0,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> int:
    """Monte-Carlo dim of the s-th secant of the degree-a Veronese of P^n."""
    if field is None:
        field = PrimeField()
    # The Veronese is the m = b = 0 case, both in the spawn key and in the
    # small-prime bound min(C(n+a, n), s(n+1)) * (a-1) < p.
    key_spec = SimpleNamespace(n=n, m=0, a=a, b=0, N=comb(n + a, n) - 1, dim=n)
    check_prime_bound(key_spec, s, field.p)
    check_memory_budget(
        f"Veronese rank profile for n={n}, a={a} with s={s}", key_spec.N + 1,
        panel_rows(n + 1, s), s, memory_budget,
    )
    exps = exponent_vectors(a, n + 1)

    def panel_at(rng: np.random.Generator, k: int) -> np.ndarray:
        # One draw for the panel, the values of k sample_point calls.
        coords = rng.integers(0, field.p, size=(k, n), dtype=np.int64)
        points = np.hstack([np.ones((k, 1), dtype=np.int64), coords])
        return gradient_rows(exps, points, field.p)[1].reshape(k * (n + 1), -1)

    ranks = rank_profile(
        exps.shape[0], n + 1, field, s, trials,
        lambda trial: trial_rng(key_spec, seed, trial, field.p, _METHOD_VERONESE),
        panel_at,
    )
    return int(ranks[-1]) - 1


def grassmann_defect(
    query: GrassmannQuery,
    trials: int = 3,
    field: PrimeField | None = None,
    seed: int = 0,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> GrassmannVerdict:
    """Defect and dimension of Sec_(k, s-1) via the Segre-product correspondence.

    The defect is the (s-1)-defect of the bidegree-(a, 1) embedding of
    P^n x P^k: closed form for k = 1, Monte-Carlo otherwise; the returned
    dim is the expected Grassmann dimension minus that defect.
    """
    expected = grassmann_expected_dim(query)
    if query.k == 1:
        verdict = classify(query.n, query.a, 1, query.s)
        return GrassmannVerdict(
            query=query,
            expected_dim=expected,
            defect=verdict.defect,
            dim=expected - verdict.defect,
            tag=TAG_CLOSED_FORM,
            rule=verdict.rule,
        )
    if field is None:
        field = PrimeField()
    if query.k == 0:
        computed = veronese_secant_dimension(
            query.n, query.a, query.s, trials=trials, field=field, seed=seed,
            memory_budget=memory_budget,
        )
        defect = min(query.N, query.s * (query.n + 1) - 1) - computed
    else:
        spec = SegreVeroneseSpec(query.n, query.k, query.a, 1)
        report = secant_dimension(
            spec, query.s, trials=trials, field=field, seed=seed, memory_budget=memory_budget
        )
        defect = report.defect
    return GrassmannVerdict(
        query=query,
        expected_dim=expected,
        defect=defect,
        dim=expected - defect,
        tag=TAG_UNCLASSIFIED,
        prime=field.p,
        seed=seed,
        trials=trials,
    )


class CorollaryCell(NamedTuple):
    """One k = 1 cell of the corollary sweep.

    An immutable record, built for every cell of a sweep: a named tuple
    costs about half what a frozen dataclass does to build.
    """

    n: int
    a: int
    s: int
    defect: int
    dim: int
    expected_dim: int


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
                cells.append(CorollaryCell(n, a, s, defect, expected - defect, expected))
    return CorollaryReport(n_max=n_max, a_max=a_max, cells=tuple(cells))
