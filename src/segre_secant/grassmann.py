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

import numpy as np

from .field import ConditionMatrix, PrimeField, RankAccumulator, sample_point
from .monomials import exponent_vectors, gradient_rows
from .numerology import classify
from .terracini import (
    DEFAULT_MEMORY_BUDGET,
    SegreVeroneseSpec,
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
    blocks = []
    for x in points:
        x = np.asarray(x, dtype=np.int64)
        if x.shape != (n + 1,):
            raise ValueError(f"point must have {n + 1} coordinates, got {x.shape}")
        blocks.append(gradient_rows(exps, x, field.p)[1])
    return ConditionMatrix(np.vstack(blocks), field)


def veronese_secant_dimension(
    n: int,
    a: int,
    s: int,
    trials: int = 3,
    field: PrimeField | None = None,
    seed: int = 0,
) -> int:
    """Monte-Carlo dim of the s-th secant of the degree-a Veronese of P^n."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if field is None:
        field = PrimeField()
    exps = exponent_vectors(a, n + 1)
    # The Veronese has no second factor: m = b = 0 in the spawn key.
    key_spec = SimpleNamespace(n=n, m=0, a=a, b=0)
    best = -1
    for trial in range(trials):
        rng = trial_rng(key_spec, seed, trial, field.p, _METHOD_VERONESE)
        acc = RankAccumulator(exps.shape[0], field)
        rank = 0
        for _ in range(s):
            x = sample_point(n, field, rng)
            rank = acc.absorb(gradient_rows(exps, x, field.p)[1])
        best = max(best, rank - 1)
    return best


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
    if field is None:
        field = PrimeField()
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
    if query.k == 0:
        computed = veronese_secant_dimension(
            query.n, query.a, query.s, trials=trials, field=field, seed=seed
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


@dataclass(frozen=True)
class CorollaryCell:
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
        """True when the unique defective cell is (n, a, s) = (2, 3, 5) with defect 1."""
        bad = self.defective
        return (
            len(bad) == 1
            and (bad[0].n, bad[0].a, bad[0].s, bad[0].defect) == (2, 3, 5, 1)
        )


def check_corollary(n_max: int, a_max: int) -> CorollaryReport:
    """Sweep k = 1 over all valid (n, a, s) with n <= n_max, a <= a_max.

    Expected outcome: defect 0 everywhere except (2, 3, 5), where the defect
    is 1 (and dim Sec_(1,4) of the cubic Veronese surface is 15 against an
    expected 16).
    """
    if n_max < 2 or a_max < 2:
        raise ValueError(f"bounds must be >= 2, got ({n_max}, {a_max})")
    cells = []
    for n in range(1, n_max + 1):
        for a in range(1, a_max + 1):
            N = comb(n + a, n) - 1
            for s in range(2, N + 1):
                query = GrassmannQuery(n=n, a=a, k=1, s=s)
                verdict = grassmann_defect(query)
                cells.append(
                    CorollaryCell(
                        n=n,
                        a=a,
                        s=s,
                        defect=verdict.defect,
                        dim=verdict.dim,
                        expected_dim=verdict.expected_dim,
                    )
                )
    return CorollaryReport(n_max=n_max, a_max=a_max, cells=tuple(cells))
