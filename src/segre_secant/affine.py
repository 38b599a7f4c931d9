"""Secant dimensions through the single projective space P^(n+m).

The bidegree-(a, b) ideal of s generic double points on P^n x P^m has the
same dimension as the degree-(a+b) part of the ideal of the scheme

    b*H1 + a*H2 + 2P_1 + ... + 2P_s   in P^(n+m),

where H1, H2 are the coordinate subspaces fixed in ``monomials`` and the
P_i are generic points.  Restricting to the split basis of monomials
(``split_exponent_array``, which spans the degree-(a+b) part of the ideal
of b*H1 + a*H2), each double point contributes the n+m+1 partial-derivative
rows of the evaluation at the point (the value row is redundant by the
Euler relation), and each optional reduced point contributes one plain
evaluation row.  Then

    ideal dimension = |split basis| - rank(conditions)
    dim sigma_s     = N - ideal dimension,

an independent second computation path for every secant dimension.

Sampled points use the chart z_0 = 1, which already avoids H2; membership
in H1 is rejection-sampled with a capped number of retries so that a
pathological stream fails loudly instead of degenerating.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .field import ConditionMatrix, PrimeField, SizingError, sample_point
from .monomials import gradient_rows, split_exponent_array
from .terracini import (
    DEFAULT_MEMORY_BUDGET,
    SecantReport,
    SegreVeroneseSpec,
    expected_secant_dimension,
    trial_rng,
)

#: Rejection-sampling retry cap for points landing on H1 or H2.
MAX_POINT_RETRIES = 16

#: method_id of the affine-reduction stream in trial_rng's spawn key.
_METHOD_AFFINE = 1


class GenericityError(RuntimeError):
    """Point sampling kept hitting the special subspaces H1 or H2."""


@dataclass(frozen=True)
class AffineSchemeSpec:
    """The scheme b*H1 + a*H2 + s double points (+ optional reduced points)."""

    n: int
    m: int
    a: int
    b: int
    s: int
    simple_points: int = 0

    def __post_init__(self) -> None:
        if min(self.n, self.m, self.a, self.b) < 1:
            raise ValueError(
                f"n, m, a, b must all be >= 1, got ({self.n}, {self.m}, {self.a}, {self.b})"
            )
        if self.s < 0 or self.simple_points < 0:
            raise ValueError("s and simple_points must be >= 0")

    @property
    def embedding(self) -> SegreVeroneseSpec:
        return SegreVeroneseSpec(self.n, self.m, self.a, self.b)


def sample_generic_point(
    scheme: AffineSchemeSpec,
    field: PrimeField,
    rng: np.random.Generator,
    max_retries: int = MAX_POINT_RETRIES,
) -> np.ndarray:
    """A point of P^(n+m) off H1 and H2, in the chart z_0 = 1.

    With z_0 = 1 the point can never lie on H2 = {z_0 = ... = z_n = 0}; it
    lies on H1 = {z_n = ... = z_(n+m) = 0} only when the trailing m + 1
    coordinates all vanish, which is rejection-sampled away.
    """
    for _ in range(max_retries):
        point = sample_point(scheme.n + scheme.m, field, rng)
        if np.any(point[scheme.n :]):
            return point
    raise GenericityError(
        f"failed to sample a point off H1 for {scheme} after {max_retries} retries"
    )


def condition_matrix(
    scheme: AffineSchemeSpec,
    double_points,
    simple_points=(),
    field: PrimeField | None = None,
) -> ConditionMatrix:
    """Vanishing conditions on split-basis coefficient vectors.

    n+m+1 derivative rows per double point, then one evaluation row per
    reduced point; columns follow ``split_exponent_array`` order.
    """
    if field is None:
        field = PrimeField()
    gammas = split_exponent_array(scheme.embedding)
    nvars = scheme.n + scheme.m + 1
    rows = []
    for point in double_points:
        point = np.asarray(point, dtype=np.int64)
        if point.shape != (nvars,):
            raise ValueError(f"double point must have {nvars} coordinates, got {point.shape}")
        rows.append(gradient_rows(gammas, point, field.p)[1])
    for point in simple_points:
        point = np.asarray(point, dtype=np.int64)
        if point.shape != (nvars,):
            raise ValueError(f"simple point must have {nvars} coordinates, got {point.shape}")
        rows.append(gradient_rows(gammas, point, field.p)[0][None, :])
    if not rows:
        entries = np.zeros((0, gammas.shape[0]), dtype=np.int64)
    else:
        entries = np.vstack(rows)
    return ConditionMatrix(entries, field)


def _check_budget(scheme: AffineSchemeSpec, ncols: int, memory_budget: int) -> None:
    entries = ncols * (scheme.s * (scheme.n + scheme.m + 1) + scheme.simple_points)
    if entries > memory_budget:
        raise SizingError(
            f"condition matrix for {scheme} needs {entries} entries, budget is {memory_budget}"
        )


def _ideal_dimension_with_rng(
    scheme: AffineSchemeSpec,
    field: PrimeField,
    rng: np.random.Generator,
    memory_budget: int,
) -> int:
    from .field import rank

    ncols = comb(scheme.n + scheme.a, scheme.n) * comb(scheme.m + scheme.b, scheme.m)
    _check_budget(scheme, ncols, memory_budget)
    doubles = [sample_generic_point(scheme, field, rng) for _ in range(scheme.s)]
    simples = [sample_generic_point(scheme, field, rng) for _ in range(scheme.simple_points)]
    matrix = condition_matrix(scheme, doubles, simples, field)
    return ncols - rank(matrix)


def ideal_dimension(
    scheme: AffineSchemeSpec,
    field: PrimeField | None = None,
    seed: int = 0,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> int:
    """dim of the degree-(a+b) part of the ideal of the sampled scheme.

    With s = 0 and no reduced points this is exactly
    C(n+a, n) * C(m+b, m), no randomness involved.
    """
    if field is None:
        field = PrimeField()
    rng = trial_rng(scheme.embedding, seed, 0, field.p, _METHOD_AFFINE)
    return _ideal_dimension_with_rng(scheme, field, rng, memory_budget)


def secant_dimension_via_reduction(
    spec: SegreVeroneseSpec,
    s: int,
    trials: int = 3,
    field: PrimeField | None = None,
    seed: int = 0,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> SecantReport:
    """dim sigma_s computed as N minus the ideal dimension in P^(n+m).

    Aggregates over trials like the tangent-rank path: random evaluation can
    only overestimate the ideal dimension, so the minimum over trials (the
    max over computed dimensions) is the right aggregator.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if field is None:
        field = PrimeField()
    scheme = AffineSchemeSpec(spec.n, spec.m, spec.a, spec.b, s)
    best = None
    for trial in range(trials):
        rng = trial_rng(spec, seed, trial, field.p, _METHOD_AFFINE)
        value = _ideal_dimension_with_rng(scheme, field, rng, memory_budget)
        best = value if best is None else min(best, value)
    computed = spec.N - best
    expected = expected_secant_dimension(spec, s)
    return SecantReport(
        spec=spec,
        s=s,
        expected_dim=expected,
        computed_dim=computed,
        defect=expected - computed,
        prime=field.p,
        seed=seed,
        trials=trials,
        method="affine-reduction",
    )
