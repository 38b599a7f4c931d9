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

an independent second computation path for every secant dimension.  Like
the tangent path, its Monte-Carlo trials stream panels of double points
through ``terracini.rank_profile``; only ``ideal_dimension``, which also
serves reduced points, ranks a whole condition matrix in one shot.

Sampled points use the chart z_0 = 1, which already avoids H2; membership
in H1 is rejection-sampled with a capped number of retries so that a
pathological stream fails loudly instead of degenerating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import ConditionMatrix, PrimeField, rank, sample_point
from .monomials import gradient_rows, split_exponent_array
from .terracini import (
    DEFAULT_MEMORY_BUDGET,
    SecantReport,
    SegreVeroneseSpec,
    check_memory_budget,
    check_profile_size,
    rank_profile,
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
        SegreVeroneseSpec(self.n, self.m, self.a, self.b)  # raises unless n, m, a, b >= 1
        if self.s < 0 or self.simple_points < 0:
            raise ValueError("s and simple_points must be >= 0")

    @property
    def embedding(self) -> SegreVeroneseSpec:
        return SegreVeroneseSpec(self.n, self.m, self.a, self.b)


def sample_generic_point(
    scheme: AffineSchemeSpec,
    field: PrimeField,
    rng: np.random.Generator,
) -> np.ndarray:
    """A point of P^(n+m) off H1 and H2, in the chart z_0 = 1.

    With z_0 = 1 the point can never lie on H2 = {z_0 = ... = z_n = 0}; it
    lies on H1 = {z_n = ... = z_(n+m) = 0} only when the trailing m + 1
    coordinates all vanish, which is rejection-sampled away.
    """
    for _ in range(MAX_POINT_RETRIES):
        point = sample_point(scheme.n + scheme.m, field, rng)
        if np.any(point[scheme.n :]):
            return point
    raise GenericityError(
        f"failed to sample a point off H1 for {scheme} after {MAX_POINT_RETRIES} retries"
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
    blocks = [np.zeros((0, gammas.shape[0]), dtype=np.int64)]
    for kind, points in (("double", double_points), ("simple", simple_points)):
        points = [np.asarray(point, dtype=np.int64) for point in points]
        for point in points:
            if point.shape != (nvars,):
                raise ValueError(f"{kind} point must have {nvars} coordinates, got {point.shape}")
        if points:
            values, partials = gradient_rows(gammas, np.array(points), field.p)
            blocks.append(partials.reshape(-1, gammas.shape[0]) if kind == "double" else values)
    return ConditionMatrix(np.vstack(blocks), field)


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
    ncols = scheme.embedding.N + 1
    rows = scheme.s * (scheme.n + scheme.m + 1) + scheme.simple_points
    check_memory_budget(f"condition matrix for {scheme}", ncols, rows, 0, memory_budget)
    rng = trial_rng(scheme.embedding, seed, 0, field.p, _METHOD_AFFINE)
    doubles = [sample_generic_point(scheme, field, rng) for _ in range(scheme.s)]
    simples = [sample_generic_point(scheme, field, rng) for _ in range(scheme.simple_points)]
    return ncols - rank(condition_matrix(scheme, doubles, simples, field))


def secant_dimension_via_reduction(
    spec: SegreVeroneseSpec,
    s: int,
    trials: int = 3,
    field: PrimeField | None = None,
    seed: int = 0,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> SecantReport:
    """dim sigma_s computed as N minus the ideal dimension in P^(n+m).

    Each trial streams the double-point conditions, a panel of points at a
    time, through ``rank_profile``; random evaluation can only overestimate
    the ideal dimension, so its minimum over trials (the max rank) is the
    right aggregator, and N - (|split basis| - rank) = rank - 1.
    """
    if field is None:
        field = PrimeField()
    scheme = AffineSchemeSpec(spec.n, spec.m, spec.a, spec.b, s)
    check_profile_size(f"affine rank profile for {scheme}", spec, s, field.p, memory_budget)
    nvars = spec.dim + 1
    gammas = split_exponent_array(spec)

    def panel_at(rng: np.random.Generator, k: int) -> np.ndarray:
        points = np.array([sample_generic_point(scheme, field, rng) for _ in range(k)])
        return gradient_rows(gammas, points, field.p)[1].reshape(k * nvars, -1)

    ranks = rank_profile(
        gammas.shape[0], nvars, field, s, trials,
        lambda trial: trial_rng(spec, seed, trial, field.p, _METHOD_AFFINE),
        panel_at,
    )
    return SecantReport.measured(spec, s, int(ranks[-1]) - 1, field, seed, trials, "affine-reduction")
