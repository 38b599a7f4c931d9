"""Secant dimensions by rank of stacked tangent rows at random points.

The bidegree-(a, b) monomial map sends (x, y) in P^n x P^m to the point of
P^N whose coordinates are all monomials x^alpha y^beta.  The affine cone
over the image has its tangent space at the image of (x, y) spanned by the
n + m + 2 first partial derivatives of that map; by Terracini's lemma the
projective dimension of the s-th secant variety at generic points equals
the rank of the s stacked tangent blocks minus one.

The two bigraded Euler relations make one of the n + m + 2 partials per
point redundant, so each block has rank n + m + 1 at a generic point.
``tangent_block`` returns all of them, since it takes any representatives;
the sampled points have x_0 = 1, where the partial in x_0 is a combination
of the point's other rows, so ``_tangent_panel`` never builds that row.

Dually, the same evaluations read as linear conditions on coefficient
vectors cut out the bidegree-(a, b) part of the ideal of s double points:
``tangent_matrix`` is also that condition matrix, and
rank(tangent rows) + dim kernel = N + 1 on identical point sets.

Random evaluation over F_p can only underestimate the generic rank
(semicontinuity), which is why dimensions are aggregated as the max over
trials and why any disagreement with the closed-form classification is a
reportable event, never silently resolved.

``rank_profile`` is the one Monte-Carlo loop of the package, shared by the
tangent and affine-reduction paths.  It draws the points of a trial in
panels of consecutive points, builds each panel's rows in one call and
absorbs them in one ``RankAccumulator.absorb``; the rows of the panel that
became pivots give the rank after each of its points.  The loop runs with
OpenBLAS on one thread (``field.one_blas_thread``).  Both paths build a
panel with ``monomials.euler_panel``, each from its exponent matrix and the
variable that is 1 at every point: each partial scaled by its coordinate,
the exponent matrix times one vector of monomial values, which has the
rank and row rank profile of the partials wherever those coordinates are
nonzero; a panel with a zero coordinate gets the exact partials instead.

N + 1, the n, m, a, b >= 1 check and each report's expected dimension
and rule come from the closed-form layer (``numerology``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .field import (
    DEFAULT_PRIME,
    PANEL_ROWS,
    ConditionMatrix,
    PrimeField,
    RankAccumulator,
    SizingError,
    one_blas_thread,
    sample_point,
)
from .monomials import bigraded, euler_panel, exponent_vectors, gradient_rows
from .numerology import _ambient, classify, expected_dimension

#: Largest number of matrix entries a single dimension query may allocate.
DEFAULT_MEMORY_BUDGET = 2**25

#: Printed once in every dim and verify payload so runs are reproducible
#: across machines.
RNG_DESCRIPTION = (
    "numpy PCG64; stream per trial from SeedSequence(seed, "
    "spawn_key=(n, m, a, b, trial, prime, method_id)) with method_id 0 for "
    "tangent sampling and 1 for the affine reduction; each block draws the "
    "x point then the y point, leading coordinate 1, others uniform in [0, p)"
)

_METHOD_TANGENT = 0

#: Schema tag of every JSON report.
SCHEMA = "segre-secant/2"

@dataclass(frozen=True)
class SegreVeroneseSpec:
    """The embedding of P^n x P^m by bidegree-(a, b) monomials."""

    n: int
    m: int
    a: int
    b: int

    def __post_init__(self) -> None:
        # The closed-form layer's n, m, a, b >= 1 check, with its text.
        _ambient(self.n, self.m, self.a, self.b)

    @property
    def N(self) -> int:
        """Ambient projective dimension, C(n+a, n) * C(m+b, m) - 1."""
        return _ambient(self.n, self.m, self.a, self.b) - 1

    @property
    def dim(self) -> int:
        """Dimension of the variety itself."""
        return self.n + self.m

    def swapped(self) -> "SegreVeroneseSpec":
        return SegreVeroneseSpec(self.m, self.n, self.b, self.a)


class SecantReport(NamedTuple):
    """One dimension measurement with everything needed to reproduce it.

    The row dim and verify print: the fields are the row's keys, in order.
    ``rule`` is the closed-form verdict's rule tag, empty where no closed
    form applies (m != 1).  Build it with ``measured``.
    """

    n: int
    m: int
    a: int
    b: int
    s: int
    N: int
    expected_dim: int
    computed_dim: int
    defect: int
    rule: str
    prime: int
    seed: int
    trials: int
    method: str

    @classmethod
    def measured(
        cls, spec: SegreVeroneseSpec, s: int, computed: int, prime: int, seed: int, trials: int, method: str
    ) -> "SecantReport":
        """The report of a computed dimension against min(N, s(n+m+1) - 1)."""
        expected = expected_dimension(spec.n, spec.m, spec.a, spec.b, s)
        if computed > expected:
            raise ValueError(f"computed dimension {computed} exceeds expected {expected}")
        rule = classify(spec.n, spec.a, spec.b, s).rule if spec.m == 1 else ""
        return cls(
            spec.n, spec.m, spec.a, spec.b, s, spec.N, expected, computed, expected - computed,
            rule, prime, seed, trials, method,
        )


#: The CSV header of dim and verify: the fields of ``SecantReport``.
CSV_COLUMNS = SecantReport._fields


def trial_rng(
    spec: SegreVeroneseSpec, seed: int, trial: int, prime: int, method_id: int = _METHOD_TANGENT
) -> np.random.Generator:
    """The documented per-trial random stream (see RNG_DESCRIPTION)."""
    key = (spec.n, spec.m, spec.a, spec.b, trial, prime, method_id)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def panel_rows(point_rank: int, s_max: int) -> int:
    """Rows of the largest panel ``rank_profile`` absorbs for s_max points."""
    return min(s_max, max(1, PANEL_ROWS // point_rank)) * point_rank


def check_memory_budget(what: str, ncols: int, block_rows: int, profile: int, memory_budget: int) -> None:
    """Refuses a rank computation whose arrays would exceed the budget.

    Counts, in matrix entries: the block of ``block_rows`` rows absorbed
    at once (``panel_rows`` for a rank profile), three basis buffers of
    ncols**2 / 4 entries, and three int64 arrays of ``profile`` entries for
    a rank profile of that length (0 for a one-shot rank), so a huge s is
    refused before anything runs.  ``what`` names the computation in the
    error.

    The accumulator allocates two of those buffers, once, and per-panel
    temporaries, so for large cells the count is above the allocation.  The count is the figure of
    the error text, which ``verify`` prints among its errors; lowering it
    changes stdout, so it waits for the schema after ``segre-secant/2``.
    """
    entries = block_rows * ncols + 3 * (ncols * ncols // 4) + 3 * profile
    if entries > memory_budget:
        raise SizingError(f"{what} needs {entries} entries, budget is {memory_budget}")


def check_prime_bound(spec: SegreVeroneseSpec, s: int, p: int) -> None:
    """Refuses a prime too small for one trial to bound its failure chance.

    Tangent and affine condition entries are forms of degree a + b - 1 in
    the point coordinates, so a minor of generic rank size has degree at
    most min(N+1, s(n+m+1)) * (a+b-1), and by Schwartz-Zippel one trial
    misses the generic rank with probability at most that over p.
    """
    bound = min(spec.N + 1, s * (spec.dim + 1)) * (spec.a + spec.b - 1)
    if bound >= p:
        raise ValueError(
            f"prime {p} is too small for {spec} with s={s}: the Schwartz-Zippel "
            f"bound of one trial is {bound}/{p}, not below 1"
        )


def tangent_block(alphas: np.ndarray, betas: np.ndarray, x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """The n+m+2 gradient rows of the monomial map at each point (x, y).

    ``x`` and ``y`` are one point's coordinate vectors, or (k, n+1) and
    (k, m+1) arrays of k points whose blocks are stacked in point order.
    Row order within a block: the n+1 partials in the x variables, then
    the m+1 partials in the y variables.  Columns are alpha-major over
    (alphas, betas), the rows of ``monomials.bigraded``.
    """
    exps = bigraded(alphas, betas)
    return gradient_rows(exps, np.hstack([x, y]), p)[1].reshape(-1, exps.shape[0])


def _validated_points(spec: SegreVeroneseSpec, points) -> list[tuple[np.ndarray, np.ndarray]]:
    pts = list(points)
    if len(pts) < 1:
        raise ValueError("need at least one point (s >= 1)")
    out = []
    for x, y in pts:
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        if x.shape != (spec.n + 1,):
            raise ValueError(f"x coordinate vector must have length {spec.n + 1}, got {x.shape}")
        if y.shape != (spec.m + 1,):
            raise ValueError(f"y coordinate vector must have length {spec.m + 1}, got {y.shape}")
        out.append((x, y))
    return out


def tangent_matrix(spec: SegreVeroneseSpec, points, field: PrimeField) -> ConditionMatrix:
    """Stacked tangent blocks at the given points.

    s * (n+m+2) rows and N + 1 columns; dim sigma_s = rank - 1 for generic
    points.  Points are (x, y) pairs of coordinate vectors of lengths n + 1
    and m + 1 (the engine samples them in the chart x_0 = y_0 = 1, but any
    representatives work: rescaling a point rescales rows and leaves the
    rank unchanged).
    """
    pts = _validated_points(spec, points)
    alphas = exponent_vectors(spec.a, spec.n + 1)
    betas = exponent_vectors(spec.b, spec.m + 1)
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    return ConditionMatrix(tangent_block(alphas, betas, xs, ys, field.p), field)


def rank_profile(
    ncols: int,
    point_rank: int,
    field: PrimeField,
    s_max: int,
    trials: int,
    rng_for,
    panel_at,
) -> np.ndarray:
    """Rank after each of s_max sampled points, the elementwise max over trials.

    Trial t streams its points through one fresh incremental rank
    accumulator (a nested point stream), so entry s - 1 is the rank of the
    rows of s points.  ``panel_at(rng, k)`` draws the next k points from
    the trial's stream rng_for(t) and returns their rows, ``point_rank``
    per point, stacked in draw order; absorbing draws nothing, so each
    stream sees the same draws as sampling all points up front.  The rank
    after each point of a panel comes from the rows that became pivots
    (``RankAccumulator.pivot_rows``).

    The point_rank rows of a point add at most point_rank to the rank, so
    the rank of s points is at most ceiling[s - 1] = min(ncols, s * point_rank).
    The rank after a point depends only on the span of its rows, so a
    caller leaves out any row that lies in the span of the point's others:
    the tangent path streams n + m + 1 rows per point, not the n + m + 2
    of ``tangent_block`` (see ``_tangent_panel``).  Random
    evaluation can only underestimate a rank, so the loop stops early
    without changing the result: a trial draws no further point once its
    rank is ncols, and no further trial runs once the running max equals
    the ceiling at every s.  Trials have their own streams, so skipping
    draws in one never shifts another.

    A panel holds min(points left, ceil((ncols - rank) / point_rank),
    PANEL_ROWS // point_rank) points, at least one.  The middle term
    is the fewest points that can fill the basis, so a panel never draws a
    point that a trial absorbing one point at a time would not draw.

    The two callers, ``dimension_profile`` and
    ``affine.secant_dimension_via_reduction``, size the run with
    ``check_profile_size`` before they build anything.  An s_max below 1
    is refused as ``s must be >= 1``, the text every path gives for an s.
    """
    if s_max < 1:
        raise ValueError(f"s must be >= 1, got {s_max}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    panel_points = panel_rows(point_rank, s_max) // point_rank
    ceiling = np.minimum(ncols, point_rank * np.arange(1, s_max + 1))
    best = np.zeros(s_max, dtype=np.int64)
    ends = point_rank * np.arange(1, panel_points + 1)
    with one_blas_thread():
        for trial in range(trials):
            rng = rng_for(trial)
            acc = RankAccumulator(ncols, field)
            ranks = np.full(s_max, ncols, dtype=np.int64)
            s = 0
            while s < s_max and acc.rank < ncols:
                k = min(s_max - s, -(-(ncols - acc.rank) // point_rank), panel_points)
                before = acc.rank
                acc.absorb(panel_at(rng, k))
                ranks[s : s + k] = before + np.searchsorted(acc.pivot_rows, ends[:k])
                s += k
            np.maximum(best, ranks, out=best)
            if np.array_equal(best, ceiling):
                break
    return best


def check_profile_size(what: str, spec: SegreVeroneseSpec, s_max: int, p: int, memory_budget: int) -> None:
    """The checks a rank profile of ``spec`` up to s_max passes before it runs.

    ``check_prime_bound`` at s_max, then ``check_memory_budget`` of a
    profile of n + m + 1 rows per point on N + 1 columns, the shape of both
    the tangent and the affine-reduction path; ``what`` names the profile
    in a budget refusal.
    """
    check_prime_bound(spec, s_max, p)
    check_memory_budget(what, spec.N + 1, panel_rows(spec.dim + 1, s_max), s_max, memory_budget)


def dimension_profile(
    spec: SegreVeroneseSpec,
    s_max: int,
    trials: int = 3,
    field: PrimeField | None = None,
    seed: int = 0,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> np.ndarray:
    """Monte-Carlo dimensions of sigma_s for every s = 1..s_max at once.

    The rank profile of tangent blocks (see ``rank_profile``) minus one:
    entry s - 1 holds dim sigma_s.  Each point streams its n + m + 1 rows
    other than the partial in x_0, which at x_0 = 1 lies in their span,
    built by ``_tangent_panel``.
    """
    if field is None:
        field = PrimeField(DEFAULT_PRIME)
    check_profile_size(f"tangent rank profile for {spec} with s={s_max}", spec, s_max, field.p, memory_budget)
    rows_at = _tangent_panel(spec, field.p)
    ranks = rank_profile(
        spec.N + 1, spec.dim + 1, field, s_max, trials,
        lambda trial: trial_rng(spec, seed, trial, field.p, _METHOD_TANGENT),
        lambda rng, k: rows_at(sample_point(spec.dim, field, rng, k)),
    )
    return ranks - 1


def _tangent_panel(spec: SegreVeroneseSpec, p: int):
    """The rows ``dimension_profile`` streams for a panel of chart points.

    ``monomials.euler_panel`` over the bigraded basis without x_0's column,
    y_0 = 1, at z rows (1, x_1..x_n, y_1..y_m): the partials in x_1..x_n,
    y_0..y_m.  The partial in x_0 is never built: at x_0 = 1 the bigraded
    Euler relation b * sum_i x_i d/dx_i = a * sum_j y_j d/dy_j gives it as
    b^-1 (a * sum_j y_j d/dy_j - b * sum_(i >= 1) x_i d/dx_i), and p > b.
    """
    alphas, betas = exponent_vectors(spec.a, spec.n + 1), exponent_vectors(spec.b, spec.m + 1)
    return euler_panel(bigraded(alphas, betas)[:, 1:], spec.n, p)


def secant_dimension(
    spec: SegreVeroneseSpec,
    s: int,
    trials: int = 3,
    field: PrimeField | None = None,
    seed: int = 0,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> SecantReport:
    """Monte-Carlo dimension of sigma_s, max over trials of fresh point sets."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if field is None:
        field = PrimeField(DEFAULT_PRIME)
    dims = dimension_profile(spec, s, trials=trials, field=field, seed=seed, memory_budget=memory_budget)
    return SecantReport.measured(spec, s, int(dims[s - 1]), field.p, seed, trials, "terracini")
