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
of the point's other rows, so ``dimension_profile`` never builds that row.

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
panels of consecutive points, evaluates each panel's rows in one call and
absorbs them in one ``RankAccumulator.absorb``; the rows of the panel that
became pivots give the rank after each of its points.  The loop runs with
OpenBLAS on one thread (``field.one_blas_thread``).

N + 1, the n, m, a, b >= 1 check and each report's expected dimension
come from the closed-form layer (``numerology``).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .field import (
    DEFAULT_PRIME,
    PANEL_ROWS,
    ConditionMatrix,
    PrimeField,
    RankAccumulator,
    SizingError,
    one_blas_thread,
)
from .monomials import exponent_vectors, gradient_rows
from .numerology import _ambient, expected_dimension

#: Largest number of matrix entries a single dimension query may allocate.
DEFAULT_MEMORY_BUDGET = 2**25

#: Recorded in every report so runs are reproducible across machines.  The
#: method_id 2 clause names a retired stream; it changes only with the
#: segre-secant/2 schema bump, since dim and verify print this text.
RNG_DESCRIPTION = (
    "numpy PCG64; stream per trial from SeedSequence(seed, "
    "spawn_key=(n, m, a, b, trial, prime, method_id)) with method_id 0 for "
    "tangent sampling, 1 for the affine reduction, and 2 for the plain "
    "Veronese path (which uses m = b = 0 in the key); each block draws the "
    "x point then the y point, leading coordinate 1, others uniform in [0, p)"
)

_METHOD_TANGENT = 0

#: Schema tag of every JSON report.
SCHEMA = "segre-secant/1"

#: Allowed provenance tags for a SecantReport.
METHODS = ("terracini", "affine-reduction")


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


@dataclass
class SecantReport:
    """One dimension measurement with everything needed to reproduce it."""

    spec: SegreVeroneseSpec
    s: int
    expected_dim: int
    computed_dim: int
    defect: int
    prime: int
    seed: int
    trials: int
    method: str
    rng: str = RNG_DESCRIPTION

    def __post_init__(self) -> None:
        if self.computed_dim > self.expected_dim:
            raise ValueError(
                f"computed dimension {self.computed_dim} exceeds expected {self.expected_dim}"
            )
        if self.defect != self.expected_dim - self.computed_dim:
            raise ValueError("defect must equal expected_dim - computed_dim")
        if self.method not in METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")

    def to_dict(self) -> dict:
        d = {"schema": SCHEMA}
        d.update(asdict(self.spec))
        d["N"] = self.spec.N
        for key in ("s", "expected_dim", "computed_dim", "defect", "prime", "seed", "trials", "method", "rng"):
            d[key] = getattr(self, key)
        return d

    @classmethod
    def measured(
        cls, spec: SegreVeroneseSpec, s: int, computed: int, field: PrimeField, seed: int, trials: int, method: str
    ) -> "SecantReport":
        """The report of a computed dimension against min(N, s(n+m+1) - 1)."""
        expected = expected_dimension(spec.n, spec.m, spec.a, spec.b, s)
        return cls(spec, s, expected, computed, expected - computed, field.p, seed, trials, method)

    @classmethod
    def from_dict(cls, d: dict) -> "SecantReport":
        spec = SegreVeroneseSpec(d["n"], d["m"], d["a"], d["b"])
        return cls(
            spec=spec,
            s=d["s"],
            expected_dim=d["expected_dim"],
            computed_dim=d["computed_dim"],
            defect=d["defect"],
            prime=d["prime"],
            seed=d["seed"],
            trials=d["trials"],
            method=d["method"],
            rng=d.get("rng", RNG_DESCRIPTION),
        )


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

    Counts what runs, in matrix entries: the block of ``block_rows`` rows
    absorbed at once (``panel_rows`` for a rank profile), the accumulator's
    three float64 buffers of at most ncols**2 / 4 entries each, and three
    int64 arrays of ``profile`` entries for a rank profile of that length
    (0 for a one-shot rank), so a huge s is refused before anything runs.
    ``what`` names the computation in the error.
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
    (alphas, betas).
    """
    return _tangent_rows(alphas, betas, x, y, p, 0)


def _tangent_rows(
    alphas: np.ndarray, betas: np.ndarray, x: np.ndarray, y: np.ndarray, p: int, first_x: int
) -> np.ndarray:
    """``tangent_block`` without the partials in x_0, ..., x_(first_x - 1).

    Only the rows kept are built.  With first_x = 1 and x_0 = 1 the rows
    dropped add nothing to the span: the bigraded Euler relation
    b * sum_i x_i d/dx_i = a * sum_j y_j d/dy_j gives the partial in x_0 as
    b^-1 (a * sum_j y_j d/dy_j - b * sum_(i >= 1) x_i d/dx_i), and p > b.
    """
    vx, dx = gradient_rows(alphas, np.atleast_2d(x), p)
    vy, dy = gradient_rows(betas, np.atleast_2d(y), p)
    rows = np.concatenate(
        [dx[:, first_x:, :, None] * vy[:, None, None, :], vx[:, None, :, None] * dy[:, :, None, :]], axis=1
    )
    return (rows % p).reshape(-1, alphas.shape[0] * betas.shape[0])


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
    of ``tangent_block`` (see ``_tangent_rows``).  Random
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
    other than the partial in x_0, which at x_0 = 1 lies in their span.
    """
    if field is None:
        field = PrimeField(DEFAULT_PRIME)
    check_profile_size(f"tangent rank profile for {spec} with s={s_max}", spec, s_max, field.p, memory_budget)
    alphas = exponent_vectors(spec.a, spec.n + 1)
    betas = exponent_vectors(spec.b, spec.m + 1)

    def panel_at(rng: np.random.Generator, k: int) -> np.ndarray:
        # One draw for the panel: row i holds point i's x then y coordinates
        # after the leading 1, the values of a sample_point call for x and
        # one for y per point.
        coords = rng.integers(0, field.p, size=(k, spec.n + spec.m), dtype=np.int64)
        ones = np.ones((k, 1), dtype=np.int64)
        x = np.hstack([ones, coords[:, : spec.n]])
        y = np.hstack([ones, coords[:, spec.n :]])
        return _tangent_rows(alphas, betas, x, y, field.p, 1)

    ranks = rank_profile(
        alphas.shape[0] * betas.shape[0], spec.dim + 1, field, s_max, trials,
        lambda trial: trial_rng(spec, seed, trial, field.p, _METHOD_TANGENT),
        panel_at,
    )
    return ranks - 1


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
    return SecantReport.measured(spec, s, int(dims[s - 1]), field, seed, trials, "terracini")
