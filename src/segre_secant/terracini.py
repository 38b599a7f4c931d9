"""Secant dimensions by rank of stacked tangent rows at random points.

The bidegree-(a, b) monomial map sends (x, y) in P^n x P^m to the point of
P^N whose coordinates are all monomials x^alpha y^beta.  The affine cone
over the image has its tangent space at the image of (x, y) spanned by the
n + m + 2 first partial derivatives of that map; by Terracini's lemma the
projective dimension of the s-th secant variety at generic points equals
the rank of the s stacked tangent blocks minus one.

The two bigraded Euler relations make one of the n + m + 2 partials per
point redundant, so each block has rank n + m + 1 at a generic point; all
partials are emitted anyway, which keeps the blocks self-checking.

Dually, the same evaluations read as linear conditions on coefficient
vectors cut out the bidegree-(a, b) part of the ideal of s double points:
``tangent_matrix`` is also that condition matrix, and
rank(tangent rows) + dim kernel = N + 1 on identical point sets.

Random evaluation over F_p can only underestimate the generic rank
(semicontinuity), which is why dimensions are aggregated as the max over
trials and why any disagreement with the closed-form classification is a
reportable event, never silently resolved.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from math import comb

import numpy as np

from .field import (
    DEFAULT_PRIME,
    ConditionMatrix,
    PrimeField,
    RankAccumulator,
    SizingError,
    sample_point,
)
from .monomials import exponent_vectors, gradient_rows

#: Largest number of matrix entries a single dimension query may allocate.
DEFAULT_MEMORY_BUDGET = 2**25

#: Recorded in every report so runs are reproducible across machines.
RNG_DESCRIPTION = (
    "numpy PCG64; stream per trial from SeedSequence(seed, "
    "spawn_key=(n, m, a, b, trial, prime, method_id)) with method_id 0 for "
    "tangent sampling, 1 for the affine reduction, and 2 for the plain "
    "Veronese path (which uses m = b = 0 in the key); each block draws the "
    "x point then the y point, leading coordinate 1, others uniform in [0, p)"
)

_METHOD_TANGENT = 0

_SCHEMA = "segre-secant/1"

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
        if min(self.n, self.m, self.a, self.b) < 1:
            raise ValueError(
                f"n, m, a, b must all be >= 1, got ({self.n}, {self.m}, {self.a}, {self.b})"
            )

    @property
    def N(self) -> int:
        """Ambient projective dimension, C(n+a, n) * C(m+b, m) - 1."""
        return comb(self.n + self.a, self.n) * comb(self.m + self.b, self.m) - 1

    @property
    def dim(self) -> int:
        """Dimension of the variety itself."""
        return self.n + self.m

    def swapped(self) -> "SegreVeroneseSpec":
        return SegreVeroneseSpec(self.m, self.n, self.b, self.a)


def expected_secant_dimension(spec: SegreVeroneseSpec, s: int) -> int:
    """min(N, s(n+m+1) - 1), the parameter-count upper bound."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    return min(spec.N, s * (spec.dim + 1) - 1)


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
        d = {"schema": _SCHEMA}
        d.update(asdict(self.spec))
        d["N"] = self.spec.N
        for key in ("s", "expected_dim", "computed_dim", "defect", "prime", "seed", "trials", "method", "rng"):
            d[key] = getattr(self, key)
        return d

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


def trial_rng(spec, seed: int, trial: int, prime: int, method_id: int = _METHOD_TANGENT) -> np.random.Generator:
    """The documented per-trial random stream (see RNG_DESCRIPTION).

    ``spec`` is anything with n, m, a, b attributes: a SegreVeroneseSpec, or
    the m = b = 0 stand-in of the plain Veronese path.
    """
    key = (spec.n, spec.m, spec.a, spec.b, trial, prime, method_id)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _check_budget(spec: SegreVeroneseSpec, s: int, memory_budget: int) -> None:
    entries = (spec.N + 1) * s * (spec.n + spec.m + 2)
    if entries > memory_budget:
        raise SizingError(
            f"tangent matrix for {spec} with s={s} needs {entries} entries, "
            f"budget is {memory_budget}"
        )


def tangent_block(alphas: np.ndarray, betas: np.ndarray, x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """The n+m+2 gradient rows of the monomial map at one point (x, y).

    Row order: the n+1 partials in the x variables, then the m+1 partials in
    the y variables.  Columns are alpha-major over (alphas, betas).
    """
    vx, dx = gradient_rows(alphas, x, p)
    vy, dy = gradient_rows(betas, y, p)
    rows = np.concatenate([dx[:, :, None] * vy[None, None, :], vx[None, :, None] * dy[:, None, :]])
    return (rows % p).reshape(rows.shape[0], -1)


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
    blocks = [tangent_block(alphas, betas, x, y, field.p) for x, y in pts]
    return ConditionMatrix(np.vstack(blocks), field)


def dimension_profile(
    spec: SegreVeroneseSpec,
    s_max: int,
    trials: int = 3,
    field: PrimeField | None = None,
    seed: int = 0,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> np.ndarray:
    """Monte-Carlo dimensions of sigma_s for every s = 1..s_max at once.

    Each trial streams s_max point blocks through one incremental rank
    accumulator (a nested point stream), recording the rank after every
    block; the returned array is the elementwise max over trials, entry
    s - 1 holding dim sigma_s.
    """
    if s_max < 1:
        raise ValueError(f"s_max must be >= 1, got {s_max}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if field is None:
        field = PrimeField(DEFAULT_PRIME)
    _check_budget(spec, s_max, memory_budget)
    alphas = exponent_vectors(spec.a, spec.n + 1)
    betas = exponent_vectors(spec.b, spec.m + 1)
    ncols = alphas.shape[0] * betas.shape[0]
    best = np.full(s_max, -1, dtype=np.int64)
    for trial in range(trials):
        rng = trial_rng(spec, seed, trial, field.p, _METHOD_TANGENT)
        acc = RankAccumulator(ncols, field)
        dims = np.empty(s_max, dtype=np.int64)
        for s in range(1, s_max + 1):
            x = sample_point(spec.n, field, rng)
            y = sample_point(spec.m, field, rng)
            dims[s - 1] = acc.absorb(tangent_block(alphas, betas, x, y, field.p)) - 1
        np.maximum(best, dims, out=best)
    return best


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
    computed = int(dims[s - 1])
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
        method="terracini",
    )
