from math import comb

import numpy as np
import pytest

from segre_secant import (
    AffineSchemeSpec,
    GenericityError,
    PrimeField,
    SegreVeroneseSpec,
    SizingError,
    dimension_profile,
    ideal_dimension,
    rank,
    secant_dimension,
    secant_dimension_via_reduction,
)
from segre_secant.affine import condition_matrix, sample_generic_point
from segre_secant.numerology import invariants
from segre_secant.terracini import trial_rng

from oracles import points_off_h1_one_by_one, segre_secant_dim

FIELD = PrimeField()


def test_scheme_validation():
    with pytest.raises(ValueError):
        AffineSchemeSpec(0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        AffineSchemeSpec(1, 1, 1, 1, -1)
    with pytest.raises(ValueError):
        AffineSchemeSpec(1, 1, 1, 1, 0, simple_points=-2)
    AffineSchemeSpec(1, 1, 1, 1, 0)  # s = 0 is a legitimate base scheme


@pytest.mark.parametrize(
    "n, m, a, b",
    [(1, 1, 1, 1), (2, 1, 2, 1), (2, 1, 3, 1), (3, 1, 2, 2), (2, 2, 2, 2), (1, 3, 2, 3)],
)
def test_base_scheme_ideal_dimension_is_exact_count(n, m, a, b):
    scheme = AffineSchemeSpec(n, m, a, b, 0)
    expected = comb(n + a, n) * comb(m + b, m)
    assert ideal_dimension(scheme) == expected
    # no randomness is involved: any seed gives the same exact answer
    assert ideal_dimension(scheme, seed=123) == expected


def test_one_double_point_imposes_full_conditions():
    # 12 monomials minus n+m+1 = 4 independent conditions; the multigraded
    # side of the dictionary (a double-point ideal kernel) is the oracle.
    assert ideal_dimension(AffineSchemeSpec(2, 1, 2, 1, 1)) == 8
    from segre_secant import sample_point, tangent_matrix
    from segre_secant.terracini import trial_rng

    spec = SegreVeroneseSpec(2, 1, 2, 1)
    rng = trial_rng(spec, seed=0, trial=0, prime=FIELD.p)
    points = [(sample_point(2, FIELD, rng, 1)[0], sample_point(1, FIELD, rng, 1)[0])]
    conditions = tangent_matrix(spec, points, FIELD)
    assert conditions.cols - rank(conditions) == 8


def test_defect_one_kernel():
    assert ideal_dimension(AffineSchemeSpec(2, 1, 3, 1, 5)) == 1


def test_reduction_reports_match_named_cases():
    cases = [
        (SegreVeroneseSpec(1, 1, 2, 2), 3, 7),
        (SegreVeroneseSpec(2, 1, 3, 1), 5, 18),
        (SegreVeroneseSpec(3, 1, 3, 1), 8, 39),
    ]
    for spec, s, dim in cases:
        report = secant_dimension_via_reduction(spec, s)
        assert report.computed_dim == dim
        assert report.method == "affine-reduction"
        assert report.defect == report.expected_dim - dim


def test_filling_case_agrees_with_tangent_path():
    spec = SegreVeroneseSpec(3, 1, 3, 1)
    assert invariants(3, 1, 3, 1).qstar == 8
    via_reduction = secant_dimension_via_reduction(spec, 8).computed_dim
    via_tangent = secant_dimension(spec, 8).computed_dim
    assert via_reduction == via_tangent == 39 == spec.N


def test_reduction_equivalence_small_grid():
    specs = [
        SegreVeroneseSpec(1, 1, 2, 2),
        SegreVeroneseSpec(2, 1, 2, 2),
        SegreVeroneseSpec(2, 1, 3, 1),
        SegreVeroneseSpec(1, 2, 1, 3),
        SegreVeroneseSpec(2, 2, 1, 2),
    ]
    for spec in specs:
        qstar = invariants(spec.n, spec.m, spec.a, spec.b).qstar
        for s in range(1, qstar + 2):
            tangent = secant_dimension(spec, s, trials=2, seed=1).computed_dim
            reduction = secant_dimension_via_reduction(spec, s, trials=2, seed=1).computed_dim
            assert tangent == reduction, (spec, s)


@pytest.mark.parametrize(
    "spec, s, p",
    [
        (SegreVeroneseSpec(2, 1, 3, 1), 5, FIELD.p),
        (SegreVeroneseSpec(1, 1, 2, 2), 3, FIELD.p),
        (SegreVeroneseSpec(1, 2, 2, 1), 3, FIELD.p),
        (SegreVeroneseSpec(2, 2, 2, 3), 6, FIELD.p),
        # Primes just above the Schwartz-Zippel bound: draws often fall on
        # special positions, so equal values pin equal draws.
        (SegreVeroneseSpec(1, 1, 2, 1), 2, 13),
        (SegreVeroneseSpec(1, 2, 1, 1), 2, 7),
        (SegreVeroneseSpec(2, 1, 1, 1), 2, 7),
    ],
)
def test_streamed_reduction_matches_one_shot_ideal(spec, s, p):
    # Trial 0 of the streamed path and the one-shot ideal draw the same points.
    field = PrimeField(p)
    scheme = AffineSchemeSpec(spec.n, spec.m, spec.a, spec.b, s)
    for seed in range(20):
        streamed = secant_dimension_via_reduction(spec, s, trials=1, field=field, seed=seed)
        assert streamed.computed_dim == spec.N - ideal_dimension(scheme, field=field, seed=seed), seed


def test_generic_simple_points_impose_independent_conditions():
    rng = np.random.default_rng(31)
    for _ in range(6):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        a = int(rng.integers(1, 4))
        b = int(rng.integers(1, 4))
        s = int(rng.integers(0, 3))
        base = ideal_dimension(AffineSchemeSpec(n, m, a, b, s), seed=5)
        for extra in range(1, 4):
            value = ideal_dimension(
                AffineSchemeSpec(n, m, a, b, s, simple_points=extra), seed=5
            )
            assert value == max(base - extra, 0)


class _ZeroGenerator:
    """Duck-typed stand-in for a numpy Generator that always returns zeros."""

    def integers(self, low, high, size=None, dtype=None):
        return np.zeros(size, dtype=dtype or np.int64)


def test_rejection_cap_raises_loudly():
    scheme = AffineSchemeSpec(1, 1, 1, 1, 1)
    for k in (1, 5, 40):
        with pytest.raises(GenericityError) as excinfo:
            sample_generic_point(scheme, FIELD, _ZeroGenerator(), k)
        assert str(excinfo.value) == f"failed to sample a point off H1 for {scheme} after 16 retries"


class _ScriptedGenerator:
    """Duck-typed Generator serving fixed rows in order, whatever the draw shape."""

    def __init__(self, rows):
        self.rows = rows
        self.drawn = 0

    def integers(self, low, high, size, dtype):
        k, width = size
        out = np.array(self.rows[self.drawn : self.drawn + k], dtype=dtype).reshape(k, width)
        self.drawn += k
        return out


@pytest.mark.parametrize("k, lead", [(1, 0), (3, 0), (3, 1), (3, 2)])
@pytest.mark.parametrize("on_h1", [15, 16])
def test_rejection_cap_is_sixteen_draws_in_a_row(k, lead, on_h1):
    # (1, 1): a draw (z_1, z_2) lies on H1 when both vanish.  ``lead`` points
    # come before a run of draws on H1 that spans refills of k - lead rows
    # or fewer; 15 in a row pass and the 16th raises, as retrying each point
    # up to 16 times did.
    scheme = AffineSchemeSpec(1, 1, 1, 1, 1)
    good = [[3, 1], [4, 0], [5, 9]][:k]
    rows = good[:lead] + [[0, 0]] * on_h1 + good[lead:] + [[2, 6]] * 3
    rng = _ScriptedGenerator(rows)
    if on_h1 == 16:
        with pytest.raises(GenericityError, match="after 16 retries"):
            sample_generic_point(scheme, FIELD, rng, k)
        return
    assert sample_generic_point(scheme, FIELD, rng, k).tolist() == [[1, *row] for row in good]
    assert rng.drawn == k + on_h1


class _CountingGenerator:
    """A numpy Generator that counts the rows of its ``integers`` draws."""

    def __init__(self, rng):
        self.rng, self.rows = rng, 0

    def integers(self, low, high, size, dtype):
        self.rows += size[0]
        return self.rng.integers(low, high, size=size, dtype=dtype)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (1, 2), (3, 1)])
def test_panel_sampler_matches_point_by_point_oracle(n, m):
    # At p = 2 a draw lies on H1 with probability 2**-(m + 1), so panels are
    # often refilled.  The points, and the draw after them, are those of
    # drawing one point at a time and retrying it on H1.
    field = PrimeField(2)
    scheme = AffineSchemeSpec(n, m, 1, 1, 1)
    refilled = 0
    for seed in range(150):
        for k in (1, 3, 8, 32):
            rng, oracle = _CountingGenerator(np.random.default_rng([seed, k])), np.random.default_rng([seed, k])
            points = sample_generic_point(scheme, field, rng, k)
            assert points.tolist() == points_off_h1_one_by_one(n, m, 2, oracle, k), (seed, k)
            assert rng.rng.integers(0, 2**31, size=4).tolist() == oracle.integers(0, 2**31, size=4).tolist()
            refilled += rng.rows > k
    assert refilled > 100


@pytest.mark.parametrize("p, refills", [(5, True), (2**31 - 1, False)])
def test_panels_with_and_without_draws_on_h1_match_the_oracle(p, refills):
    # The trial streams of `dim --n 1 --m 1 --a 1 --b 1 --s 2 --prime 5
    # --cross-check --seed 29` draw points on H1, so their panels are
    # refilled; at 2**31 - 1 no draw lies on H1 and the panel is returned
    # as drawn.  Either way the points, and the draw after them, are those
    # of drawing one point at a time.
    spec = SegreVeroneseSpec(1, 1, 1, 1)
    scheme = AffineSchemeSpec(1, 1, 1, 1, 2)
    refilled = 0
    for trial in range(3):
        rng, oracle = _CountingGenerator(trial_rng(spec, 29, trial, p, 1)), trial_rng(spec, 29, trial, p, 1)
        points = sample_generic_point(scheme, PrimeField(p), rng, 2)
        assert points.tolist() == points_off_h1_one_by_one(1, 1, p, oracle, 2), trial
        assert rng.rng.integers(0, 2**31, size=4).tolist() == oracle.integers(0, 2**31, size=4).tolist()
        refilled += rng.rows > 2
    assert (refilled > 0) == refills


def test_reduction_rejects_too_small_prime():
    # The affine path checks the same Schwartz-Zippel bound as the tangent
    # path: min(18, 4) * (2 + 2 - 1) = 12 is not below 11.
    with pytest.raises(ValueError, match="prime 11 is too small.*12/11"):
        secant_dimension_via_reduction(SegreVeroneseSpec(2, 1, 2, 2), 1, field=PrimeField(11))
    report = secant_dimension_via_reduction(SegreVeroneseSpec(2, 1, 2, 2), 1, field=PrimeField(13))
    assert report.prime == 13


def test_reduction_rejects_zero_trials_and_s():
    # The shared rank-profile checks, with the one text both paths give;
    # without them no trial ran and -1 came back.  A negative s reaches the
    # same check on the affine path, not its scheme's s >= 0 check.
    spec = SegreVeroneseSpec(2, 1, 2, 2)
    with pytest.raises(ValueError, match="^trials must be >= 1, got 0$"):
        secant_dimension_via_reduction(spec, 3, trials=0)
    for profile in (secant_dimension_via_reduction, dimension_profile, secant_dimension):
        for s in (0, -1):
            with pytest.raises(ValueError, match=f"^s must be >= 1, got {s}$"):
                profile(spec, s)


def test_budget_refusal_reads_the_same_on_both_paths():
    # Both profiles count the same entries for one spec and s, and name the
    # profile alike apart from its path.
    spec = SegreVeroneseSpec(2, 1, 3, 2)
    texts = []
    for profile in (dimension_profile, secant_dimension_via_reduction):
        with pytest.raises(SizingError) as excinfo:
            profile(spec, 4, memory_budget=100)
        texts.append(str(excinfo.value))
    tangent, affine = texts
    assert tangent.startswith("tangent rank profile for SegreVeroneseSpec(n=2, m=1, a=3, b=2) with s=4 needs ")
    assert affine == "affine" + tangent.removeprefix("tangent")


def test_reduction_matches_determinantal_closed_form():
    # The (1, 1) embedding's secants are determinantal loci; the reduction
    # path must find them too, not only the tangent path.
    for n in range(1, 4):
        for m in range(1, 4):
            for s in range(1, min(n, m) + 3):
                report = secant_dimension_via_reduction(SegreVeroneseSpec(n, m, 1, 1), s)
                assert report.computed_dim == segre_secant_dim(n, m, s), (n, m, s)


def test_sampled_points_avoid_special_subspaces():
    scheme = AffineSchemeSpec(2, 2, 1, 1, 1)
    points = sample_generic_point(scheme, PrimeField(3), np.random.default_rng(2), 200)
    assert points.shape == (200, 5)
    assert np.all(points[:, 0] == 1)  # never on H2 = {z_0 = ... = z_n = 0}
    assert np.all(points[:, scheme.n :].any(axis=1))  # never on H1 = {z_n = ... = 0}
    assert sample_generic_point(scheme, FIELD, np.random.default_rng(2), 0).shape == (0, 5)


def test_condition_matrix_shape_and_duality():
    scheme = AffineSchemeSpec(2, 1, 2, 2, 3, simple_points=2)
    rng = np.random.default_rng(8)
    doubles = sample_generic_point(scheme, FIELD, rng, 3)
    simples = sample_generic_point(scheme, FIELD, rng, 2)
    matrix = condition_matrix(scheme, doubles, simples, FIELD)
    ncols = comb(4, 2) * comb(3, 1)
    assert matrix.entries.shape == (3 * 4 + 2, ncols)
    assert ideal_dimension(scheme, seed=8) <= ncols - 3  # conditions do cut


def test_point_shape_validation():
    scheme = AffineSchemeSpec(1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        condition_matrix(scheme, [np.array([1, 2])], (), FIELD)
    with pytest.raises(ValueError):
        condition_matrix(scheme, [], [np.array([1, 2, 3, 4])], FIELD)
