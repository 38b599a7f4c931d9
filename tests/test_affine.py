from math import comb

import numpy as np
import pytest

from segre_secant import (
    AffineSchemeSpec,
    GenericityError,
    PrimeField,
    SegreVeroneseSpec,
    dimension_profile,
    ideal_dimension,
    rank,
    secant_dimension,
    secant_dimension_via_reduction,
)
from segre_secant.affine import condition_matrix, sample_generic_point
from segre_secant.numerology import invariants

from oracles import segre_secant_dim

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
    points = [(sample_point(2, FIELD, rng), sample_point(1, FIELD, rng))]
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
    with pytest.raises(GenericityError) as excinfo:
        sample_generic_point(scheme, FIELD, _ZeroGenerator())
    assert "16" in str(excinfo.value)


def test_reduction_rejects_too_small_prime():
    # The affine path checks the same Schwartz-Zippel bound as the tangent
    # path: min(18, 4) * (2 + 2 - 1) = 12 is not below 11.
    with pytest.raises(ValueError, match="prime 11 is too small.*12/11"):
        secant_dimension_via_reduction(SegreVeroneseSpec(2, 1, 2, 2), 1, field=PrimeField(11))
    report = secant_dimension_via_reduction(SegreVeroneseSpec(2, 1, 2, 2), 1, field=PrimeField(13))
    assert report.prime == 13


def test_reduction_rejects_zero_trials_and_s():
    # The shared rank-profile checks, with the one text both paths give;
    # without them no trial ran and -1 came back.
    spec = SegreVeroneseSpec(2, 1, 2, 2)
    with pytest.raises(ValueError, match="^trials must be >= 1, got 0$"):
        secant_dimension_via_reduction(spec, 3, trials=0)
    for profile in (secant_dimension_via_reduction, dimension_profile):
        with pytest.raises(ValueError, match="^s must be >= 1, got 0$"):
            profile(spec, 0)


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
    rng = np.random.default_rng(2)
    for _ in range(50):
        point = sample_generic_point(scheme, FIELD, rng)
        assert point[0] == 1  # never on H2 = {z_0 = ... = z_n = 0}
        assert np.any(point[scheme.n :])  # never on H1 = {z_n = ... = 0}


def test_condition_matrix_shape_and_duality():
    scheme = AffineSchemeSpec(2, 1, 2, 2, 3, simple_points=2)
    rng = np.random.default_rng(8)
    doubles = [sample_generic_point(scheme, FIELD, rng) for _ in range(3)]
    simples = [sample_generic_point(scheme, FIELD, rng) for _ in range(2)]
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
