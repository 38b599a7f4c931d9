import numpy as np
import pytest

from segre_secant import (
    DEFAULT_PRIME,
    SECOND_PRIME,
    PrimeField,
    SecantReport,
    SegreVeroneseSpec,
    SizingError,
    dimension_profile,
    expected_dimension,
    expected_secant_dimension,
    rank,
    sample_point,
    secant_dimension,
    tangent_matrix,
)
from segre_secant.terracini import trial_rng

FIELD = PrimeField(DEFAULT_PRIME)


def _points(spec, s, seed=0, field=FIELD):
    rng = trial_rng(spec, seed=seed, trial=0, prime=field.p)
    return [
        (sample_point(spec.n, field, rng), sample_point(spec.m, field, rng))
        for _ in range(s)
    ]


def test_spec_validation():
    with pytest.raises(ValueError):
        SegreVeroneseSpec(0, 1, 1, 1)
    with pytest.raises(ValueError):
        SegreVeroneseSpec(1, 1, 1, 0)
    assert SegreVeroneseSpec(2, 1, 3, 1).N == 19
    assert SegreVeroneseSpec(1, 1, 1, 1).dim == 2


@pytest.mark.parametrize(
    "spec",
    [
        SegreVeroneseSpec(1, 1, 1, 1),
        SegreVeroneseSpec(2, 1, 3, 1),
        SegreVeroneseSpec(2, 2, 2, 3),
        SegreVeroneseSpec(3, 1, 2, 2),
    ],
)
def test_single_point_rank_is_variety_dimension_plus_one(spec):
    matrix = tangent_matrix(spec, _points(spec, 1), FIELD)
    assert matrix.rows == spec.n + spec.m + 2
    assert matrix.cols == spec.N + 1
    assert rank(matrix) == spec.dim + 1


def test_cgg_defective_surface_case():
    spec = SegreVeroneseSpec(1, 1, 2, 2)
    matrix = tangent_matrix(spec, _points(spec, 3), FIELD)
    assert rank(matrix) == 8
    report = secant_dimension(spec, 3)
    assert (report.computed_dim, report.expected_dim, report.defect) == (7, 8, 1)


def test_sporadic_defective_case():
    spec = SegreVeroneseSpec(2, 1, 3, 1)
    matrix = tangent_matrix(spec, _points(spec, 5), FIELD)
    assert rank(matrix) == 19
    report = secant_dimension(spec, 5)
    assert (report.computed_dim, report.expected_dim, report.defect) == (18, 19, 1)


def test_quadric_secants_fill_p3():
    report = secant_dimension(SegreVeroneseSpec(1, 1, 1, 1), 2)
    assert report.computed_dim == 3 == report.spec.N


def test_abrescia_window_instance():
    report = secant_dimension(SegreVeroneseSpec(3, 1, 2, 2), 5)
    assert (report.computed_dim, report.expected_dim, report.defect) == (23, 24, 1)


def test_nondefective_filling_case_on_two_primes():
    spec = SegreVeroneseSpec(3, 1, 4, 1)
    for p in (DEFAULT_PRIME, SECOND_PRIME):
        report = secant_dimension(spec, 14, field=PrimeField(p))
        assert report.computed_dim == 69 == spec.N


@pytest.mark.parametrize(
    "spec, s, kernel",
    [
        (SegreVeroneseSpec(1, 1, 1, 1), 1, 1),
        (SegreVeroneseSpec(2, 1, 3, 1), 5, 1),
        (SegreVeroneseSpec(1, 1, 2, 2), 3, 1),
    ],
)
def test_double_point_ideal_dimensions(spec, s, kernel):
    matrix = tangent_matrix(spec, _points(spec, s), FIELD)
    assert (spec.N + 1) - rank(matrix) == kernel


@pytest.mark.parametrize(
    "spec",
    [
        SegreVeroneseSpec(1, 1, 1, 1),
        SegreVeroneseSpec(2, 1, 2, 2),
        SegreVeroneseSpec(1, 2, 3, 1),
        SegreVeroneseSpec(2, 2, 2, 2),
        SegreVeroneseSpec(4, 1, 1, 3),
    ],
)
def test_euler_redundancy_per_block(spec):
    # Each point block of n+m+2 gradient rows has rank exactly n+m+1: the
    # two bigraded Euler relations tie the partials through the same vector.
    for x, y in _points(spec, 3, seed=7):
        block = tangent_matrix(spec, [(x, y)], FIELD)
        assert rank(block) == spec.dim + 1


def test_duality_on_identical_points():
    for spec in (SegreVeroneseSpec(2, 1, 2, 2), SegreVeroneseSpec(1, 2, 2, 3)):
        pts = _points(spec, 4, seed=3)
        tangent_rank = rank(tangent_matrix(spec, pts, FIELD))
        conditions = tangent_matrix(spec, pts, FIELD)
        kernel = conditions.cols - rank(conditions)
        assert tangent_rank + kernel == spec.N + 1


def test_profile_monotonicity_on_nested_stream():
    spec = SegreVeroneseSpec(2, 1, 2, 3)
    dims = dimension_profile(spec, 10, trials=1, field=FIELD, seed=5)
    steps = np.diff(np.concatenate([[-1], dims]))
    assert np.all(steps >= 0)
    assert np.all(steps <= spec.dim + 1)


def test_chart_invariance_under_rescaling():
    spec = SegreVeroneseSpec(2, 1, 3, 1)
    pts = _points(spec, 4, seed=9)
    base = rank(tangent_matrix(spec, pts, FIELD))
    rng = np.random.default_rng(10)
    rescaled = [
        (x * int(rng.integers(1, FIELD.p)) % FIELD.p, y * int(rng.integers(1, FIELD.p)) % FIELD.p)
        for x, y in pts
    ]
    assert rank(tangent_matrix(spec, rescaled, FIELD)) == base


def test_factor_swap_symmetry():
    for (spec, s) in [
        (SegreVeroneseSpec(2, 1, 3, 2), 4),
        (SegreVeroneseSpec(1, 2, 2, 1), 3),
        (SegreVeroneseSpec(2, 2, 1, 2), 5),
    ]:
        direct = secant_dimension(spec, s).computed_dim
        swapped = secant_dimension(spec.swapped(), s).computed_dim
        assert direct == swapped


def test_expected_dimension_formulas_agree():
    for spec in (SegreVeroneseSpec(2, 1, 3, 1), SegreVeroneseSpec(2, 2, 2, 2)):
        for s in range(1, 8):
            assert expected_secant_dimension(spec, s) == expected_dimension(
                spec.n, spec.m, spec.a, spec.b, s
            )


def test_input_validation():
    spec = SegreVeroneseSpec(1, 1, 1, 1)
    with pytest.raises(ValueError):
        secant_dimension(spec, 0)
    with pytest.raises(ValueError):
        tangent_matrix(spec, [], FIELD)
    with pytest.raises(ValueError):
        tangent_matrix(spec, [(np.array([1, 2, 3]), np.array([1, 2]))], FIELD)
    with pytest.raises(ValueError):
        dimension_profile(spec, 2, trials=0)


def test_sizing_guard_names_the_spec():
    spec = SegreVeroneseSpec(3, 1, 4, 1)
    with pytest.raises(SizingError) as excinfo:
        secant_dimension(spec, 14, memory_budget=1000)
    message = str(excinfo.value)
    assert "n=3" in message and "a=4" in message and "1000" in message


def test_report_invariants_and_roundtrip():
    report = secant_dimension(SegreVeroneseSpec(2, 1, 3, 1), 5, seed=4)
    assert report.defect == report.expected_dim - report.computed_dim
    assert report.computed_dim <= report.expected_dim
    assert SecantReport.from_dict(report.to_dict()) == report
    with pytest.raises(ValueError):
        SecantReport(
            spec=SegreVeroneseSpec(1, 1, 1, 1), s=1, expected_dim=2, computed_dim=3,
            defect=-1, prime=101, seed=0, trials=1, method="terracini",
        )
    with pytest.raises(ValueError):
        SecantReport(
            spec=SegreVeroneseSpec(1, 1, 1, 1), s=1, expected_dim=2, computed_dim=1,
            defect=0, prime=101, seed=0, trials=1, method="terracini",
        )


def test_single_s_query_consistent_with_profile():
    spec = SegreVeroneseSpec(2, 1, 2, 2)
    dims = dimension_profile(spec, 6, trials=2, field=FIELD, seed=11)
    for s in (1, 3, 6):
        report = secant_dimension(spec, s, trials=2, field=FIELD, seed=11)
        assert report.computed_dim == int(dims[s - 1])
