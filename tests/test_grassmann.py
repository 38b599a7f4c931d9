from math import comb
from types import SimpleNamespace

import numpy as np
import pytest

from segre_secant import (
    GrassmannQuery,
    PrimeField,
    SegreVeroneseSpec,
    check_corollary,
    classify,
    dimension_profile,
    grassmann_defect,
    grassmann_expected_dim,
    rank,
    sample_point,
    veronese_secant_dimension,
    veronese_tangent_matrix,
)

from segre_secant import grassmann
from segre_secant.terracini import trial_rng

from oracles import quadric_veronese_secant_dim

FIELD = PrimeField()


def test_query_validation():
    GrassmannQuery(2, 3, 1, 5)
    with pytest.raises(ValueError):
        GrassmannQuery(2, 3, 5, 5)  # k > s - 1
    with pytest.raises(ValueError):
        GrassmannQuery(1, 1, 0, 2)  # s - 1 >= N = 1
    with pytest.raises(ValueError):
        GrassmannQuery(0, 3, 1, 5)


def test_expected_dim_examples():
    assert grassmann_expected_dim(GrassmannQuery(2, 3, 1, 5)) == 16
    assert grassmann_expected_dim(GrassmannQuery(2, 4, 1, 7)) == 24
    # k = 0 degenerates to the ordinary expected secant dimension
    query = GrassmannQuery(2, 2, 0, 2)
    assert grassmann_expected_dim(query) == min(2 * 2 + 1, query.N) == 5


def test_closed_form_verdicts_for_lines_of_forms():
    defective = grassmann_defect(GrassmannQuery(2, 3, 1, 5))
    assert (defective.defect, defective.dim, defective.expected_dim) == (1, 15, 16)
    assert defective.tag == "closed-form"
    assert grassmann_defect(GrassmannQuery(2, 3, 1, 4)).defect == 0
    roomy = grassmann_defect(GrassmannQuery(3, 3, 1, 6))
    assert (roomy.defect, roomy.dim) == (0, 26)


def test_veronese_tangent_block_rank():
    rng = np.random.default_rng(3)
    for n, a in [(1, 3), (2, 2), (2, 4), (3, 3)]:
        point = sample_point(n, FIELD, rng)
        block = veronese_tangent_matrix(n, a, [point], FIELD)
        assert block.entries.shape == (n + 1, comb(n + a, n))
        assert rank(block) == n + 1


def test_k0_path_matches_quadric_veronese_closed_form():
    # Independent oracle: secants of the quadratic Veronese are rank <= s
    # symmetric matrices, whose dimension is classical.
    for n in range(2, 5):
        for s in range(1, n + 2):
            assert veronese_secant_dimension(n, 2, s) == quadric_veronese_secant_dim(n, s)


def test_k0_defect_through_query():
    verdict = grassmann_defect(GrassmannQuery(2, 2, 0, 2))
    assert verdict.tag == "unclassified"
    assert verdict.defect == 1  # rank-2 symmetric 3x3 matrices miss P^5 by one
    assert verdict.dim == 4
    curve = grassmann_defect(GrassmannQuery(1, 3, 0, 2))
    assert curve.defect == 0  # rational normal curves are never defective


def test_k2_path_is_monte_carlo_unclassified():
    verdict = grassmann_defect(GrassmannQuery(2, 2, 2, 4))
    assert verdict.tag == "unclassified"
    assert verdict.defect >= 0
    assert verdict.dim == verdict.expected_dim - verdict.defect
    assert verdict.prime == FIELD.p


def test_monte_carlo_matches_closed_form_on_check_grid():
    # Full k = 1 grid n <= 3, a <= 5: the (s-1)-defects of the (a, 1)
    # embeddings of P^n x P^1 measured by tangent ranks must equal classify.
    for n in range(1, 4):
        for a in range(1, 6):
            N = comb(n + a, n) - 1
            if N < 2:
                continue
            spec = SegreVeroneseSpec(n, 1, a, 1)
            dims = dimension_profile(spec, N, trials=2, seed=17)
            for s in range(2, N + 1):
                assert int(dims[s - 1]) == classify(n, a, 1, s).dim, (n, a, s)


def test_corollary_unique_defective_cell():
    report = check_corollary(3, 5)
    assert report.passed
    bad = report.defective
    assert len(bad) == 1
    cell = bad[0]
    assert (cell.n, cell.a, cell.s, cell.defect) == (2, 3, 5, 1)
    assert (cell.dim, cell.expected_dim) == (15, 16)


@pytest.mark.parametrize("bounds", [(3, 5), (5, 6)])
def test_corollary_cells_match_single_queries(bounds):
    # The sweep computes its cells from integers; each must be what the
    # single-query API answers for the same (n, a, 1, s).
    cells = check_corollary(*bounds).cells
    for cell in cells:
        verdict = grassmann_defect(GrassmannQuery(cell.n, cell.a, 1, cell.s))
        assert (cell.defect, cell.dim, cell.expected_dim) == (
            verdict.defect, verdict.dim, verdict.expected_dim
        ), (cell.n, cell.a, cell.s)
    n_max, a_max = bounds
    assert len(cells) == sum(comb(n + a, n) - 2 for n in range(1, n_max + 1) for a in range(1, a_max + 1))


def test_corollary_without_cubics_expects_no_defect():
    # Below a = 3 the grid has no (n, a) = (2, 3): no defect is expected and
    # none is found.
    for n_max in (2, 5, 6):
        report = check_corollary(n_max, 2)
        assert report.defective == () and report.passed
    assert check_corollary(2, 3).passed


def test_corollary_curves_never_defective():
    report = check_corollary(3, 5)
    assert all(cell.defect == 0 for cell in report.cells if cell.n == 1)


def test_closed_form_builds_no_field(monkeypatch):
    # The k = 1 verdict is closed form: it never reads a prime field.
    def no_field(*args, **kwargs):
        raise AssertionError("k = 1 built a PrimeField")

    monkeypatch.setattr("segre_secant.grassmann.PrimeField", no_field)
    assert check_corollary(3, 5).passed


def test_corollary_bounds_validation():
    with pytest.raises(ValueError):
        check_corollary(1, 5)
    with pytest.raises(ValueError):
        check_corollary(3, 1)


def test_veronese_rejects_too_small_prime():
    # min(C(4, 2), 2 * 3) * (2 - 1) = 6 >= 2: one trial's Schwartz-Zippel
    # bound is not below 1 (p = 2 would report 2 instead of 4).
    with pytest.raises(ValueError, match="too small"):
        veronese_secant_dimension(2, 2, 2, field=PrimeField(2))
    assert veronese_secant_dimension(2, 2, 2, field=PrimeField(7)) <= 4


def test_veronese_rejects_zero_trials():
    # The shared rank-profile check; without it no trial ran and -1 came back.
    with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
        veronese_secant_dimension(2, 2, 3, trials=0)
    with pytest.raises(ValueError, match="s must be >= 1, got 0"):
        veronese_secant_dimension(2, 2, 0)


def test_veronese_panels_are_drawn_at_sample_point_points(monkeypatch):
    # The points the Veronese path evaluates are those of sample_point calls
    # on the trial's stream (key (n, 0, a, 0), method 2), in order.
    n, a, s, seed = 2, 3, 5, 4
    seen = []
    original = grassmann.gradient_rows

    def recording(exps, points, p):
        seen.append(points)
        return original(exps, points, p)

    monkeypatch.setattr(grassmann, "gradient_rows", recording)
    veronese_secant_dimension(n, a, s, trials=1, field=FIELD, seed=seed)
    points = np.vstack(seen)
    rng = trial_rng(SimpleNamespace(n=n, m=0, a=a, b=0), seed, 0, FIELD.p, 2)
    assert np.array_equal(points, np.array([sample_point(n, FIELD, rng) for _ in range(points.shape[0])]))
