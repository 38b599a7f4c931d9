from dataclasses import fields
from math import comb

import pytest

from segre_secant import (
    GrassmannQuery,
    GrassmannVerdict,
    SegreVeroneseSpec,
    check_corollary,
    classify,
    dimension_profile,
    grassmann_defect,
    grassmann_expected_dim,
)

from segre_secant import grassmann, numerology


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
    assert defective.rule == "main-theorem"
    assert grassmann_defect(GrassmannQuery(2, 3, 1, 4)).defect == 0
    roomy = grassmann_defect(GrassmannQuery(3, 3, 1, 6))
    assert (roomy.defect, roomy.dim) == (0, 26)


def test_other_k_refused():
    # k = 0 and k >= 2 lie outside the m = 1 classification.
    for query in (GrassmannQuery(2, 2, 0, 2), GrassmannQuery(2, 2, 2, 4)):
        with pytest.raises(ValueError, match=f"^only k = 1 is classified, got k={query.k}$"):
            grassmann_defect(query)


def test_verdict_is_the_classification_of_the_a1_embedding():
    # A verdict carries only closed-form fields, each read off classify's
    # verdict for the bidegree-(a, 1) embedding of P^n x P^1.
    assert [f.name for f in fields(GrassmannVerdict)] == ["query", "expected_dim", "defect", "dim", "rule"]
    for n in range(1, 4):
        for a in range(1, 5):
            for s in range(2, comb(n + a, n)):
                query = GrassmannQuery(n, a, 1, s)
                verdict = grassmann_defect(query)
                expected = classify(n, a, 1, s)
                assert (verdict.defect, verdict.rule) == (expected.defect, expected.rule), (n, a, s)
                assert verdict.dim == verdict.expected_dim - verdict.defect


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


def test_closed_form_module_holds_no_engine():
    # Every verdict is closed form: nothing of the rank engine is in reach.
    # numerology imports the engine only inside computed_e / computed_estar.
    engine = {"np", "PrimeField", "rank_profile", "dimension_profile", "secant_dimension"}
    for module in (grassmann, numerology):
        assert not engine & vars(module).keys(), module.__name__


def test_corollary_bounds_validation():
    with pytest.raises(ValueError):
        check_corollary(1, 5)
    with pytest.raises(ValueError):
        check_corollary(3, 1)
