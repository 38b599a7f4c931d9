from fractions import Fraction
from math import comb

import pytest

from segre_secant import (
    check_lemma_conditions,
    classify,
    closed_form_e,
    closed_form_estar,
    dagger_value,
    ddagger_value,
    f_value,
    g_value,
    invariants,
    replay_main_theorem,
    route_case,
)
from segre_secant.induction import (
    case_a_f_bound,
    case_b_f_bound,
    case_e_g_bound,
)


def test_f_spot_value():
    # 78 - 20 - 2*15 with the (2, 1, 5, 1) remainder equal to 2
    assert invariants(2, 1, 5, 1).r == 2
    assert f_value(1, 3, 5) == Fraction(28)


def test_f_case_b_bound_at_n4():
    assert case_b_f_bound(4) == Fraction(4)
    assert f_value(1, 4, 4) == Fraction(100)
    assert f_value(1, 4, 4) >= case_b_f_bound(4) > 0


def test_f_case_a_bound_positive():
    for n in range(3, 8):
        assert case_a_f_bound(n) > 0


def test_g_spot_values():
    assert g_value(3, 1) == Fraction(-1)
    assert g_value(3, 2) == Fraction(-2)
    for d in range(1, 7):
        expected = Fraction(6 - 10 * d, 4) if d % 2 == 1 else Fraction(12 - 10 * d, 4)
        assert g_value(3, d) == expected


def test_g_case_e_chain_at_n4():
    assert case_e_g_bound(4) == Fraction(-4, 5)
    assert g_value(4, 1) == Fraction(-4)
    assert g_value(4, 1) <= case_e_g_bound(4) < 0


def test_dagger_closed_form_for_34_column():
    # dagger at (3, 4, b) equals (3(b+1) - r(2,1,4,b)) / 4 >= (3(b+1) - 3)/4 >= 0
    for b in range(1, 8):
        r = invariants(2, 1, 4, b).r
        value = dagger_value(3, 4, b)
        assert Fraction(value) == Fraction(3 * (b + 1) - r, 4)
        assert value >= Fraction(3 * (b + 1) - 3, 4) >= 0


def test_ddagger_closed_form_case_c():
    # at (3, 4, b) with b odd: (-5(b+1) + 3r)/4 <= -1/4, an integer, so <= -1
    for b in (1, 3, 5):
        r = invariants(2, 1, 4, b).r
        value = ddagger_value(3, 4, b)
        assert Fraction(value) == Fraction(-5 * (b + 1) + 3 * r, 4)
        assert value <= -1


def test_lemma_conditions_34_column():
    report = check_lemma_conditions(3, 4, 1)
    assert report.cond1 and report.cond3star
    assert not report.base_case


def test_lemma_conditions_cond4_via_f():
    report = check_lemma_conditions(3, 5, 1)
    assert report.cond4
    assert f_value(1, 3, 5) >= 0


def test_lemma_conditions_base_case_flag():
    report = check_lemma_conditions(2, 4, 2)
    assert report.base_case  # n = 2 sits below the inductive region
    assert isinstance(report.cond1, bool)


def test_lemma_conditions_a2_leaves_cond4_undefined():
    report = check_lemma_conditions(3, 2, 2)
    assert report.cond4 is None and report.cond4star is None
    assert "cond4" not in report.witnesses


def test_lemma_conditions_validation():
    with pytest.raises(ValueError):
        check_lemma_conditions(1, 4, 1)
    with pytest.raises(ValueError):
        check_lemma_conditions(3, 1, 1)


def test_witnesses_match_booleans():
    report = check_lemma_conditions(4, 5, 2)
    lhs, rhs = report.witnesses["cond2"]
    assert report.cond2 == (lhs >= rhs)
    lhs, rhs = report.witnesses["cond4"]
    assert report.cond4 == (lhs <= rhs)
    lhs, rhs = report.witnesses["cond1"]
    assert report.cond1 == (lhs == rhs)


def test_witnesses_match_closed_form_thresholds():
    # The lemma reads e and e* from the invariants it already holds; they
    # must be closed_form_e's and closed_form_estar's.
    for n in range(2, 7):
        for a in range(2, 9):
            for b in range(1, 7):
                w = check_lemma_conditions(n, a, b).witnesses
                here, prev = invariants(n, 1, a, b), invariants(n - 1, 1, a, b)
                assert w["cond1"] == (prev.q, closed_form_e(n - 1, a, b)), (n, a, b)
                assert w["cond3"] == (closed_form_e(n, a - 1, b), here.q - prev.q), (n, a, b)
                assert w["cond3star"] == (closed_form_e(n, a - 1, b), here.qstar - prev.q), (n, a, b)
                if a >= 3:
                    assert w["cond4"] == (
                        closed_form_estar(n, a - 2, b), here.q - prev.q - prev.r
                    ), (n, a, b)


def test_implication_chain_on_grid():
    for n in range(2, 7):
        for a in range(3, 9):
            for b in range(1, 7):
                rep = check_lemma_conditions(n, a, b)
                if rep.cond4:
                    assert rep.cond2, (n, a, b)
                    assert rep.cond4star, (n, a, b)
                if rep.cond2:
                    assert rep.cond2star, (n, a, b)
                if rep.cond3star:
                    assert rep.cond3, (n, a, b)


def test_route_case_partition():
    assert route_case(3, 5, 2) == "a"
    assert route_case(4, 4, 3) == "b"
    assert route_case(3, 4, 3) == "c"
    assert route_case(3, 4, 2) == "d"
    assert route_case(5, 4, 4) == "e"
    with pytest.raises(ValueError):
        route_case(2, 4, 1)
    with pytest.raises(ValueError):
        route_case(3, 3, 1)


def test_replay_default_grid_all_pass():
    report = replay_main_theorem(6, 8, 6)
    assert report.all_passed
    assert len(report.cells) == 4 * 5 * 6
    counts = report.case_counts()
    assert all(counts[case] > 0 for case in "abcde")


def test_replay_conditions_match_lemma_report():
    # The replay reads the lemma's integers directly; its three conditions
    # must be the report's on every cell.
    for cell in replay_main_theorem(8, 10, 8).cells:
        report = check_lemma_conditions(cell.n, cell.a, cell.b)
        assert (cell.cond1, cell.cond3star, cell.cond4) == (
            report.cond1, report.cond3star, report.cond4
        ), (cell.n, cell.a, cell.b)


def test_replay_cells_match_single_cell_values():
    # Each cell reads its integers once; dagger, ddagger, f and g must be the
    # single-cell functions' values (and the docstring formulas' for dagger
    # and ddagger), None where the cell's case does not route there.
    for cell in replay_main_theorem(8, 10, 8).cells:
        n, a, b = cell.n, cell.a, cell.b
        here, prev = invariants(n, 1, a, b), invariants(n - 1, 1, a, b)
        dagger = invariants(n, 1, a - 1, b).q - here.qstar + prev.q
        ddagger = invariants(n, 1, a - 2, b).qstar - here.q + prev.q + prev.r
        assert dagger_value(n, a, b) == dagger and ddagger_value(n, a, b) == ddagger
        assert cell.dagger == dagger, (n, a, b)
        assert cell.ddagger == (ddagger if cell.case in "abc" else None), (n, a, b)
        assert cell.f == (f_value(b, n, a) if cell.case in "ab" else None), (n, a, b)
        assert cell.g == (g_value(n, b // 2) if cell.case in "de" else None), (n, a, b)


def test_f_and_g_match_fraction_expressions():
    # f and g are built as one fraction each; these are the formulas of
    # their docstrings, evaluated term by term.
    for n in range(2, 13):
        for a in range(2, 13):
            for b in range(1, 13):
                r = invariants(n - 1, 1, a, b).r
                f = (Fraction((b + 1) * comb(n - 2 + a, n - 1)) * (n - Fraction(n - 1, a))
                     - (n + 1) * (n + 2) - r * n * (n + 2))
                assert f_value(b, n, a) == f, (b, n, a)
    for n in range(3, 13):
        for d in range(1, 7):
            num = invariants(n - 1, 1, 4, 2 * d)
            g = ((d + 1) * (n + 1) + num.q + num.r
                 - Fraction(comb(n + 4, 4) * (2 * d + 1), n + 2))
            assert g_value(n, d) == g, (n, d)


def test_replay_routed_witness_cells():
    report = replay_main_theorem(4, 4, 2)
    by_cell = {(c.n, c.a, c.b): c for c in report.cells}
    d_cell = by_cell[(3, 4, 2)]
    assert d_cell.case == "d" and d_cell.g == Fraction(-1) and d_cell.passed
    e_cell = by_cell[(4, 4, 2)]
    assert e_cell.case == "e" and e_cell.g < 0 and e_cell.g <= case_e_g_bound(4)


def test_replay_base_attributions_cover_imported_results():
    report = replay_main_theorem(3, 4, 1)
    tags = {(n, a): rule for n, a, rule in report.base_attributions}
    assert tags[(1, 4)] == "cgg-p1p1"
    assert tags[(2, 4)] == "baur-draisma"
    assert tags[(3, 1)] == "chiantini-ciliberto"
    assert tags[(3, 2)] == "abrescia-2b"
    assert tags[(3, 3)] == "abrescia-3b"
    assert (3, 4) not in tags  # inductive cell, checked not attributed


def test_replay_bounds_validation():
    with pytest.raises(ValueError):
        replay_main_theorem(2, 8, 6)
    with pytest.raises(ValueError):
        replay_main_theorem(3, 3, 6)
    with pytest.raises(ValueError):
        replay_main_theorem(3, 4, 0)


def test_lemma_hypotheses_imply_nondefective_classification():
    # Wherever the replay certifies a cell, the closed form must agree that
    # no secant variety of that embedding is defective.
    report = replay_main_theorem(5, 6, 3)
    for cell in report.cells:
        assert cell.passed
        qstar = invariants(cell.n, 1, cell.a, cell.b).qstar
        for s in range(1, qstar + 2):
            assert not classify(cell.n, cell.a, cell.b, s).defective, (cell.n, cell.a, cell.b, s)
