import itertools
from math import comb

import numpy as np
import pytest

from segre_secant import numerology, terracini
from segre_secant.numerology import MAX_SWEEP_CELLS, check_sweep_size
from segre_secant import (
    ClassificationVerdict,
    Numerology,
    ScanBudgetError,
    SegreVeroneseSpec,
    check_corollary,
    classify,
    closed_form_e,
    closed_form_estar,
    computed_e,
    computed_estar,
    expected_dimension,
    invariants,
    replay_main_theorem,
    window_deficiency,
)

from oracles import scan_thresholds


@pytest.mark.parametrize(
    "n, m, a, b, q, r, qstar",
    [
        (3, 1, 4, 1, 14, 0, 14),
        (2, 1, 4, 2, 11, 1, 12),
        (1, 1, 1, 1, 1, 1, 2),
    ],
)
def test_invariants_examples(n, m, a, b, q, r, qstar):
    assert invariants(n, m, a, b) == Numerology(q, r, qstar)


def test_invariants_bezout_identity():
    for n in range(1, 5):
        for a in range(1, 6):
            for b in range(1, 6):
                num = invariants(n, 1, a, b)
                total = comb(n + a, n) * (b + 1)
                assert 0 <= num.r < n + 2
                assert (n + 2) * num.q + num.r == total
                assert num.qstar == (num.q if num.r == 0 else num.q + 1)


def test_expected_dimension_examples():
    assert expected_dimension(2, 1, 3, 1, 5) == 19
    assert expected_dimension(1, 1, 2, 2, 3) == 8
    for (n, m, a, b) in [(1, 1, 1, 1), (3, 2, 2, 4)]:
        assert expected_dimension(n, m, a, b, 1) == n + m


def test_classify_sporadic_case():
    verdict = classify(2, 3, 1, 5)
    assert verdict == ClassificationVerdict(True, 1, 18, "main-theorem")


def test_classify_window_cases():
    assert classify(3, 2, 2, 5) == ClassificationVerdict(True, 1, 23, "abrescia-2b")
    # saturated part of the window: deficiency 3 against the linear count,
    # visible defect 1 against min(N, linear count)
    assert classify(2, 2, 2, 5) == ClassificationVerdict(True, 1, 16, "abrescia-2b")
    assert classify(3, 2, 2, 6).dim == 26
    assert classify(3, 2, 2, 7).dim == 28


def test_classify_nondefective_filling():
    verdict = classify(3, 4, 1, 14)
    assert not verdict.defective
    assert verdict.dim == 69 == SegreVeroneseSpec(3, 1, 4, 1).N
    assert verdict.rule == "main-theorem"


def test_classify_swapped_shapes_on_p1xp1():
    # (2d, 2) is the mirror of (2, 2d) when both factors are lines.
    for d in (1, 2, 3):
        s = 2 * d + 1
        direct = classify(1, 2, 2 * d, s)
        swapped = classify(1, 2 * d, 2, s)
        assert direct == swapped
        assert direct.defective and direct.defect == 1
        assert direct.dim == 3 * s - 2
        assert direct.rule == "cgg-p1p1"


def test_classify_rule_attribution():
    assert classify(1, 3, 4, 2).rule == "cgg-p1p1"
    assert classify(3, 1, 4, 2).rule == "chiantini-ciliberto"
    assert classify(3, 2, 3, 2).rule == "abrescia-2b"
    assert classify(4, 3, 2, 2).rule == "abrescia-3b"
    assert classify(2, 4, 2, 3).rule == "baur-draisma"
    assert classify(3, 4, 2, 3).rule == "main-theorem"


def test_window_deficiency_triangular_pattern():
    for n in range(1, 5):
        for d in range(1, 4):
            t = d * (n + 1)
            for k in range(0, n + 2):
                assert window_deficiency(n, d, t + k) == k * (k + 1) // 2


def test_true_defect_vanishes_exactly_at_window_endpoints():
    for n in range(1, 5):
        for d in range(1, 4):
            lo, hi = d * (n + 1), (d + 1) * (n + 1)
            assert classify(n, 2, 2 * d, lo).defect == 0
            assert classify(n, 2, 2 * d, hi).defect == 0
            for s in range(lo + 1, hi):
                assert classify(n, 2, 2 * d, s).defect > 0


def test_dimension_monotone_with_bounded_steps():
    for n in range(1, 5):
        for a in range(1, 6):
            for b in range(1, 6):
                qstar = invariants(n, 1, a, b).qstar
                previous = None
                for s in range(1, qstar + 4):
                    dim = classify(n, a, b, s).dim
                    if previous is not None:
                        assert previous <= dim <= previous + n + 2
                    previous = dim


def test_threshold_sandwich_on_grid():
    for n in range(1, 5):
        for a in range(1, 6):
            for b in range(1, 6):
                num = invariants(n, 1, a, b)
                e = closed_form_e(n, a, b)
                estar = closed_form_estar(n, a, b)
                assert e <= num.q <= num.qstar <= estar, (n, a, b)


@pytest.mark.parametrize(
    "n, a, b, e, estar",
    [
        (2, 3, 1, 4, 6),
        (3, 4, 1, 14, 14),
        (1, 2, 2, 2, 4),
        (2, 2, 2, 3, 6),
    ],
)
def test_closed_form_threshold_examples(n, a, b, e, estar):
    assert closed_form_e(n, a, b) == e
    assert closed_form_estar(n, a, b) == estar


def test_closed_form_thresholds_match_linear_scan():
    # n <= 8, a, b <= 12 holds the sporadic cell (2, 3, 1) and the (2, 2d)
    # windows up to d = 6, with their swapped shapes (2d, 2) on P^1 x P^1.
    for n in range(1, 9):
        for a in range(1, 13):
            for b in range(1, 13):
                s_max = invariants(n, 1, a, b).qstar + n + 2
                dims = [classify.__wrapped__(n, a, b, s).dim for s in range(1, s_max + 1)]
                N = comb(n + a, n) * (b + 1) - 1
                expected = scan_thresholds(dims, n + 2, N)
                assert (closed_form_e(n, a, b), closed_form_estar(n, a, b)) == expected, (n, a, b)


def test_remainder_parity_for_24_column():
    for d in range(1, 6):
        r = invariants(2, 1, 4, 2 * d).r
        assert r == (1 if d % 2 == 1 else 3)


@pytest.mark.parametrize(
    "spec, e, estar",
    [
        (SegreVeroneseSpec(2, 1, 3, 1), 4, 6),
        (SegreVeroneseSpec(1, 1, 2, 2), 2, 4),
        (SegreVeroneseSpec(2, 1, 2, 2), 3, 6),
    ],
)
def test_computed_thresholds_match_closed_form(spec, e, estar):
    assert computed_e(spec) == e == closed_form_e(spec.n, spec.a, spec.b)
    assert computed_estar(spec) == estar == closed_form_estar(spec.n, spec.a, spec.b)


def test_computed_e_and_estar_share_one_scan(monkeypatch):
    calls = []
    profile = terracini.dimension_profile

    def counted(*args, **kwargs):
        calls.append(args)
        return profile(*args, **kwargs)

    # _scan_dims reads the name from terracini when it runs.
    monkeypatch.setattr(terracini, "dimension_profile", counted)
    numerology._scan_dims.cache_clear()
    spec = SegreVeroneseSpec(2, 1, 3, 1)
    assert (computed_e(spec, seed=5), computed_estar(spec, seed=5)) == (4, 6)
    assert len(calls) == 1


def test_scan_budget_errors(monkeypatch):
    # A profile that stops one short of N at every s of the scan: e* is not
    # found, and computed_estar says so instead of returning a guess.
    spec = SegreVeroneseSpec(2, 1, 3, 1)

    def short_of_n(spec, s_max, **kwargs):
        return np.minimum(np.arange(1, s_max + 1) * (spec.dim + 1), spec.N) - 1

    monkeypatch.setattr(terracini, "dimension_profile", short_of_n)
    numerology._scan_dims.cache_clear()
    try:
        with pytest.raises(ScanBudgetError, match=r"^sigma_s of .* did not fill P\^19 by s = 9$"):
            computed_estar(spec)
    finally:
        numerology._scan_dims.cache_clear()


_SPEC_BELOW_ONE = "n, m, a, b must all be >= 1, got "


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: classify(0, 1, 1, 1), _SPEC_BELOW_ONE + "(0, 1, 1, 1)"),
        (lambda: classify(2, 0, 3, 4), _SPEC_BELOW_ONE + "(2, 1, 0, 3)"),
        (lambda: classify(2, 3, -1, 4), _SPEC_BELOW_ONE + "(2, 1, 3, -1)"),
        (lambda: classify(2, 3, 1, 0), "s must be >= 1, got 0"),
        (lambda: classify(0, 3, 1, 0), _SPEC_BELOW_ONE + "(0, 1, 3, 1)"),
        (lambda: invariants(0, 1, 2, 2), _SPEC_BELOW_ONE + "(0, 1, 2, 2)"),
        (lambda: invariants(2, 0, 2, 2), _SPEC_BELOW_ONE + "(2, 0, 2, 2)"),
        (lambda: invariants(2, 1, 0, 2), _SPEC_BELOW_ONE + "(2, 1, 0, 2)"),
        (lambda: invariants(2, 1, 2, -5), _SPEC_BELOW_ONE + "(2, 1, 2, -5)"),
        (lambda: expected_dimension(-1, 1, 2, 2, 3), _SPEC_BELOW_ONE + "(-1, 1, 2, 2)"),
        (lambda: expected_dimension(2, 0, 2, 2, 3), _SPEC_BELOW_ONE + "(2, 0, 2, 2)"),
        (lambda: expected_dimension(2, 1, 0, 2, 3), _SPEC_BELOW_ONE + "(2, 1, 0, 2)"),
        (lambda: expected_dimension(2, 1, 2, 0, 3), _SPEC_BELOW_ONE + "(2, 1, 2, 0)"),
        (lambda: expected_dimension(2, 1, 2, 2, -7), "s must be >= 1, got -7"),
        (lambda: expected_dimension(2, 1, 0, 2, 0), _SPEC_BELOW_ONE + "(2, 1, 0, 2)"),
    ],
)
def test_closed_form_layer_refuses_parameters_below_one(call, message):
    # The texts numerology._ambient and expected_dimension raise, with the
    # parameters checked before s; SegreVeroneseSpec raises the same text.
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_sweep_size_limit(monkeypatch):
    check_sweep_size("a sweep", [MAX_SWEEP_CELLS - 1, 1])
    with pytest.raises(ValueError, match=r"^a sweep has more than MAX_SWEEP_CELLS = 20000 cells$"):
        check_sweep_size("a sweep", [MAX_SWEEP_CELLS, 1])
    # The count stops at the first partial sum past the limit.
    with pytest.raises(ValueError):
        check_sweep_size("an endless sweep", itertools.repeat(1))
    with pytest.raises(ValueError, match=r"^the replay grid up to \(3, 4, 20001\) has more than"):
        replay_main_theorem(3, 4, MAX_SWEEP_CELLS + 1)
    # The pinned certificate inputs stay far inside the limit, and each
    # sweep counts exactly the cells it runs: (n_max - 2)(a_max - 3) b_max
    # for the replay, sum (C(n+a, n) - 2) for the corollary.
    assert len(replay_main_theorem(8, 10, 8).cells) == 6 * 7 * 8 == 336
    cells = sum(comb(n + a, n) - 2 for n in range(1, 6) for a in range(1, 7))
    assert len(check_corollary(5, 6).cells) == cells == 1643
    monkeypatch.setattr(numerology, "MAX_SWEEP_CELLS", 336)
    replay_main_theorem(8, 10, 8)
    monkeypatch.setattr(numerology, "MAX_SWEEP_CELLS", 335)
    with pytest.raises(ValueError, match="replay grid"):
        replay_main_theorem(8, 10, 8)
    monkeypatch.setattr(numerology, "MAX_SWEEP_CELLS", 1643)
    check_corollary(5, 6)
    monkeypatch.setattr(numerology, "MAX_SWEEP_CELLS", 1642)
    with pytest.raises(ValueError, match="corollary sweep"):
        check_corollary(5, 6)


def test_sweep_records_are_immutable_in_field_order():
    records = [
        (invariants(2, 1, 4, 2), ("q", "r", "qstar")),
        (check_corollary(3, 5).cells[0], ("n", "a", "s", "expected_dim", "dim", "defect")),
        (replay_main_theorem(4, 5, 2).cells[0], (
            "n", "a", "b", "case", "cond1", "cond3star", "cond4", "dagger", "ddagger",
            "f", "g", "estar_matches", "certificate_ok", "passed",
        )),
    ]
    for record, names in records:
        assert record._fields == names
        assert tuple(getattr(record, name) for name in names) == tuple(record)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        with pytest.raises(AttributeError):
            record.extra = 0


def test_classify_validation():
    with pytest.raises(ValueError):
        classify(0, 1, 1, 1)
    with pytest.raises(ValueError):
        classify(1, 1, 1, 0)


def test_verdict_consistency_on_grid():
    for n in range(1, 4):
        for a in range(1, 5):
            for b in range(1, 5):
                for s in range(1, invariants(n, 1, a, b).qstar + 3):
                    verdict = classify(n, a, b, s)
                    expected = expected_dimension(n, 1, a, b, s)
                    assert verdict.dim == expected - verdict.defect
                    assert verdict.defective == (verdict.defect > 0)


def test_verdict_type_invariants():
    with pytest.raises(ValueError):
        ClassificationVerdict(defective=True, defect=0, dim=5, rule="main-theorem")
    with pytest.raises(ValueError):
        ClassificationVerdict(defective=False, defect=0, dim=5, rule="not-a-rule")
