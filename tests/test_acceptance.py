"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is exact integer equality; every
random quantity is pinned to a fixed seed and the default prime pair.
"""

from fractions import Fraction
from math import comb

import numpy as np

from segre_secant import (
    DEFAULT_PRIME,
    SECOND_PRIME,
    AffineSchemeSpec,
    PrimeField,
    SegreVeroneseSpec,
    check_corollary,
    closed_form_e,
    closed_form_estar,
    computed_e,
    computed_estar,
    dagger_value,
    g_value,
    ideal_dimension,
    invariants,
    rank,
    replay_main_theorem,
    sample_point,
    secant_dimension,
    secant_dimension_via_reduction,
    tangent_matrix,
)
from segre_secant.cli import SweepConfig, run_verify
from segre_secant.terracini import trial_rng

SEED = 20260808
PRIMES = (DEFAULT_PRIME, SECOND_PRIME)

GRID_N = range(1, 5)
GRID_A = range(1, 6)
GRID_B = range(1, 6)


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def _random_specs(count: int = 50):
    """The shared pool for criteria 3 and 4: n+m <= 5, a+b <= 8, s <= q*+1."""
    rng = np.random.default_rng(SEED)
    pool = []
    while len(pool) < count:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 6 - n))
        a = int(rng.integers(1, 8))
        b = int(rng.integers(1, 9 - a))
        spec = SegreVeroneseSpec(n, m, a, b)
        qstar = invariants(n, m, a, b).qstar
        s = int(rng.integers(1, qstar + 2))
        pool.append((spec, s))
    return pool


def test_criterion_1_classification_grid():
    config = SweepConfig(
        n_range=tuple(GRID_N),
        m_range=(1,),
        a_range=tuple(GRID_A),
        b_range=tuple(GRID_B),
        s_policy="uptoqstar",
        s_list=(),
        trials=3,
        primes=PRIMES,
        seed=SEED,
        fmt="json",
        memory_budget=2**25,
        jobs=1,
    )
    payload, rows, exit_code = run_verify(config)
    summary = payload["summary"]
    mismatches = [row for row in rows if not row["agree"]]

    defective = {
        (row["n"], row["a"], row["b"], row["s"]) for row in rows if row["defect"] > 0
    }
    expected_defective = {(2, 3, 1, 5)}
    for n in GRID_N:
        for d in (1, 2):  # b = 2 and b = 4
            for s in range(d * (n + 1) + 1, (d + 1) * (n + 1)):
                expected_defective.add((n, 2, 2 * d, s))
    # the swapped shapes on P^1 x P^1 that fit the b <= 5 grid
    expected_defective.add((1, 4, 2, 5))

    ok = (
        exit_code == 0
        and summary["discrepancies"] == 0
        and not payload["errors"]
        and not mismatches
        and defective == expected_defective
    )
    _report(
        1,
        ok,
        f"{summary['cells']} cells, {summary['agreements']} agreements, "
        f"{summary['discrepancies']} discrepancies, defective set as classified",
    )


def test_criterion_2_named_defective_instances():
    checks = [
        (SegreVeroneseSpec(2, 1, 3, 1), 5, 18, 19, 1),
        (SegreVeroneseSpec(1, 1, 2, 2), 3, 7, 8, 1),
        (SegreVeroneseSpec(3, 1, 2, 2), 5, 23, 24, 1),
    ]
    results = []
    for spec, s, dim, expected, defect in checks:
        report = secant_dimension(spec, s, trials=3, seed=SEED)
        results.append(
            report.computed_dim == dim
            and report.expected_dim == expected
            and report.defect == defect
        )
    abrescia = comb(4, 2) + comb(6, 2) - 5 * 4
    results.append(abrescia == 1)
    results.append(7 == 3 * 3 - 2)
    _report(2, all(results), "dims 18/19, 7/8, 23/24 with defects 1, 1, 1 exactly")


def test_criterion_3_reduction_equivalence():
    failures = []
    for spec, s in _random_specs():
        tangent = secant_dimension(spec, s, trials=2, seed=SEED).computed_dim
        reduction = secant_dimension_via_reduction(spec, s, trials=2, seed=SEED).computed_dim
        if tangent != reduction:
            failures.append((spec, s, tangent, reduction))
        base = ideal_dimension(AffineSchemeSpec(spec.n, spec.m, spec.a, spec.b, 0))
        if base != comb(spec.n + spec.a, spec.n) * comb(spec.m + spec.b, spec.m):
            failures.append((spec, "s=0", base))
    _report(3, not failures, f"50 random specs, two paths agree; failures: {failures[:3]}")


def test_criterion_4_duality_and_euler_invariants():
    failures = []
    field = PrimeField(DEFAULT_PRIME)
    for spec, s in _random_specs():
        rng = trial_rng(spec, seed=SEED, trial=0, prime=field.p)
        points = [
            (sample_point(spec.n, field, rng), sample_point(spec.m, field, rng))
            for _ in range(s)
        ]
        tangent_rank = rank(tangent_matrix(spec, points, field))
        conditions = tangent_matrix(spec, points, field)
        kernel = conditions.cols - rank(conditions)
        if tangent_rank + kernel != spec.N + 1:
            failures.append((spec, s, "duality"))
        block = tangent_matrix(spec, points[:1], field)
        if rank(block) != spec.n + spec.m + 1:
            failures.append((spec, s, "euler"))
    _report(4, not failures, f"duality and per-block rank on 50 specs; failures: {failures[:3]}")


def test_criterion_5_induction_replay():
    report = replay_main_theorem(6, 8, 6)
    spot = (
        g_value(3, 1) == Fraction(-1)
        and g_value(3, 2) == Fraction(-2)
    )
    dagger_ok = all(
        dagger_value(3, 4, b) >= Fraction(3 * (b + 1) - 3, 4) >= 0
        and Fraction(dagger_value(3, 4, b)) == Fraction(3 * (b + 1) - invariants(2, 1, 4, b).r, 4)
        for b in range(1, 7)
    )
    ok = report.all_passed and spot and dagger_ok
    _report(
        5,
        ok,
        f"{len(report.cells)} inductive cells pass, cases "
        f"{report.case_counts()}, spot values g(3,1)=-1, g(3,2)=-2, dagger bound",
    )


def test_criterion_6_numerology():
    sandwich = True
    computed_match = True
    for n in GRID_N:
        for a in GRID_A:
            for b in GRID_B:
                num = invariants(n, 1, a, b)
                e = closed_form_e(n, a, b)
                estar = closed_form_estar(n, a, b)
                if not (e <= num.q <= num.qstar <= estar):
                    sandwich = False
                spec = SegreVeroneseSpec(n, 1, a, b)
                if computed_e(spec, trials=2, seed=SEED) != e:
                    computed_match = False
                if computed_estar(spec, trials=2, seed=SEED) != estar:
                    computed_match = False
    named = invariants(3, 1, 4, 1) == invariants(3, 1, 4, 1).__class__(14, 0, 14)
    parity = all(
        invariants(2, 1, 4, 2 * d).r == (1 if d % 2 else 3) for d in range(1, 6)
    )
    ok = sandwich and computed_match and named and parity
    _report(
        6,
        ok,
        "e <= q <= q* <= e* on the grid, Monte-Carlo thresholds match closed "
        "form, q(3,1,4,1)=14 with r=0, r(2,1,4,2d) parity 1/3",
    )


def test_criterion_7_grassmann_corollary():
    report = check_corollary(3, 5)
    bad = report.defective
    ok = (
        report.passed
        and len(bad) == 1
        and (bad[0].n, bad[0].a, bad[0].s) == (2, 3, 5)
        and bad[0].defect == 1
        and bad[0].dim == 15
        and bad[0].expected_dim == 16
    )
    _report(
        7,
        ok,
        f"{len(report.cells)} k=1 cells swept, unique defective (2,3,5) "
        "with defect 1 and dim 15 vs expected 16",
    )
