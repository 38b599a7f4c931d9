"""Arithmetic certificates for the inductive nondefectivity argument (m = 1).

The induction that settles the m = 1 classification for n >= 3, a >= 4
reduces, cell by cell, to a fixed set of integer inequalities between the
counting invariants q, r, q* and the thresholds e, e* of nearby embeddings:

  (1)   q(n-1, a, b)  = e(n-1, a, b)
  (2)   q(n, a, b)   >= q(n-1, a, b) + r(n-1, a, b)
  (3)   e(n, a-1, b) >= q(n, a, b)  - q(n-1, a, b)
  (4)   e*(n, a-2, b) <= q(n, a, b) - q(n-1, a, b) - r(n-1, a, b)

plus the starred variants (2*), (3*), (4*) with q*(n, a, b) in place of
q(n, a, b).  Whenever (1), (3*) and (4) hold, every secant variety of the
(n, a, b) embedding has the expected dimension; structurally
(2) => (2*), (3*) => (3), (4) => (4*) and (4) => (2).

This module evaluates those inequalities with exact integer and rational
arithmetic (e and e* taken from the closed-form classification, which is
the induction hypothesis made executable), and replays the inequality
case analysis behind (3*) and (4):

  (3*) follows from the nonnegativity of the integer
       dagger = q(n, a-1, b) - q*(n, a, b) + q(n-1, a, b);
  (4)  splits into cases (a) a > 4, (b) a = 4, n > 3, b odd,
       (c) a = 4, n = 3, b odd, (d) a = 4, n = 3, b even,
       (e) a = 4, n > 3, b even.  In (a)-(c) it reduces to
       ddagger = q*(n, a-2, b) - q(n, a, b) + q(n-1, a, b) + r(n-1, a, b) <= 0,
       certified in (a)-(b) by f(b, n, a) >= 0; in (d)-(e) to g(n, 4, 2d) < 0.

No floating point appears anywhere here: a replay failure is an arithmetic
fact, not a rounding artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .numerology import _base_rule, _e_from, _estar_from, check_sweep_size, invariants

CASES = ("a", "b", "c", "d", "e")


@dataclass(frozen=True)
class LemmaConditionReport:
    """Truth values and integer witnesses of conditions (1)-(4*) at (n, a, b).

    cond4 and cond4star are None when a = 2: they would refer to the
    bidegree (0, b) layer, which is a degenerate embedding with no secant
    numerology of its own.  base_case flags cells outside the inductive
    region n >= 3, a >= 4, where the classification rests on the imported
    base theorems rather than on these conditions.
    """

    n: int
    a: int
    b: int
    cond1: bool
    cond2: bool
    cond3: bool
    cond4: bool | None
    cond2star: bool
    cond3star: bool
    cond4star: bool | None
    base_case: bool
    witnesses: dict[str, tuple[int, int]] = field(compare=False)


def _lemma_integers(n: int, a: int, b: int) -> tuple:
    """The integers behind conditions (1)-(4*) and the dagger values at (n, a, b).

    In order: q(n, a, b), q*(n, a, b), q(n-1, a, b), r(n-1, a, b),
    e(n-1, a, b), e(n, a-1, b), e*(n, a-2, b), q*(n, a-2, b), dagger and
    ddagger; the last four are None when a = 2.  Each of the triples
    (n, a, b), (n-1, a, b), (n, a-1, b) and (n, a-2, b) is read from
    invariants once.
    """
    here = invariants(n, 1, a, b)
    prev = invariants(n - 1, 1, a, b)
    lower = invariants(n, 1, a - 1, b)
    dagger = lower.q - here.qstar + prev.q
    estar_lower = qstar_lower = ddagger = None
    if a >= 3:
        qstar_lower = invariants(n, 1, a - 2, b).qstar
        estar_lower = _estar_from(n, a - 2, b, qstar_lower)
        ddagger = qstar_lower - here.q + prev.q + prev.r
    return (
        here.q, here.qstar, prev.q, prev.r,
        _e_from(n - 1, a, b, prev.q), _e_from(n, a - 1, b, lower.q), estar_lower,
        qstar_lower, dagger, ddagger,
    )


def check_lemma_conditions(n: int, a: int, b: int) -> LemmaConditionReport:
    """Evaluate all seven hypothesis inequalities at one cell, exactly."""
    if n < 2 or a < 2 or b < 1:
        raise ValueError(f"need n >= 2, a >= 2, b >= 1, got ({n}, {a}, {b})")
    q_here, qstar_here, q_prev, r_prev, e_prev, e_lower, estar_lower = _lemma_integers(n, a, b)[:7]
    witnesses: dict[str, tuple[int, int]] = {
        "cond1": (q_prev, e_prev),
        "cond2": (q_here, q_prev + r_prev),
        "cond3": (e_lower, q_here - q_prev),
        "cond2star": (qstar_here, q_prev + r_prev),
        "cond3star": (e_lower, qstar_here - q_prev),
    }
    cond4 = cond4star = None
    if estar_lower is not None:
        witnesses["cond4"] = (estar_lower, q_here - q_prev - r_prev)
        witnesses["cond4star"] = (estar_lower, qstar_here - q_prev - r_prev)
        cond4 = estar_lower <= q_here - q_prev - r_prev
        cond4star = estar_lower <= qstar_here - q_prev - r_prev
    return LemmaConditionReport(
        n=n,
        a=a,
        b=b,
        cond1=q_prev == e_prev,
        cond2=q_here >= q_prev + r_prev,
        cond3=e_lower >= q_here - q_prev,
        cond4=cond4,
        cond2star=qstar_here >= q_prev + r_prev,
        cond3star=e_lower >= qstar_here - q_prev,
        cond4star=cond4star,
        base_case=n < 3 or a < 4,
        witnesses=witnesses,
    )


def dagger_value(n: int, a: int, b: int) -> int:
    """q(n, a-1, b) - q*(n, a, b) + q(n-1, a, b); (3*) says this is >= 0."""
    if n < 2 or a < 2:
        raise ValueError(f"need n >= 2, a >= 2, got ({n}, {a})")
    return _lemma_integers(n, a, b)[8]


def ddagger_value(n: int, a: int, b: int) -> int:
    """q*(n, a-2, b) - q(n, a, b) + q(n-1, a, b) + r(n-1, a, b).

    Equivalent to condition (4) whenever e*(n, a-2, b) = q*(n, a-2, b);
    nonpositivity is what the f certificate guarantees.
    """
    if n < 2 or a < 3:
        raise ValueError(f"need n >= 2, a >= 3, got ({n}, {a})")
    return _lemma_integers(n, a, b)[9]


def f_value(b: int, n: int, a: int) -> Fraction:
    """The rational certificate for cases (a) and (b): f >= 0 implies ddagger <= 0.

    f(b, n, a) = (b+1) C(n-2+a, n-1) (n - (n-1)/a)
                 - (n+1)(n+2) - r(n-1, a, b) n (n+2).
    """
    if n < 2 or a < 2:
        raise ValueError(f"need n >= 2, a >= 2, got ({n}, {a})")
    return _f(b, n, a, invariants(n - 1, 1, a, b).r)


def _f(b: int, n: int, a: int, r_prev: int) -> Fraction:
    """f(b, n, a) given r_prev = r(n-1, a, b)."""
    # One fraction over a: (b+1) C(n-2+a, n-1) (na - n + 1) - a [(n+1)(n+2) + r n (n+2)].
    lead = (b + 1) * comb(n - 2 + a, n - 1) * (n * a - n + 1)
    return Fraction(lead - a * ((n + 1) * (n + 2) + r_prev * n * (n + 2)), a)


def g_value(n: int, d: int) -> Fraction:
    """The rational certificate for cases (d) and (e) at a = 4, b = 2d.

    g(n, 4, 2d) = (d+1)(n+1) + q(n-1, 4, 2d) + r(n-1, 4, 2d)
                  - C(n+4, 4)(2d+1)/(n+2);
    condition (4) holds there exactly when g < 0, using that the (2, 2d)
    window makes e*(n, 2, 2d) = (d+1)(n+1).
    """
    if n < 3 or d < 1:
        raise ValueError(f"need n >= 3, d >= 1, got ({n}, {d})")
    prev = invariants(n - 1, 1, 4, 2 * d)
    return _g(n, d, prev.q, prev.r)


def _g(n: int, d: int, q_prev: int, r_prev: int) -> Fraction:
    """g(n, 4, 2d) given q_prev, r_prev = q(n-1, 4, 2d), r(n-1, 4, 2d)."""
    filling = (d + 1) * (n + 1)
    # One fraction over n + 2.
    integral = filling + q_prev + r_prev
    return Fraction(integral * (n + 2) - comb(n + 4, 4) * (2 * d + 1), n + 2)


def case_a_f_bound(n: int) -> Fraction:
    """Closed lower bound for f in case (a), positive for all n >= 3."""
    return Fraction(n + 2, 60) * (n * (n + 1) * (4 * n * n + 13 * n + 3 - 60) - 60)


def case_b_f_bound(n: int) -> Fraction:
    """Closed lower bound for f in case (b), positive for all n >= 4."""
    return Fraction(n + 2, 12) * (n * (n + 1) * (3 * n + 1 - 12) - 12)


def case_e_g_bound(n: int) -> Fraction:
    """Closed upper bound for g in case (e): -(n-4)(3n+1)/8 - n/(n+1)."""
    return -Fraction((n - 4) * (3 * n + 1), 8) - Fraction(n, n + 1)


def route_case(n: int, a: int, b: int) -> str:
    """Which branch of the case analysis certifies condition (4) at (n, a, b)."""
    if n < 3 or a < 4:
        raise ValueError(f"the case analysis starts at n = 3, a = 4, got ({n}, {a})")
    if a > 4:
        return "a"
    if b % 2 == 1:
        return "c" if n == 3 else "b"
    return "d" if n == 3 else "e"


class ReplayCell(NamedTuple):
    """One inductive cell with its conditions and routed certificate.

    An immutable record, built for every cell of a replay: a named tuple
    costs about half what a frozen dataclass does to build.
    """

    n: int
    a: int
    b: int
    case: str
    cond1: bool
    cond3star: bool
    cond4: bool
    dagger: int
    ddagger: int | None
    f: Fraction | None
    g: Fraction | None
    estar_matches: bool
    certificate_ok: bool
    passed: bool


@dataclass(frozen=True)
class ReplayReport:
    """Certificate sweep over the inductive region of the classification."""

    n_max: int
    a_max: int
    b_max: int
    cells: tuple[ReplayCell, ...]
    base_attributions: tuple[tuple[int, int, str], ...]

    @property
    def all_passed(self) -> bool:
        return all(cell.passed for cell in self.cells)

    @property
    def failures(self) -> tuple[ReplayCell, ...]:
        return tuple(cell for cell in self.cells if not cell.passed)

    def case_counts(self) -> dict[str, int]:
        counts = {case: 0 for case in CASES}
        for cell in self.cells:
            counts[cell.case] += 1
        return counts


def _replay_cell(n: int, a: int, b: int) -> ReplayCell:
    (q_here, qstar_here, q_prev, r_prev, e_prev, e_lower, estar_lower,
     qstar_lower, dagger, ddagger) = _lemma_integers(n, a, b)
    case = route_case(n, a, b)
    f = g = None
    if case in ("a", "b", "c"):
        estar_matches = estar_lower == qstar_lower
        if case == "c":
            certificate_ok = estar_matches and ddagger < 0
        else:
            f = _f(b, n, a, r_prev)
            certificate_ok = estar_matches and f >= 0 and ddagger <= 0
    else:
        # Cases (d) and (e) have a = 4, so g reads the (n-1, a, b) triple.
        d = b // 2
        g = _g(n, d, q_prev, r_prev)
        ddagger = None
        estar_matches = estar_lower == (d + 1) * (n + 1)
        certificate_ok = estar_matches and g < 0
    cond1 = q_prev == e_prev
    cond3star = e_lower >= qstar_here - q_prev
    cond4 = estar_lower <= q_here - q_prev - r_prev
    # Positional, in field order: keywords cost more than the tuple itself.
    return ReplayCell(
        n, a, b, case, cond1, cond3star, cond4, dagger, ddagger, f, g,
        estar_matches, certificate_ok, cond1 and cond3star and cond4 and certificate_ok,
    )


def replay_main_theorem(n_max: int, a_max: int, b_max: int) -> ReplayReport:
    """Check (1), (3*), (4) and the routed certificate on every inductive cell.

    Covers 3 <= n <= n_max, 4 <= a <= a_max, 1 <= b <= b_max, and refuses a
    grid of more than MAX_SWEEP_CELLS cells.  A failing cell indicates an
    implementation or transcription bug: the classification proves every
    cell passes.  Cells below the inductive thresholds are attributed to the
    imported base results instead of being checked.
    """
    if n_max < 3 or a_max < 4 or b_max < 1:
        raise ValueError(
            f"the inductive region starts at n = 3, a = 4, b = 1; "
            f"got bounds ({n_max}, {a_max}, {b_max})"
        )
    check_sweep_size(
        f"the replay grid up to ({n_max}, {a_max}, {b_max})",
        [(n_max - 2) * (a_max - 3) * b_max],
    )
    cells = tuple(
        _replay_cell(n, a, b)
        for n in range(3, n_max + 1)
        for a in range(4, a_max + 1)
        for b in range(1, b_max + 1)
    )
    base = tuple(
        (n, a, _base_rule(n, a))
        for n in range(1, n_max + 1)
        for a in range(1, a_max + 1)
        if n < 3 or a < 4
    )
    return ReplayReport(n_max=n_max, a_max=a_max, b_max=b_max, cells=cells, base_attributions=base)
