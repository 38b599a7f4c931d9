"""Closed-form layer: counting invariants and the m = 1 defectivity classification.

For the embedding of P^n x P^m in bidegree (a, b) write
K = C(n+a, n) * C(m+b, m) = N + 1 and n+m+1 for the parameter count of one
point-plus-tangent-direction.  The quotient q = floor(K / (n+m+1)), the
remainder r, and the ceiling q* govern when s tangent blocks can fill the
ambient space.  The thresholds

    e  = max s with dim sigma_s = s(n+m+1) - 1   (full sub-filling growth)
    e* = min s with dim sigma_s = N              (fills the ambient space)

always satisfy e <= q <= q* <= e*, with equality on both ends exactly when
no secant variety is defective.

For m = 1 the classification is complete.  sigma_s has the expected
dimension min(N, s(n+2) - 1) except for:

  * n = 2, (a, b) = (3, 1), s = 5, where the dimension drops by 1;
  * (a, b) = (2, 2d) with d(n+1)+1 <= s <= (d+1)(n+1)-1 (and the factor-swapped
    shapes (2d, 2) when n = 1), where with k = s - d(n+1) the dimension is

        dim sigma_s = s(n+2) - 1 - [C(d(n+1), 2) + C(s+1, 2) - s d(n+1)]
                    = s(n+2) - 1 - k(k+1)/2.

    The bracketed deficiency is measured against the linear parameter count
    s(n+2) - 1 even where that count exceeds N; the reported defect is
    always taken against min(N, s(n+2) - 1).  Read this way the window
    dimensions increase strictly in s and reach N exactly at
    s = (d+1)(n+1), consistent with the defect-1 statements known for
    n <= 2, and it is the reading confirmed by the Monte-Carlo ranks.

This module imports only the standard library: the engine reads N + 1, the
n, m, a, b >= 1 check and the expected dimension from here, and only
computed_e and computed_estar reach the engine, importing it when they run.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

RULE_MAIN = "main-theorem"
RULE_CGG = "cgg-p1p1"
RULE_BAUR_DRAISMA = "baur-draisma"
RULE_CHIANTINI_CILIBERTO = "chiantini-ciliberto"
RULE_ABRESCIA_2B = "abrescia-2b"
RULE_ABRESCIA_3B = "abrescia-3b"

RULES = (
    RULE_MAIN,
    RULE_CGG,
    RULE_BAUR_DRAISMA,
    RULE_CHIANTINI_CILIBERTO,
    RULE_ABRESCIA_2B,
    RULE_ABRESCIA_3B,
)

#: Most cells one closed-form sweep (``induction.replay_main_theorem`` or
#: ``grassmann.check_corollary``) or one ``verify`` grid runs, counted from
#: its bounds before any cell runs.  On a 2-core Xeon a replay at the limit computes in about
#: 0.2 s; through the CLI it takes about 0.55 s end to end, the rest mostly
#: interpreter and numpy start-up and printing its 3.8 MB of JSON.
MAX_SWEEP_CELLS = 20_000


class ScanBudgetError(RuntimeError):
    """An e/e* scan ran out of its s budget before finding the threshold."""


def check_sweep_size(sweep: str, cell_counts) -> None:
    """Refuse a sweep whose cells, summed lazily over cell_counts, pass MAX_SWEEP_CELLS."""
    total = 0
    for count in cell_counts:
        total += count
        if total > MAX_SWEEP_CELLS:
            raise ValueError(f"{sweep} has more than MAX_SWEEP_CELLS = {MAX_SWEEP_CELLS} cells")


class Numerology(NamedTuple):
    """Quotient, remainder and ceiling quotient of N + 1 by n + m + 1.

    An immutable record, built for every triple a closed-form sweep reads:
    a named tuple costs about half what a frozen dataclass does to build.
    """

    q: int
    r: int
    qstar: int


def _ambient(n: int, m: int, a: int, b: int) -> int:
    """N + 1 = C(n+a, n) * C(m+b, m), the number of bidegree-(a, b) monomials."""
    if min(n, m, a, b) < 1:
        raise ValueError(f"n, m, a, b must all be >= 1, got ({n}, {m}, {a}, {b})")
    return comb(n + a, n) * comb(m + b, m)


@lru_cache(maxsize=None)
def invariants(n: int, m: int, a: int, b: int) -> Numerology:
    """The integers q, r, q* for the (n, m, a, b) embedding, exact."""
    q, r = divmod(_ambient(n, m, a, b), n + m + 1)
    return Numerology(q, r, q if r == 0 else q + 1)


def expected_dimension(n: int, m: int, a: int, b: int, s: int) -> int:
    """min(N, s(n+m+1) - 1)."""
    ambient = _ambient(n, m, a, b)
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    return min(ambient, s * (n + m + 1)) - 1


class _VerdictFields(NamedTuple):
    defective: bool
    defect: int
    dim: int
    rule: str


class ClassificationVerdict(_VerdictFields):
    """Closed-form answer for one (n, a, b, s) with m = 1.

    An immutable record, built on every classify call: a named tuple costs
    about half what a frozen dataclass does to build.
    """

    __slots__ = ()

    def __new__(cls, defective: bool, defect: int, dim: int, rule: str):
        if defective != (defect > 0):
            raise ValueError("defective must hold exactly when defect > 0")
        if rule not in RULES:
            raise ValueError(f"unknown rule tag {rule!r}")
        return tuple.__new__(cls, (defective, defect, dim, rule))


def window_deficiency(n: int, d: int, s: int) -> int:
    """C(d(n+1), 2) + C(s+1, 2) - s d(n+1): drop below the linear count.

    Only meaningful for d(n+1) <= s <= (d+1)(n+1); equals k(k+1)/2 at
    s = d(n+1) + k there.
    """
    t = d * (n + 1)
    return comb(t, 2) + comb(s + 1, 2) - s * t


def _base_rule(n: int, a: int) -> str:
    # Provenance of the nondefective verdicts, finest applicable source first.
    if n == 1:
        return RULE_CGG
    if a == 1:
        return RULE_CHIANTINI_CILIBERTO
    if a == 2:
        return RULE_ABRESCIA_2B
    if a == 3:
        return RULE_ABRESCIA_3B
    if n == 2:
        return RULE_BAUR_DRAISMA
    return RULE_MAIN


def _defective_run(n: int, a: int, b: int) -> tuple[int, int, int] | None:
    """(first, end, d) when sigma_s is defective exactly for first <= s < end.

    d is the half-degree of a (2, 2d) window, and 0 for the sporadic run
    {5} of (n, a, b) = (2, 3, 1).  None when every sigma_s has the expected
    dimension.
    """
    # On P^1 x P^1 the two factors play symmetric roles; canonicalize so the
    # (2, 2d) test below covers the swapped shapes (2d, 2) as well.
    if n == 1 and a > b:
        a, b = b, a
    if n == 2 and (a, b) == (3, 1):
        return 5, 6, 0
    if a == 2 and b % 2 == 0:
        d = b // 2
        return d * (n + 1) + 1, (d + 1) * (n + 1), d
    return None


@lru_cache(maxsize=None)
def classify(n: int, a: int, b: int, s: int) -> ClassificationVerdict:
    """Dimension and defect of sigma_s for the P^n x P^1 embedding in (a, b).

    Implements the complete m = 1 classification described in the module
    docstring.  The rule tag records which classical statement the verdict
    is an instance of; the sporadic case (n, a, b, s) = (2, 3, 1, 5) carries
    the main-theorem tag, the (2, 2d) windows carry the source of the defect
    formula.
    """
    expected = expected_dimension(n, 1, a, b, s)
    run = _defective_run(n, a, b)
    if run is None or not run[0] <= s < run[1]:
        return ClassificationVerdict(False, 0, expected, _base_rule(n, a))
    d = run[2]
    if d == 0:
        return ClassificationVerdict(True, 1, expected - 1, RULE_MAIN)
    dim = s * (n + 2) - 1 - window_deficiency(n, d, s)
    rule = RULE_CGG if n == 1 else RULE_ABRESCIA_2B
    return ClassificationVerdict(True, expected - dim, dim, rule)


# Outside its defective run sigma_s has the expected dimension
# min(N, s(n+2) - 1), so full growth s(n+2) - 1 holds exactly for s <= q and
# filling (dim = N) exactly for s >= q*; inside the run neither holds.  A
# tangent block raises the rank by at most n + 2 (one of its n + 3 partials is
# redundant by the bigraded Euler relation) and the rank never falls, so full
# growth fails for every s past the first failure and filling holds for every
# s past the first.  Hence, with the run first <= s < end,
#
#     e  = q                when there is no run, min(q, first - 1) otherwise,
#     e* = end              when first <= q* < end, q* otherwise.
def _e_from(n: int, a: int, b: int, q: int) -> int:
    """e of the (n, 1, a, b) embedding from its quotient q."""
    run = _defective_run(n, a, b)
    return q if run is None else min(q, run[0] - 1)


def _estar_from(n: int, a: int, b: int, qstar: int) -> int:
    """e* of the (n, 1, a, b) embedding from its ceiling quotient q*."""
    run = _defective_run(n, a, b)
    if run is not None and run[0] <= qstar < run[1]:
        return run[1]
    return qstar


def closed_form_e(n: int, a: int, b: int) -> int:
    """Largest s whose closed-form dimension equals s(n+2) - 1 (m = 1)."""
    return _e_from(n, a, b, invariants(n, 1, a, b).q)


def closed_form_estar(n: int, a: int, b: int) -> int:
    """Smallest s whose closed-form dimension equals N (m = 1)."""
    return _estar_from(n, a, b, invariants(n, 1, a, b).qstar)


def computed_e(
    spec: SegreVeroneseSpec,
    budget: int | None = None,
    trials: int = 3,
    field=None,
    seed: int = 0,
) -> int:
    """Monte-Carlo counterpart of e, scanned on a nested point stream.

    dim sigma_s = s(n+m+1) - 1 forces s <= q, so a scan up to
    min(budget, q* + n + m + 1) determines e exactly; the budget exists to
    bound work for specs with no closed form.
    """
    dims = _scan_dims(spec, budget, trials, field, seed)
    num = invariants(spec.n, spec.m, spec.a, spec.b)
    if len(dims) < num.q:
        raise ScanBudgetError(
            f"scan budget {len(dims)} stops below q = {num.q} for {spec}; "
            "the maximum cannot be certified"
        )
    step = spec.dim + 1
    best = 0
    for s in range(1, len(dims) + 1):
        if dims[s - 1] == s * step - 1:
            best = s
    return best


def computed_estar(
    spec: SegreVeroneseSpec,
    budget: int | None = None,
    trials: int = 3,
    field=None,
    seed: int = 0,
) -> int:
    """Monte-Carlo counterpart of e*: first s whose measured dimension is N."""
    dims = _scan_dims(spec, budget, trials, field, seed)
    for s in range(1, len(dims) + 1):
        if dims[s - 1] == spec.N:
            return s
    raise ScanBudgetError(
        f"sigma_s of {spec} did not fill P^{spec.N} within the scan budget ({len(dims)})"
    )


@lru_cache(maxsize=8)
def _scan_dims(spec: SegreVeroneseSpec, budget, trials, field, seed):
    """The one profile behind computed_e and computed_estar (read-only, cached)."""
    # Read from terracini at each call; the closed-form layer loads no numpy.
    from .terracini import dimension_profile

    num = invariants(spec.n, spec.m, spec.a, spec.b)
    s_max = num.qstar + spec.dim + 1
    if budget is not None:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        s_max = min(s_max, budget)
    dims = dimension_profile(spec, s_max, trials=trials, field=field, seed=seed)
    dims.setflags(write=False)
    return dims
