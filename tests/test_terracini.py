import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from segre_secant import (
    DEFAULT_PRIME,
    SECOND_PRIME,
    PrimeField,
    RankAccumulator,
    SecantReport,
    SegreVeroneseSpec,
    SizingError,
    dimension_profile,
    is_prime,
    rank,
    sample_point,
    secant_dimension,
    tangent_matrix,
)
from segre_secant.affine import (
    AffineSchemeSpec,
    condition_matrix,
    sample_generic_point,
    secant_dimension_via_reduction,
)
from segre_secant.monomials import bigraded, exponent_vectors, gradient_rows, split_exponent_array
from segre_secant.numerology import invariants
from segre_secant import affine as affine_module, field as field_module, terracini
from segre_secant.terracini import rank_profile, tangent_block, trial_rng

from oracles import chart_point, full_rank_profile, integer_tangent_matrix, rational_rank, segre_secant_dim

FIELD = PrimeField(DEFAULT_PRIME)


def _rows_after_x0(alphas, betas, xs, ys, p):
    """``tangent_block``'s rows at each point (xs[i], ys[i]) without the partial in x_0."""
    block = tangent_block(alphas, betas, xs, ys, p)
    return block.reshape(len(xs), -1, block.shape[1])[:, 1:].reshape(-1, block.shape[1])


def _points(spec, s, seed=0, field=FIELD):
    rng = trial_rng(spec, seed=seed, trial=0, prime=field.p)
    return [
        (sample_point(spec.n, field, rng, 1)[0], sample_point(spec.m, field, rng, 1)[0])
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
    assert report.computed_dim == 3 == report.N


def test_segre_profiles_match_determinantal_closed_form():
    # Independent oracle for m >= 2: the (1, 1) embedding's secants are
    # determinantal loci of (n+1) x (m+1) matrices.
    for n in range(1, 5):
        for m in range(1, 5):
            s_max = min(n, m) + 2
            dims = dimension_profile(SegreVeroneseSpec(n, m, 1, 1), s_max)
            assert dims.tolist() == [segre_secant_dim(n, m, s) for s in range(1, s_max + 1)], (n, m)


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
    # The tangent rank at (x, y) and the ideal dimension of the double points
    # at the matching points of P^(n+m) add up to N + 1, on defective cells
    # too, where neither side is its parameter count.
    for spec, s in ((SegreVeroneseSpec(2, 1, 2, 2), 4), (SegreVeroneseSpec(1, 2, 2, 3), 4),
                    (SegreVeroneseSpec(1, 1, 2, 2), 3), (SegreVeroneseSpec(2, 1, 3, 1), 5)):
        pts = _points(spec, s, seed=3)
        scheme = AffineSchemeSpec(spec.n, spec.m, spec.a, spec.b, s)
        conditions = condition_matrix(scheme, [chart_point(x, y, FIELD.p) for x, y in pts], field=FIELD)
        kernel = conditions.cols - rank(conditions)
        assert rank(tangent_matrix(spec, pts, FIELD)) + kernel == spec.N + 1


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
    assert SecantReport._make(report) == report
    assert SecantReport.measured(SegreVeroneseSpec(2, 1, 3, 1), 5, 18, report.prime, 4, 3, "terracini") == report
    with pytest.raises(ValueError, match="^computed dimension 3 exceeds expected 2$"):
        SecantReport.measured(SegreVeroneseSpec(1, 1, 1, 1), 1, 3, 101, 0, 1, "terracini")


def test_single_s_query_consistent_with_profile():
    spec = SegreVeroneseSpec(2, 1, 2, 2)
    dims = dimension_profile(spec, 6, trials=2, field=FIELD, seed=11)
    for s in (1, 3, 6):
        report = secant_dimension(spec, s, trials=2, field=FIELD, seed=11)
        assert report.computed_dim == int(dims[s - 1])


def _panel_of(block_at):
    """A panel callback drawing k points through a one-point callback."""
    return lambda rng, k: np.vstack([block_at(rng) for _ in range(k)])


def _prime_above(bound):
    p = bound + 1
    while not is_prime(p):
        p += 1
    return p


@settings(max_examples=40, deadline=None)
@given(
    cell=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)).filter(
        lambda c: c[0] + c[1] <= 4 and c[2] + c[3] <= 5
    ),
    s_max=st.integers(1, 12),
    trials=st.integers(1, 3),
    small_prime=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(cell=(1, 1, 2, 2), s_max=3, trials=3, small_prime=False, seed=0)
@example(cell=(2, 1, 3, 1), s_max=5, trials=3, small_prime=False, seed=0)
@example(cell=(1, 1, 2, 2), s_max=3, trials=3, small_prime=True, seed=1)
@example(cell=(2, 1, 3, 1), s_max=5, trials=3, small_prime=True, seed=1)
def test_early_stop_matches_full_loop(cell, s_max, trials, small_prime, seed):
    # The tangent and affine paths stop a trial at a full basis
    # and skip trials once the max reaches min(ncols, s * point rank); the
    # full loop on the same trial_rng streams runs everything.  Primes just
    # above the Schwartz-Zippel bound make unlucky trials, so both the
    # skipping and the running branch are taken.
    n, m, a, b = cell
    spec = SegreVeroneseSpec(n, m, a, b)
    ncols = spec.N + 1
    s_max = min(s_max, -(-ncols // (spec.dim + 1)) + 1)

    bound = min(ncols, s_max * (spec.dim + 1)) * (a + b - 1)
    field = PrimeField(_prime_above(bound) if small_prime else DEFAULT_PRIME)
    p = field.p
    alphas, betas = exponent_vectors(a, n + 1), exponent_vectors(b, m + 1)

    def tangent_at(rng):
        x = sample_point(n, field, rng, 1)[0]
        y = sample_point(m, field, rng, 1)[0]
        return tangent_block(alphas, betas, x, y, p)

    def rng_for(t):
        return trial_rng(spec, seed, t, p, 0)

    full = full_rank_profile(ncols, field, s_max, trials, rng_for, tangent_at)
    dims = dimension_profile(spec, s_max, trials=trials, field=field, seed=seed)
    assert dims.tolist() == [r - 1 for r in full]
    # The oracle absorbs all n + m + 2 rows of each point; the profile
    # streams the n + m + 1 other than the partial in x_0, as
    # dimension_profile does.
    panels = rank_profile(ncols, spec.dim + 1, field, s_max, trials, rng_for, _panel_of(lambda rng: tangent_at(rng)[1:]))
    assert panels.tolist() == full

    scheme = AffineSchemeSpec(n, m, a, b, s_max)
    gammas = split_exponent_array(spec)

    def double_point_at(rng):
        return gradient_rows(gammas, sample_generic_point(scheme, field, rng, 1)[0], p)[1]

    def rng_for(t):
        return trial_rng(spec, seed, t, p, 1)

    full = full_rank_profile(ncols, field, s_max, trials, rng_for, double_point_at)
    report = secant_dimension_via_reduction(spec, s_max, trials=trials, field=field, seed=seed)
    assert report.computed_dim == full[-1] - 1
    panels = rank_profile(ncols, spec.dim + 1, field, s_max, trials, rng_for, _panel_of(double_point_at))
    assert panels.tolist() == full


@settings(max_examples=100, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    ncols=st.integers(1, 8),
    rows=st.integers(1, 3),
    s_max=st.integers(1, 8),
    trials=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_rank_profile_matches_full_loop_on_random_blocks(p, ncols, rows, s_max, trials, seed):
    # Uniform blocks over a tiny field often add nothing, even one rank
    # short of a full basis, and trials often fall short of the ceiling.
    # Panels of several points read each point's rank from the pivot rows.
    field = PrimeField(p)

    def rng_for(trial):
        return np.random.default_rng([seed, trial])

    def block_at(rng):
        return rng.integers(0, p, size=(rows, ncols))

    full = full_rank_profile(ncols, field, s_max, trials, rng_for, block_at)
    profile = rank_profile(ncols, rows, field, s_max, trials, rng_for, _panel_of(block_at))
    assert profile.tolist() == full


@settings(max_examples=60, deadline=None)
@given(
    cell=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)),
    k=st.integers(1, 3),
    which=st.integers(0, 2),
    data=st.data(),
)
def test_x0_partial_is_the_euler_combination_at_chart_points(cell, k, which, data):
    # At x_0 = y_0 = 1 the bigraded Euler relation
    # b * sum_i x_i d/dx_i = a * sum_j y_j d/dy_j gives the partial in x_0
    # as b^-1 (a * sum_j y_j d/dy_j - b * sum_(i >= 1) x_i d/dx_i) mod p,
    # for the primes just above a + b as for 2**31 - 1.  The others, in
    # tangent_block's order, are the partials of the bigraded basis without
    # x_0's column at (x_1..x_n, y_0..y_m): the identity the tangent
    # panel's exact-partials fallback rests on.
    n, m, a, b = cell
    small = _prime_above(a + b)
    p = (small, _prime_above(small), DEFAULT_PRIME)[which]
    coords = st.lists(st.integers(0, p - 1), min_size=n + m, max_size=n + m)
    drawn = np.array(data.draw(st.lists(coords, min_size=k, max_size=k)), dtype=np.int64).reshape(k, n + m)
    ones = np.ones((k, 1), dtype=np.int64)
    xs, ys = np.hstack([ones, drawn[:, :n]]), np.hstack([ones, drawn[:, n:]])
    alphas, betas = exponent_vectors(a, n + 1), exponent_vectors(b, m + 1)
    block = tangent_block(alphas, betas, xs, ys, p)
    rows = block.astype(object).reshape(k, n + m + 2, -1)
    for point, x, y in zip(rows, xs.tolist(), ys.tolist()):
        dx, dy = point[: n + 1], point[n + 1 :]
        combination = a * sum(yj * row for yj, row in zip(y, dy)) - b * sum(xi * row for xi, row in zip(x[1:], dx[1:]))
        assert (pow(b, -1, p) * combination % p).tolist() == dx[0].tolist()
    others = block.reshape(k, n + m + 2, -1)[:, 1:].reshape(k * (n + m + 1), -1)
    partials = gradient_rows(bigraded(alphas, betas)[:, 1:], np.hstack([xs[:, 1:], ys]), p)[1]
    assert np.array_equal(partials.reshape(k * (n + m + 1), -1), others)


class _CountingRng:
    """A generator that records the shape of every ``integers`` draw."""

    def __init__(self, rng, shapes):
        self._rng, self._shapes = rng, shapes

    def integers(self, low, high, size, dtype):
        self._shapes.append(size)
        return self._rng.integers(low, high, size=size, dtype=dtype)


def test_early_stop_absorbs_only_needed_blocks(monkeypatch):
    rows = []
    draws = []
    original_absorb = RankAccumulator.absorb
    original_rng = terracini.trial_rng

    def counting_absorb(acc, block):
        rows.append(len(block))
        return original_absorb(acc, block)

    monkeypatch.setattr(RankAccumulator, "absorb", counting_absorb)
    monkeypatch.setattr(terracini, "trial_rng", lambda *key: _CountingRng(original_rng(*key), draws))
    # Nondefective: the first trial reaches min(30, 4s) at every s and fills
    # the basis at its 8th point, so nothing else is drawn or absorbed.
    # Each point draws its n + m = 3 coordinates after the leading ones and
    # streams its n + m + 1 = 4 rows other than the partial in x_0.
    dimension_profile(SegreVeroneseSpec(2, 1, 3, 2), 10, trials=3, field=FIELD)
    assert sum(rows) == 8 * 4
    assert sum(k for k, _ in draws) == 8 and {width for _, width in draws} == {3}
    # Defective at s = 5 (rank 19 of 20): every trial draws every point.
    rows.clear()
    draws.clear()
    dimension_profile(SegreVeroneseSpec(2, 1, 3, 1), 5, trials=3, field=FIELD)
    assert sum(rows) == 15 * 4
    assert sum(k for k, _ in draws) == 15 and {width for _, width in draws} == {3}


@pytest.mark.parametrize("p", [2, 3, 5, 101, DEFAULT_PRIME])
def test_panel_draws_equal_point_draws(p):
    # One sample_point draw of k points of P^(n+m) gives the values of k
    # pairs of one-point draws of P^n then P^m, and one of k points of P^n
    # those of k one-point draws: bounded int64 draws below 2**32 take one
    # 32-bit output each, in order.
    field = PrimeField(p)
    for seed in range(200):
        n, m, k = 1 + seed % 4, 1 + seed % 3, 1 + seed % 7
        rng = np.random.default_rng(seed)
        pairs = [(sample_point(n, field, rng, 1)[0], sample_point(m, field, rng, 1)[0]) for _ in range(k)]
        z = sample_point(n + m, field, np.random.default_rng(seed), k)
        assert np.array_equal(z[:, : n + 1], np.array([x for x, _ in pairs]))
        assert np.array_equal(z[:, n + 1 :], np.array([y[1:] for _, y in pairs]))
        rng = np.random.default_rng(seed)
        points = np.vstack([sample_point(n, field, rng, 1) for _ in range(k)])
        assert np.array_equal(sample_point(n, field, np.random.default_rng(seed), k), points)


def test_tangent_panels_are_drawn_at_sample_point_points(monkeypatch):
    # The points dimension_profile evaluates are those of sample_point calls
    # on the trial's stream, x then y per point, in order, and each absorbed
    # block holds their rows after the partial in x_0, each scaled by its
    # coordinate (the Euler form, y_0 = 1).
    spec = SegreVeroneseSpec(2, 1, 2, 3)
    n, p = spec.n, FIELD.p
    seen, blocks = [], []
    sample, absorb = terracini.sample_point, RankAccumulator.absorb

    def recording_sample(dim, field, rng, k):
        z = sample(dim, field, rng, k)
        seen.append(z)
        return z

    def recording_absorb(acc, block):
        blocks.append(np.array(block))
        return absorb(acc, block)

    monkeypatch.setattr(terracini, "sample_point", recording_sample)
    monkeypatch.setattr(RankAccumulator, "absorb", recording_absorb)
    dimension_profile(spec, 6, trials=1, field=FIELD, seed=3)
    z = np.vstack(seen)
    expected = _points(spec, z.shape[0], seed=3)
    xs, ys = z[:, : n + 1], np.hstack([np.ones((z.shape[0], 1), dtype=np.int64), z[:, n + 1 :]])
    assert np.array_equal(xs, np.array([x for x, _ in expected]))
    assert np.array_equal(ys, np.array([y for _, y in expected]))
    alphas, betas = exponent_vectors(spec.a, n + 1), exponent_vectors(spec.b, spec.m + 1)
    scale = np.hstack([xs[:, 1:], ys]).reshape(-1, 1)
    exact = _rows_after_x0(alphas, betas, xs, ys, p)
    assert np.array_equal(np.vstack(blocks) % p, exact * scale % p)


def _exact_panels(spec, p):
    """Exact partials at chart points z: (tangent rows, affine rows)."""
    n = spec.n
    alphas, betas = exponent_vectors(spec.a, n + 1), exponent_vectors(spec.b, spec.m + 1)
    gammas = split_exponent_array(spec)

    def tangent(z):
        ys = np.hstack([np.ones((z.shape[0], 1), dtype=np.int64), z[:, n + 1 :]])
        return _rows_after_x0(alphas, betas, z[:, : n + 1], ys, p)

    def affine(z):
        return gradient_rows(gammas, z, p)[1].reshape(-1, gammas.shape[0])

    return tangent, affine


@settings(max_examples=40, deadline=None)
@given(
    cell=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)).filter(
        lambda c: c[0] + c[1] <= 5 and c[2] + c[3] <= 6
    ),
    panels=st.lists(st.tuples(st.integers(1, 3), st.booleans()), min_size=1, max_size=3),
    small_prime=st.booleans(),
    data=st.data(),
)
def test_euler_panels_have_the_rank_profile_of_the_partials(cell, panels, small_prime, data):
    # Both paths' streamed panels against the exact partials at the same
    # chart points, absorbed panel by panel into fresh accumulators: equal
    # ranks and equal pivot rows, at a prime just above the Schwartz-Zippel
    # bound and at 2**31 - 1.  A panel drawn with zeros has a coordinate 0
    # about half the time, and then takes the fallback.
    n, m, a, b = cell
    spec = SegreVeroneseSpec(n, m, a, b)
    s = sum(k for k, _ in panels)
    p = _prime_above(min(spec.N + 1, s * (n + m + 1)) * (a + b - 1)) if small_prime else DEFAULT_PRIME
    field = PrimeField(p)
    drawn = []
    for k, zeros in panels:
        coord = st.one_of(st.just(0), st.integers(1, p - 1)) if zeros else st.integers(1, p - 1)
        rows = data.draw(st.lists(st.lists(coord, min_size=n + m, max_size=n + m), min_size=k, max_size=k))
        drawn.append(np.hstack([np.ones((k, 1), dtype=np.int64), np.array(rows, dtype=np.int64)]))
    streamed = (terracini._tangent_panel(spec, p), affine_module._double_point_panel(spec, p))
    for stream, exact in zip(streamed, _exact_panels(spec, p)):
        accs = RankAccumulator(spec.N + 1, field), RankAccumulator(spec.N + 1, field)
        for z in drawn:
            assert accs[0].absorb(stream(z)) == accs[1].absorb(exact(z))
            assert np.array_equal(accs[0].pivot_rows, accs[1].pivot_rows)


@pytest.mark.parametrize("column", [1, 2, 3, 4])
def test_a_zero_coordinate_panel_is_the_exact_partials(column):
    # A zero in any coordinate after the chart's leading 1 (x_1, x_2, y_1,
    # y_2 here) makes the whole panel the exact partials on both paths; at
    # the same points without the zero the Euler rows differ from them.
    spec = SegreVeroneseSpec(2, 2, 2, 2)
    generic = sample_point(spec.dim, FIELD, np.random.default_rng(column), 3)
    zero = generic.copy()
    zero[1, column] = 0
    streamed = (terracini._tangent_panel(spec, FIELD.p), affine_module._double_point_panel(spec, FIELD.p))
    for stream, exact in zip(streamed, _exact_panels(spec, FIELD.p)):
        assert not np.array_equal(stream(generic), exact(generic))
        assert np.array_equal(stream(zero), exact(zero))


@settings(max_examples=15, deadline=None)
@given(
    cell=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)).filter(
        lambda c: c[0] + c[1] <= 4 and c[2] + c[3] <= 5
    ),
    s=st.integers(1, 7),
    seed=st.integers(0, 2**16),
)
@example(cell=(1, 1, 2, 2), s=3, seed=0)
@example(cell=(2, 1, 2, 2), s=5, seed=0)
@example(cell=(2, 1, 3, 1), s=5, seed=0)
@example(cell=(3, 1, 2, 2), s=5, seed=0)
def test_paths_agree_with_rational_rank_and_factor_swap(cell, s, seed):
    # Four computations of dim sigma_s: the tangent path, the rank over Q
    # of the exact integer tangent rows at the points its first trial
    # draws, the affine path and the tangent path of the swapped spec.  The
    # oracle's fraction elimination is kept to at most 30 rows, which still
    # reaches the defective cells (1,1,2,2), (2,1,2,2), (2,1,3,1), (3,1,2,2).
    n, m, a, b = cell
    spec = SegreVeroneseSpec(n, m, a, b)
    s = min(s, 30 // (spec.dim + 2))
    tangent = secant_dimension(spec, s, trials=1, field=FIELD, seed=seed).computed_dim
    rng = trial_rng(spec, seed, 0, FIELD.p)
    points = [
        (sample_point(n, FIELD, rng, 1)[0].tolist(), sample_point(m, FIELD, rng, 1)[0].tolist())
        for _ in range(s)
    ]
    exact = rational_rank(integer_tangent_matrix(n, m, a, b, points)) - 1
    affine = secant_dimension_via_reduction(spec, s, trials=1, field=FIELD, seed=seed).computed_dim
    swapped = secant_dimension(spec.swapped(), s, trials=1, field=FIELD, seed=seed).computed_dim
    assert tangent == exact == affine == swapped


class _FakeBlas:
    """Stands in for OpenBLAS's (set, get) thread-count calls."""

    def __init__(self, threads):
        self.threads = threads
        self.sets = []

    def set(self, threads):
        self.sets.append(threads)
        self.threads = threads

    def get(self):
        return self.threads


def _profile_with(blas, monkeypatch, fail=False):
    monkeypatch.setattr(field_module, "_openblas_thread_calls", lambda: (blas.set, blas.get))
    seen = []

    def panel_at(rng, k):
        seen.append(blas.get())
        if fail:
            raise RuntimeError("panel failed")
        return rng.integers(0, 101, size=(k, 4))

    rank_profile(4, 1, PrimeField(101), 3, 2, np.random.default_rng, panel_at)
    return seen


def test_rank_profile_runs_on_one_blas_thread_and_restores_the_count(monkeypatch):
    blas = _FakeBlas(2)
    assert set(_profile_with(blas, monkeypatch)) == {1}
    assert blas.sets == [1, 2] and blas.threads == 2
    # restored on an exception as well
    blas = _FakeBlas(2)
    with pytest.raises(RuntimeError, match="panel failed"):
        _profile_with(blas, monkeypatch, fail=True)
    assert blas.sets == [1, 2] and blas.threads == 2
    # a process already on one thread (a pinned CLI, its forked workers)
    # makes no set call, which would restart a forked OpenBLAS's threads
    blas = _FakeBlas(1)
    assert set(_profile_with(blas, monkeypatch)) == {1}
    assert blas.sets == []


def test_rank_profile_restores_the_loaded_openblas_count():
    calls = field_module._openblas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS loaded by numpy")
    set_threads, get_threads = calls
    before = get_threads()
    try:
        set_threads(2)
        dimension_profile(SegreVeroneseSpec(2, 1, 2, 2), 5, trials=1, field=FIELD)
        assert get_threads() == 2
    finally:
        set_threads(before)


def test_memory_check_counts_what_a_profile_allocates(monkeypatch):
    # The budget is the panel, three basis buffers of ncols**2 / 4 and three
    # profile arrays; a run at exactly that budget passes and never absorbs
    # more rows than were counted.  The accumulator holds two of the three
    # buffers, taken once: the same two objects after every absorb, where
    # growing them as the basis grows would have taken new ones.
    spec = SegreVeroneseSpec(4, 1, 4, 3)
    ncols, s_max = spec.N + 1, 12
    panel = terracini.panel_rows(spec.dim + 1, s_max)
    need = panel * ncols + 3 * (ncols * ncols // 4) + 3 * s_max
    with pytest.raises(SizingError, match=f"needs {need} entries, budget is {need - 1}"):
        dimension_profile(spec, s_max, trials=1, field=FIELD, memory_budget=need - 1)
    seen = []
    original = RankAccumulator.absorb

    def recording(acc, block):
        result = original(acc, block)
        seen.append((len(block), acc, acc._store, acc._spare))
        return result

    monkeypatch.setattr(RankAccumulator, "absorb", recording)
    dimension_profile(spec, s_max, trials=1, field=FIELD, memory_budget=need)
    rows, accs, stores, spares = zip(*seen)
    assert len(rows) > 1 and len(set(map(id, accs))) == 1
    assert max(rows) <= panel
    assert set(map(id, stores + spares)) == {id(stores[0]), id(spares[0])}
    assert {buffer.size for buffer in stores + spares} == {ncols * ncols // 4}


#: Bytes a rank profile may allocate beyond 8 per entry that
#: ``check_memory_budget`` counts: the per-panel temporaries (limbs,
#: weighted factors, products), which the count leaves out.
PROFILE_SLACK_BYTES = 3 * 2**19  # 1.5 MiB


@pytest.mark.parametrize(
    "cell, profile",
    [((4, 1, 5, 5), dimension_profile), ((4, 1, 5, 5), secant_dimension_via_reduction), ((4, 1, 6, 4), dimension_profile)],
    ids=["4155-tangent", "4155-affine", "4164-tangent"],
)
def test_profile_allocates_within_its_counted_budget(cell, profile):
    # tracemalloc's peak over one profile up to q* + 1, after a first run
    # has filled the caches, against the entries the budget check counts.
    spec = SegreVeroneseSpec(*cell)
    s_max = invariants(*cell).qstar + 1
    with pytest.raises(SizingError) as excinfo:
        profile(spec, s_max, trials=1, memory_budget=0)
    counted = int(re.search(r"needs (\d+) entries", str(excinfo.value)).group(1))
    profile(spec, s_max, trials=1)
    tracemalloc.start()
    try:
        profile(spec, s_max, trials=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * counted + PROFILE_SLACK_BYTES, (peak, 8 * counted)


def test_memory_check_runs_on_every_path():
    spec = SegreVeroneseSpec(2, 1, 2, 2)
    with pytest.raises(SizingError, match="affine rank profile"):
        secant_dimension_via_reduction(spec, 3, memory_budget=200)
    # A huge s is refused by its profile arrays before anything is drawn.
    with pytest.raises(SizingError, match="s=1000000000"):
        dimension_profile(SegreVeroneseSpec(1, 1, 1, 1), 10**9, trials=1)
