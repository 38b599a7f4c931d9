import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from segre_secant import (
    DEFAULT_PRIME,
    SECOND_PRIME,
    ConditionMatrix,
    PrimeField,
    RankAccumulator,
    SizingError,
    is_prime,
    rank,
    sample_point,
)
from segre_secant.field import _MR_BASES, MAX_PRODUCT_TERMS, PANEL_ROWS
from segre_secant.terracini import SegreVeroneseSpec, tangent_matrix, trial_rng

from oracles import integer_tangent_matrix, modular_rank, rational_rank

F101 = PrimeField(101)


def _matrix(entries, field=F101):
    return ConditionMatrix(np.array(entries, dtype=np.int64) % field.p, field)


def test_default_primes_are_prime():
    assert is_prime(DEFAULT_PRIME)
    assert is_prime(SECOND_PRIME)
    PrimeField(DEFAULT_PRIME)
    PrimeField(SECOND_PRIME)


@pytest.mark.parametrize("bad", [0, 1, 4, 100, 2147483646, 2**31, 2**31 + 11])
def test_prime_field_rejects_bad_moduli(bad):
    # is_prime is memoized: a refused modulus stays refused however often
    # it is asked, before and after a good field is built.
    for _ in range(3):
        with pytest.raises((ValueError, TypeError)):
            PrimeField(bad)
        PrimeField(DEFAULT_PRIME)


@pytest.mark.parametrize("composite", [1763, 1373653, 3215031751])
def test_miller_rabin_refutes_composites_without_a_small_factor(composite):
    # 41 * 43, then 829 * 1657 (a strong pseudoprime to bases 2 and 3) and
    # 151 * 751 * 28351 (the least strong pseudoprime to bases 2, 3, 5 and
    # 7): no base divides them, so a Miller-Rabin round refutes them.
    assert all(composite % q for q in _MR_BASES)
    assert not is_prime(composite)
    message = "is not prime" if composite < 2**31 else "outside the supported range"
    with pytest.raises(ValueError, match=message):
        PrimeField(composite)


def test_prime_field_refuses_a_float_modulus():
    with pytest.raises(TypeError, match="^modulus must be an int, got float$"):
        PrimeField(2147483647.0)


def test_repeated_fields_prove_their_modulus_once():
    misses = is_prime.cache_info().misses
    for _ in range(1000):
        PrimeField(DEFAULT_PRIME)
    assert is_prime.cache_info().misses - misses <= 1


def test_is_prime_small_values():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    for value in range(500):
        # The second ask is answered from the cache.
        for _ in range(2):
            assert is_prime(value) == trial_division(value), value


def test_field_inverse():
    for x in (1, 2, 57, 100):
        assert F101.inverse(x) * x % 101 == 1
    with pytest.raises(ValueError):
        F101.inverse(0)


def test_rank_identity():
    assert rank(_matrix(np.eye(3, dtype=np.int64))) == 3


def test_rank_proportional_rows():
    assert rank(_matrix([[1, 2], [2, 4]])) == 1


def test_rank_empty_and_zero():
    assert rank(ConditionMatrix(np.zeros((0, 4), dtype=np.int64), F101)) == 0
    assert rank(ConditionMatrix(np.zeros((3, 0), dtype=np.int64), F101)) == 0
    assert rank(_matrix(np.zeros((5, 5), dtype=np.int64))) == 0


def test_tangent_rank_matches_rational_oracle():
    # One fixed seed, small integer points: fraction elimination over Q on
    # the exact integer matrix is the oracle, and the modular ranks of the
    # reduced matrix must agree with it (19 = dim sigma_5 + 1).
    rng = np.random.default_rng(0)
    points = [
        ([1] + [int(v) for v in rng.integers(1, 50, size=2)],
         [1, int(rng.integers(1, 50))])
        for _ in range(5)
    ]
    integer_matrix = np.array(integer_tangent_matrix(2, 1, 3, 1, points), dtype=np.int64)
    assert integer_matrix.shape == (25, 20)
    assert rational_rank(integer_matrix.tolist()) == 19
    for p in (DEFAULT_PRIME, SECOND_PRIME):
        field = PrimeField(p)
        assert rank(ConditionMatrix(integer_matrix % p, field)) == 19


def test_tangent_matrix_agrees_with_independent_evaluation():
    # The packaged evaluator and the exact integer oracle must produce
    # the same matrix modulo p on identical points (up to column order,
    # which both fix the same way).
    spec = SegreVeroneseSpec(2, 1, 3, 1)
    field = PrimeField(DEFAULT_PRIME)
    rng = trial_rng(spec, seed=0, trial=0, prime=field.p)
    points = [(sample_point(2, field, rng), sample_point(1, field, rng)) for _ in range(2)]
    packaged = tangent_matrix(spec, points, field)
    by_hand = integer_tangent_matrix(
        2, 1, 3, 1, [([int(v) for v in x], [int(v) for v in y]) for x, y in points]
    )
    by_hand_reduced = np.array([[v % field.p for v in row] for row in by_hand], dtype=np.int64)
    packaged_descending = packaged.entries
    # The package enumerates exponents in descending lex, the oracle in
    # ascending lex; ranks and row spans agree, entries match after reversal.
    assert np.array_equal(packaged_descending[:, ::-1], by_hand_reduced)


def test_rank_equals_transpose_rank():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rows = int(rng.integers(1, 51))
        cols = int(rng.integers(1, 51))
        entries = rng.integers(0, 101, size=(rows, cols))
        m = _matrix(entries)
        mt = _matrix(entries.T)
        assert rank(m) == rank(mt)


def test_rank_invariant_under_scaling_and_permutation():
    rng = np.random.default_rng(12)
    for _ in range(10):
        entries = rng.integers(0, 101, size=(12, 9))
        base = rank(_matrix(entries))
        scales = rng.integers(1, 101, size=12)
        scaled = entries * scales[:, None] % 101
        assert rank(_matrix(scaled)) == base
        perm = rng.permutation(12)
        assert rank(_matrix(entries[perm])) == base


def test_cross_prime_agreement_on_integer_matrices():
    # Disagreement between two primes is an O(1/p) event; with these seeds
    # it must not happen (a third prime would adjudicate if it ever did).
    rng = np.random.default_rng(13)
    for _ in range(15):
        entries = rng.integers(-50, 51, size=(15, 12))
        r1 = rank(ConditionMatrix(entries % DEFAULT_PRIME, PrimeField(DEFAULT_PRIME)))
        r2 = rank(ConditionMatrix(entries % SECOND_PRIME, PrimeField(SECOND_PRIME)))
        assert r1 == r2


def test_sample_point_chart_and_determinism():
    field = PrimeField(DEFAULT_PRIME)
    v = sample_point(1, field, np.random.default_rng(5))
    assert v.shape == (2,)
    assert v[0] == 1
    first = sample_point(3, field, np.random.default_rng(5))
    again = sample_point(3, field, np.random.default_rng(5))
    assert np.array_equal(first, again)
    assert np.all(first >= 0) and np.all(first < field.p)


def test_sample_point_distinct_across_seeds():
    field = PrimeField(DEFAULT_PRIME)
    seen = {tuple(sample_point(2, field, np.random.default_rng(seed))) for seed in range(200)}
    assert len(seen) == 200


def test_sample_point_rejects_dim_zero():
    with pytest.raises(ValueError):
        sample_point(0, F101, np.random.default_rng(0))


def test_condition_matrix_validation():
    with pytest.raises(ValueError):
        ConditionMatrix(np.zeros(4, dtype=np.int64), F101)
    with pytest.raises(ValueError):
        ConditionMatrix(np.array([[101, 0]], dtype=np.int64), F101)
    with pytest.raises(ValueError):
        ConditionMatrix(np.array([[-1, 0]], dtype=np.int64), F101)


def test_rank_accumulator_matches_batch_rank():
    rng = np.random.default_rng(21)
    field = F101
    for _ in range(5):
        cols = int(rng.integers(3, 20))
        blocks = [rng.integers(0, 101, size=(int(rng.integers(1, 5)), cols)) for _ in range(6)]
        acc = RankAccumulator(cols, field)
        stacked = np.zeros((0, cols), dtype=np.int64)
        for block in blocks:
            incremental = acc.absorb(block)
            stacked = np.vstack([stacked, block])
            assert incremental == modular_rank(stacked.tolist(), field.p)


def _stream_matches_modular_oracle(p, ncols, data):
    # Empty blocks, zero rows and rows in the span of earlier blocks: a basis
    # left unreduced between blocks would let a span row raise the rank.
    acc = RankAccumulator(ncols, PrimeField(p))
    entries = st.integers(0, p - 1)
    stacked = []
    for _ in range(data.draw(st.integers(1, 6))):
        earlier = list(stacked)
        block = []
        for kind in data.draw(st.lists(st.sampled_from(["random", "zero", "span"]), max_size=4)):
            if kind == "random":
                row = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
            elif kind == "span" and earlier:
                coeffs = data.draw(st.lists(entries, min_size=len(earlier), max_size=len(earlier)))
                row = [sum(c * r[j] for c, r in zip(coeffs, earlier)) % p for j in range(ncols)]
            else:
                row = [0] * ncols
            block.append(row)
        stacked.extend(block)
        absorbed = acc.absorb(np.array(block, dtype=np.int64).reshape(len(block), ncols))
        assert absorbed == acc.rank == modular_rank(stacked, p)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([2, 3, 101, DEFAULT_PRIME]), st.integers(1, 10), st.data())
def test_rank_accumulator_matches_modular_oracle_on_streams(p, ncols, data):
    _stream_matches_modular_oracle(p, ncols, data)


@pytest.mark.parametrize("terms", [2, 3])
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(p=st.sampled_from([2, 3, 101, DEFAULT_PRIME]), ncols=st.integers(1, 12), data=st.data())
def test_chunked_products_match_modular_oracle_on_streams(monkeypatch, terms, p, ncols, data):
    # Products over more than `terms` inner rows are summed chunk by chunk,
    # so the chunked path runs on every stream with a few basis rows.
    monkeypatch.setattr("segre_secant.field.MAX_PRODUCT_TERMS", terms)
    _stream_matches_modular_oracle(p, ncols, data)


@pytest.mark.parametrize("panel", [1, 2, 3])
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(p=st.sampled_from([2, 3, 101, DEFAULT_PRIME]), ncols=st.integers(1, 12), data=st.data())
def test_narrow_panels_match_modular_oracle_on_streams(monkeypatch, panel, p, ncols, data):
    # Panels and strips of `panel` rows and columns: blocks split into
    # several panels, and rows whose strip comes out zero are walked again
    # on a later strip.
    monkeypatch.setattr("segre_secant.field.PANEL_ROWS", panel)
    _stream_matches_modular_oracle(p, ncols, data)


def test_worst_case_entries_stay_exact():
    # Every entry p - 1 (= -1) at p = 2**31 - 1: all limbs near 2**11 and a
    # basis of large entries, through blocks and through the folds of their
    # new rows into it.
    p = DEFAULT_PRIME
    rng = np.random.default_rng(31)
    ncols = 40
    acc = RankAccumulator(ncols, PrimeField(p))
    stacked = []
    for size in (1, 3, 6, 9, 2, 12, 8):
        block = np.full((size, ncols), p - 1, dtype=np.int64)
        # Rows of -(J - e_i - e_j): full rank in total, never -J's rank 1.
        for row in block:
            row[rng.choice(ncols, size=2, replace=False)] = 0
        stacked.extend(block.tolist())
        assert acc.absorb(block) == modular_rank(stacked, p)


def test_product_at_the_exactness_envelope():
    # A basis [I | -1 -1 -1] of MAX_PRODUCT_TERMS rows, then a row of p - 1s:
    # its reduction sums 2047 terms of limb (<= 2047) times p - 1, the
    # largest single product the float64 kernel allows.  The reduced row is
    # (x - 2047, y - 2047, z - 2047) on the last three columns.
    p = DEFAULT_PRIME
    terms = MAX_PRODUCT_TERMS
    basis = np.zeros((terms, terms + 3), dtype=np.int64)
    basis[:, :terms] = np.eye(terms, dtype=np.int64)
    basis[:, terms:] = p - 1
    for tail, expected in (((2047, 2047, 2047), terms), ((2047, 2048, 2047), terms + 1)):
        acc = RankAccumulator(terms + 3, PrimeField(p))
        assert acc.absorb(basis) == terms
        row = np.full((1, terms + 3), p - 1, dtype=np.int64)
        row[0, terms:] = tail
        assert acc.absorb(row) == expected


def test_rank_accumulator_rejects_wrong_width():
    acc = RankAccumulator(4, F101)
    with pytest.raises(ValueError):
        acc.absorb(np.zeros((2, 5), dtype=np.int64))


def test_large_entry_products_stay_exact():
    # Entries near p stress the int64 envelope: (p-1)^2 < 2**62.
    p = DEFAULT_PRIME
    field = PrimeField(p)
    entries = np.array([[p - 1, p - 2], [p - 3, p - 5]], dtype=np.int64)
    m = ConditionMatrix(entries, field)
    assert rank(m) == rational_rank(entries.tolist())


def test_rank_accumulator_enforces_basis_row_bound(monkeypatch):
    # A basis that would grow past MAX_BASIS_ROWS is refused, not grown.
    monkeypatch.setattr("segre_secant.field.MAX_BASIS_ROWS", 3)
    acc = RankAccumulator(5, F101)
    assert acc.absorb(np.eye(3, 5, dtype=np.int64)) == 3
    with pytest.raises(SizingError, match="3 rows"):
        acc.absorb(np.eye(5, dtype=np.int64)[3:])


def test_basis_row_bound_holds_across_strips_of_one_panel(monkeypatch):
    # Strips of 2 columns: the first strip of the panel, columns 0 and 1,
    # has one pivot (the rows agree there), and the second row's pivot is
    # found on the next strip, past the bound of one row.
    monkeypatch.setattr("segre_secant.field.PANEL_ROWS", 2)
    monkeypatch.setattr("segre_secant.field.MAX_BASIS_ROWS", 1)
    acc = RankAccumulator(5, F101)
    with pytest.raises(SizingError, match="1 rows"):
        acc.absorb(np.array([[1, 1, 0, 0, 0], [1, 1, 1, 0, 0]], dtype=np.int64))


def _pivot_rows_match_row_rank_profile(p, ncols, data):
    # Row j of a block is a pivot exactly when it raises the rank of
    # everything before it.  Span rows combine all earlier rows, those of
    # the same block included, so a block's rows also depend on each other.
    acc = RankAccumulator(ncols, PrimeField(p))
    entries = st.integers(0, p - 1)
    stacked = []
    for _ in range(data.draw(st.integers(1, 5))):
        block = []
        for kind in data.draw(st.lists(st.sampled_from(["random", "zero", "span"]), max_size=6)):
            earlier = stacked + block
            if kind == "random":
                row = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
            elif kind == "span" and earlier:
                coeffs = data.draw(st.lists(entries, min_size=len(earlier), max_size=len(earlier)))
                row = [sum(c * r[j] for c, r in zip(coeffs, earlier)) % p for j in range(ncols)]
            else:
                row = [0] * ncols
            block.append(row)
        acc.absorb(np.array(block, dtype=np.int64).reshape(len(block), ncols))
        prefix_ranks = [modular_rank(stacked + block[:j], p) for j in range(len(block) + 1)]
        expected = [j for j in range(len(block)) if prefix_ranks[j + 1] > prefix_ranks[j]]
        assert acc.pivot_rows.tolist() == expected
        stacked.extend(block)
        assert acc.rank == modular_rank(stacked, p)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 101, DEFAULT_PRIME]), st.integers(1, 10), st.data())
def test_pivot_rows_are_the_row_rank_profile(p, ncols, data):
    _pivot_rows_match_row_rank_profile(p, ncols, data)


@pytest.mark.parametrize("panel", [1, 2, 3])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(p=st.sampled_from([2, 3, 101, DEFAULT_PRIME]), ncols=st.integers(1, 10), data=st.data())
def test_pivot_rows_are_the_row_rank_profile_on_narrow_panels(monkeypatch, panel, p, ncols, data):
    # The profile of a block split into panels is their profiles, offset.
    monkeypatch.setattr("segre_secant.field.PANEL_ROWS", panel)
    _pivot_rows_match_row_rank_profile(p, ncols, data)


@pytest.mark.parametrize("p", [101, DEFAULT_PRIME])
@pytest.mark.parametrize("lead", [0, 5])
def test_one_shot_rank_of_a_tall_matrix_with_pivots_in_its_last_panel(p, lead):
    # `lead` random rows, then rows in their span up to 130 in all (zero
    # rows when lead = 0), then a last panel of fresh rows mixed with rows
    # in the span of everything before: past the first panel, only the last
    # one has pivots, and pivot_rows is offset by the panels before it.
    rng = np.random.default_rng(41 + lead)
    ncols = 8
    # Combinations in Python ints: p**2 times a few terms overflows int64.
    head = rng.integers(0, p, size=(lead, ncols)).astype(object)
    rows = head.tolist() + (rng.integers(0, p, size=(130 - lead, lead)).astype(object) @ head % p).tolist()
    for j in range(12):
        if j % 3 == 2:
            coeffs = rng.integers(0, p, size=len(rows)).astype(object)
            rows.append([int(v) for v in coeffs @ np.array(rows, dtype=object) % p])
        else:
            rows.append([int(v) for v in rng.integers(0, p, size=ncols)])
    assert len(rows) > 100 + PANEL_ROWS
    acc = RankAccumulator(ncols, PrimeField(p))
    assert acc.absorb(np.array(rows, dtype=np.int64)) == rank(_matrix(rows, PrimeField(p)))
    prefix_ranks = [modular_rank(rows[:j], p) for j in range(len(rows) + 1)]
    expected = [j for j in range(len(rows)) if prefix_ranks[j + 1] > prefix_ranks[j]]
    assert acc.pivot_rows.tolist() == expected
    assert acc.rank == prefix_ranks[-1] == min(ncols, lead + 8)
    assert all(j < lead or j >= 130 for j in expected)


@pytest.mark.parametrize("panel", [3, 32])
def test_transform_products_stay_exact_on_worst_case_entries(monkeypatch, panel):
    # Every entry p - 1 at p = 2**31 - 1 except two zeros per row: the walk's
    # transform has large entries, and with strips of 3 columns the rest of
    # each row and the earlier strips' rows go through the transform and
    # fold products on entries of p - 1 and their combinations.
    monkeypatch.setattr("segre_secant.field.PANEL_ROWS", panel)
    p = DEFAULT_PRIME
    rng = np.random.default_rng(43)
    ncols = 48
    block = np.full((32, ncols), p - 1, dtype=np.int64)
    for row in block:
        row[rng.choice(ncols, size=2, replace=False)] = 0
    block[5] = block[1]
    acc = RankAccumulator(ncols, PrimeField(p))
    assert acc.absorb(block) == modular_rank(block.tolist(), p) == 31
    assert 5 not in acc.pivot_rows.tolist() and acc.pivot_rows.size == 31
    again = np.full((4, ncols), p - 1, dtype=np.int64)
    assert acc.absorb(again) == modular_rank(block.tolist() + again.tolist(), p)

