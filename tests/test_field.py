import numpy as np
import pytest

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
from segre_secant.terracini import SegreVeroneseSpec, tangent_matrix, trial_rng

from oracles import integer_tangent_matrix, rational_rank

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
    with pytest.raises((ValueError, TypeError)):
        PrimeField(bad)


def test_is_prime_small_values():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    for value in range(500):
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
            assert incremental == rank(ConditionMatrix(stacked, field))


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
    # The limb products are exact only below 2**16 basis rows; a basis that
    # would grow past the bound is refused, not silently wrapped.
    monkeypatch.setattr("segre_secant.field.MAX_BASIS_ROWS", 3)
    acc = RankAccumulator(5, F101)
    assert acc.absorb(np.eye(3, 5, dtype=np.int64)) == 3
    with pytest.raises(SizingError, match="3 rows"):
        acc.absorb(np.eye(5, dtype=np.int64)[3:])
