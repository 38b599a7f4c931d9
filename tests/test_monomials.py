from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segre_secant import (
    DEFAULT_PRIME,
    SECOND_PRIME,
    SegreVeroneseSpec,
    exponent_vectors,
    split_to_bigraded,
)
from segre_secant.monomials import gradient_rows, split_exponent_array
from segre_secant.terracini import tangent_block

from oracles import (
    brute_split_monomials,
    integer_monomial,
    integer_partial,
    integer_tangent_matrix,
)


def _rows(arr):
    return [tuple(int(v) for v in row) for row in arr]


def _images(spec, perm):
    """(alpha, beta) arrays of the bigraded columns perm points at."""
    alphas = exponent_vectors(spec.a, spec.n + 1)
    betas = exponent_vectors(spec.b, spec.m + 1)
    return alphas[perm // betas.shape[0]], betas[perm % betas.shape[0]]


def _assert_dictionary(spec, gammas, perm):
    """perm sends every split monomial to its own split, once each."""
    n = spec.n
    assert perm.dtype == np.int64
    assert np.array_equal(np.sort(perm), np.arange(comb(n + spec.a, n) * comb(spec.m + spec.b, spec.m)))
    alpha, beta = _images(spec, perm)
    assert np.array_equal(alpha[:, :n], gammas[:, :n])
    assert np.array_equal(beta[:, 1:], gammas[:, n + 1 :])
    # the overlap variable's exponent splits between the two factors
    assert np.array_equal(alpha[:, n] + beta[:, 0], gammas[:, n])


def test_exponent_vectors_descending_lex():
    got = [tuple(row) for row in exponent_vectors(2, 2)]
    assert got == [(2, 0), (1, 1), (0, 2)]
    got3 = [tuple(row) for row in exponent_vectors(2, 3)]
    assert got3 == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]


def test_bigraded_basis_segre_of_p1xp1():
    # Columns x0y0, x0y1, x1y0, x1y1; the split basis z0z1, z0z2, z1^2, z1z2
    # lands on them in the same order.
    spec = SegreVeroneseSpec(1, 1, 1, 1)
    perm = split_to_bigraded(spec)
    assert perm.tolist() == [0, 1, 2, 3]
    alpha, beta = _images(spec, perm)
    assert list(zip(_rows(alpha), _rows(beta))) == [
        ((1, 0), (1, 0)),
        ((1, 0), (0, 1)),
        ((0, 1), (1, 0)),
        ((0, 1), (0, 1)),
    ]


def test_bigraded_basis_sizes():
    assert len(split_to_bigraded(SegreVeroneseSpec(2, 1, 3, 1))) == 20
    assert SegreVeroneseSpec(2, 1, 3, 1).N == 19
    assert len(split_to_bigraded(SegreVeroneseSpec(3, 1, 4, 1))) == 70 == comb(7, 3) * 2


def test_split_basis_p1xp1():
    gammas = split_exponent_array(SegreVeroneseSpec(1, 1, 1, 1))
    assert _rows(gammas) == [(1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1)]


@pytest.mark.parametrize(
    "spec, count",
    [
        (SegreVeroneseSpec(2, 1, 2, 1), 12),
        (SegreVeroneseSpec(3, 1, 4, 1), 70),
        (SegreVeroneseSpec(2, 2, 2, 2), 36),
    ],
)
def test_split_basis_counts_against_brute_force(spec, count):
    gammas = split_exponent_array(spec)
    assert len(gammas) == count
    brute = brute_split_monomials(spec.n, spec.m, spec.a, spec.b)
    assert sorted(_rows(gammas)) == sorted(brute)


def test_bijection_forced_cases():
    spec = SegreVeroneseSpec(1, 1, 1, 1)
    perm = split_to_bigraded(spec)
    split_row = {gamma: j for j, gamma in enumerate(_rows(split_exponent_array(spec)))}
    # z1^2 -> x1 y0 (column 2), z0 z2 -> x0 y1 (column 1)
    assert perm[split_row[(0, 2, 0)]] == 2
    assert perm[split_row[(1, 0, 1)]] == 1


def test_bijection_full_matching_no_collisions():
    spec = SegreVeroneseSpec(2, 1, 3, 1)
    perm = split_to_bigraded(spec)
    assert len(perm) == 20
    assert sorted(perm.tolist()) == list(range(20))


def test_bijection_block_sums_and_positivity():
    spec = SegreVeroneseSpec(2, 2, 3, 2)
    gammas = split_exponent_array(spec)
    perm = split_to_bigraded(spec)
    alpha, beta = _images(spec, perm)
    assert np.all(alpha >= 0) and np.all(beta >= 0)
    assert np.all(alpha.sum(axis=1) == spec.a)
    assert np.all(beta.sum(axis=1) == spec.b)
    _assert_dictionary(spec, gammas, perm)
    brute = brute_split_monomials(spec.n, spec.m, spec.a, spec.b)
    assert sorted(_rows(gammas)) == sorted(brute)


def test_counts_and_bijection_full_sweep():
    # Exhaustive sweep: n + m <= 6, a + b <= 10.
    for n in range(1, 6):
        for m in range(1, 7 - n):
            for a in range(1, 10):
                for b in range(1, 11 - a):
                    spec = SegreVeroneseSpec(n, m, a, b)
                    expected = comb(n + a, n) * comb(m + b, m)
                    gammas = split_exponent_array(spec)
                    assert len(gammas) == expected
                    perm = split_to_bigraded(spec)  # raises if not bijective
                    _assert_dictionary(spec, gammas, perm)


def test_split_exponent_array_matches_list():
    spec = SegreVeroneseSpec(2, 1, 2, 2)
    arr = split_exponent_array(spec)
    brute = brute_split_monomials(spec.n, spec.m, spec.a, spec.b)
    assert _rows(arr) == sorted(brute, reverse=True)
    assert arr.dtype == np.int64


def test_rejects_nonpositive_parameters():
    fake = SimpleNamespace(n=0, m=1, a=1, b=1)
    with pytest.raises(ValueError):
        split_to_bigraded(fake)
    with pytest.raises(ValueError):
        split_exponent_array(SimpleNamespace(n=1, m=1, a=0, b=1))
    with pytest.raises(ValueError):
        exponent_vectors(-1, 2)


PRIMES = st.sampled_from([2, 3, 5, 7, 101, 65521, SECOND_PRIME, DEFAULT_PRIME])
COORD = st.integers(-(2**40), 2**40)


@st.composite
def _exponents_and_point(draw):
    nvars = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, 6), min_size=nvars, max_size=nvars), min_size=1, max_size=8))
    point = draw(st.lists(COORD, min_size=nvars, max_size=nvars))
    return rows, point


@settings(max_examples=50, deadline=None)
@given(_exponents_and_point(), PRIMES)
def test_gradient_rows_match_integer_evaluation(case, p):
    rows, point = case
    values, partials = gradient_rows(np.array(rows, dtype=np.int64), np.array(point, dtype=np.int64), p)
    assert values.tolist() == [integer_monomial(e, point) % p for e in rows]
    assert partials.tolist() == [
        [integer_partial(e, point, var) % p for e in rows] for var in range(len(point))
    ]


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.data(), PRIMES)
def test_tangent_block_matches_integer_evaluation(n, m, a, b, data, p):
    x = data.draw(st.lists(COORD, min_size=n + 1, max_size=n + 1))
    y = data.draw(st.lists(COORD, min_size=m + 1, max_size=m + 1))
    block = tangent_block(
        exponent_vectors(a, n + 1), exponent_vectors(b, m + 1),
        np.array(x, dtype=np.int64), np.array(y, dtype=np.int64), p,
    )
    exact = integer_tangent_matrix(n, m, a, b, [(x, y)])
    # the oracle's columns run in ascending lex order, the package's descending
    assert block[:, ::-1].tolist() == [[v % p for v in row] for row in exact]
