"""Exact linear algebra over prime fields, with one elimination kernel.

Every dimension count in this package reduces to the rank of an integer
matrix over F_p.  Entries are stored as numpy int64 reduced to [0, p).
The modulus is restricted to p < 2**31 so that a product of two reduced
elements stays below 2**62 and a subtraction stays above -2**62: single
multiply-then-reduce steps are safe in plain int64.  The only place where
sums of products occur (the block reduction inside RankAccumulator) splits
one factor into 16-bit limbs first: a dot product over r basis rows then
stays below r * 2**47, and the recombined sum below (r + 1) * 2**47, which
fits int64 while the basis has fewer than 2**16 rows.  RankAccumulator
enforces that bound (MAX_BASIS_ROWS).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default modulus, 2**31 - 1 (Mersenne prime).
DEFAULT_PRIME = 2147483647

#: Verification modulus of the same width, used to cross-check ranks.
SECOND_PRIME = 2147483629

#: Most rows a RankAccumulator basis may hold with exact limb products.
MAX_BASIS_ROWS = 2**16 - 1

# Witness set making Miller-Rabin deterministic for all n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p with p < 2**31.

    The width bound is what makes int64 intermediates safe everywhere,
    see the module docstring.  Primality is verified at construction.
    """

    p: int = DEFAULT_PRIME

    def __post_init__(self) -> None:
        if not isinstance(self.p, int):
            raise TypeError(f"modulus must be an int, got {type(self.p).__name__}")
        if not 2 <= self.p < 2**31:
            raise ValueError(f"modulus {self.p} outside the supported range [2, 2**31)")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def inverse(self, x: int) -> int:
        """Multiplicative inverse of x mod p (extended Euclid via pow)."""
        return pow(int(x) % self.p, -1, self.p)

    def reduce(self, values) -> np.ndarray:
        """Reduce an integer array into canonical representatives [0, p)."""
        return np.asarray(values, dtype=np.int64) % self.p


class SizingError(ValueError):
    """A requested condition matrix exceeds the configured memory budget."""


def sample_point(dim: int, field: PrimeField, rng: np.random.Generator) -> np.ndarray:
    """Sample a point of P^dim in the affine chart with leading coordinate 1.

    Returns a vector of dim + 1 elements: the first is 1, the rest are drawn
    uniformly from [0, p).  The sequence is fully determined by the state of
    ``rng``, so identically seeded generators reproduce identical points.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    v = np.empty(dim + 1, dtype=np.int64)
    v[0] = 1
    v[1:] = rng.integers(0, field.p, size=dim, dtype=np.int64)
    return v


@dataclass
class ConditionMatrix:
    """Dense row-major matrix over a prime field.

    Rows encode vanishing conditions (tangent rows or derivative
    evaluations); columns follow a documented monomial order fixed by the
    caller.  Entries are validated to be canonical representatives.
    """

    entries: np.ndarray
    field: PrimeField

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.entries, dtype=np.int64))
        if arr.ndim != 2:
            raise ValueError(f"entries must be a 2-D array, got shape {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= self.field.p):
            raise ValueError("entries must lie in [0, p)")
        self.entries = arr

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def rank(matrix: ConditionMatrix) -> int:
    """Rank of a ConditionMatrix over its prime field; an empty matrix has rank 0."""
    return RankAccumulator(matrix.cols, matrix.field).absorb(matrix.entries)


class RankAccumulator:
    """Incremental rank of a growing stack of rows over F_p.

    The one elimination kernel of the package: a one-shot ``rank`` is a
    single ``absorb``, and a nested point stream absorbs one block per
    point, so the dimensions of sigma_1, ..., sigma_s for one spec cost one
    elimination instead of s.

    ``absorb`` reduces the incoming block against the basis with one matrix
    product (split into 16-bit limbs to keep int64 dot products exact), then
    walks its rows in order: a nonzero row's first nonzero column is a new
    pivot, the row is normalized, stored, and its column cleared from the
    rows below it.  The basis is therefore echelonized but not reduced when
    ``absorb`` returns: older rows may still hold entries in the new pivot
    columns.  That fix-up is deferred to the start of the next ``absorb``
    (``_reduce_above``), where the matrix product needs the basis fully
    reduced, so a one-shot rank costs one forward elimination.
    """

    def __init__(self, ncols: int, field: PrimeField):
        self.field = field
        self.ncols = ncols
        self._buf = np.zeros((min(max(ncols, 1), 256), ncols), dtype=np.int64)
        self._nrows = 0
        self._pivot_cols: list[int] = []
        self._reduced_rows = 0

    @property
    def rank(self) -> int:
        return self._nrows

    def _reduce_above(self) -> None:
        """Clears each pivot added since the last call from the rows above it.

        Done in pivot order: a pivot row is zero in every earlier pivot
        column, so clearing a later column never refills an earlier one.
        """
        p = self.field.p
        for i in range(self._reduced_rows, self._nrows):
            col = self._pivot_cols[i]
            stale = self._buf[:i, col]
            if np.any(stale):
                self._buf[:i, col:] = (self._buf[:i, col:] - stale[:, None] * self._buf[i, col:]) % p
        self._reduced_rows = self._nrows

    def absorb(self, block) -> int:
        """Absorb a block of rows; returns the rank of everything so far."""
        p = self.field.p
        B = np.atleast_2d(np.asarray(block, dtype=np.int64)) % p
        if B.shape[1] != self.ncols:
            raise ValueError(f"expected {self.ncols} columns, got {B.shape[1]}")
        self._reduce_above()
        if self._nrows:
            coeffs = B[:, self._pivot_cols]
            hi = coeffs >> 16
            lo = coeffs & 0xFFFF
            basis = self._buf[: self._nrows]
            reduced = (((hi @ basis) % p) << 16) + (lo @ basis)
            B = (B - reduced) % p
        for i in range(B.shape[0]):
            nz = np.flatnonzero(B[i])
            if nz.size == 0:
                continue
            if self._nrows >= MAX_BASIS_ROWS:
                raise SizingError(
                    f"rank accumulator basis would exceed {MAX_BASIS_ROWS} rows, "
                    f"the limit for exact int64 limb products"
                )
            if self._nrows == self._buf.shape[0]:
                grown = np.zeros((min(self._nrows * 2, self.ncols), self.ncols), dtype=np.int64)
                grown[: self._nrows] = self._buf[: self._nrows]
                self._buf = grown
            # Left of its first nonzero column the row is zero, so every
            # update below touches only the columns from the pivot on.
            col = int(nz[0])
            row = self._buf[self._nrows, col:]
            row[:] = B[i, col:] * pow(int(B[i, col]), -1, p) % p
            self._pivot_cols.append(col)
            self._nrows += 1
            below = B[i + 1 :, col]
            if np.any(below):
                B[i + 1 :, col:] = (B[i + 1 :, col:] - below[:, None] * row) % p
        return self._nrows
