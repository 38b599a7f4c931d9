"""Exact linear algebra over prime fields, with one elimination kernel.

Every dimension count in this package reduces to the rank of an integer
matrix over F_p.  Entries are stored as numpy int64 reduced to [0, p).
The modulus is restricted to p < 2**31 so that a product of two reduced
elements stays below 2**62 and a subtraction stays above -2**62: single
multiply-then-reduce steps are safe in plain int64.

RankAccumulator eliminates rows a panel of PANEL_ROWS at a time, by
blocked Gauss-Jordan: an int64 walk of a strip of PANEL_ROWS columns,
single multiply-then-reduce steps only, and sums of products for
everything else (reducing a panel against the basis, applying the walk's
transform to the rest of each row, and folding each strip's new rows into
the basis as soon as the walk finds them, so nothing is left over for a
later panel or a later call).  Those run in float64 BLAS, which is exact
on integers while every partial sum stays below 2**53.  One factor is split into 11-bit limbs and the
other holds magnitudes below p, so each term is below 2**11 * 2**31 =
2**42, and a product over at most MAX_PRODUCT_TERMS = 2047 terms stays
below 2**53 - 2**42; longer inner dimensions are cut into chunks of that
length, each reduced mod p before the next is added.  The basis size
therefore does not enter the exactness bound; RankAccumulator still
refuses a basis of MAX_BASIS_ROWS rows or more.

Its basis memory is fixed at construction: two flat float64 buffers of
ncols**2 / 4 entries, the most an r x F basis with r + F = ncols can hold,
one for the basis and one for the next basis; each panel adds temporaries
of its own size.  ``terracini.check_memory_budget`` counts three such
buffers (see there).

Those products are small, so OpenBLAS threads only add contention:
``one_blas_thread``, the only OpenBLAS control, runs a computation on
one thread and restores the caller's count; each rank profile runs in it.

``is_prime`` caches its verdicts, so each modulus is proved prime once per
process however many PrimeField objects are built over it.
"""

from __future__ import annotations

import contextlib
import ctypes
import fnmatch
import functools
import os
from dataclasses import dataclass

import numpy as np

#: Default modulus, 2**31 - 1 (Mersenne prime).
DEFAULT_PRIME = 2147483647

#: Verification modulus of the same width, used to cross-check ranks.
SECOND_PRIME = 2147483629

#: Most rows a RankAccumulator basis may hold.
MAX_BASIS_ROWS = 2**16 - 1

#: Most terms one float64 product may sum: 2047 terms below 2**42 each
#: stay below 2**53 - 2**42, where every partial sum is an exact float64.
MAX_PRODUCT_TERMS = 2**11 - 1

#: Rows of one elimination panel, and columns of one strip of its walk.
#: The int64 walk of a strip costs about PANEL_ROWS**2 per pivot; everything
#: else is a float64 product.  On a 2-core Xeon, 32 and 48 timed alike on
#: the large and the small cells of the default verify grid; 16 was 30-40%
#: slower and 64 about 10% slower.
PANEL_ROWS = 32

_LIMB_BITS = 11

# Witness set making Miller-Rabin deterministic for all n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.lru_cache(maxsize=64, typed=True)
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


class SizingError(ValueError):
    """A requested condition matrix exceeds the configured memory budget."""


#: (set, get) thread-count symbols: numpy's bundled scipy-openblas first,
#: then a system OpenBLAS.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _openblas_thread_calls():
    """(set, get) thread-count functions of an OpenBLAS already loaded, or None.

    Looks in numpy's wheel library directory and for the system soname,
    opening only a library numpy has already loaded (RTLD_NOLOAD).  The
    lookup is done once per process; a forked child shares the library.
    """
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = fnmatch.filter(os.listdir(libdir), "*openblas*")
    except OSError:  # no wheel library directory
        names = []
    # Hidden names are left out, as glob("*openblas*") would leave them.
    paths = [os.path.join(libdir, name) for name in sorted(names) if not name.startswith(".")]
    for path in paths + ["libopenblas.so.0"]:
        try:
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            set_threads = getattr(lib, set_name, None)
            get_threads = getattr(lib, get_name, None)
            if set_threads is not None and get_threads is not None:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Runs the body with OpenBLAS on one thread; does nothing without it.

    The kernel multiplies a panel of rows against the basis, products small
    enough that threads cost more CPU than they save wall time.  The count
    is set only if it is not 1 already, and restored on exit, exceptions
    included: in a forked child any set call restarts OpenBLAS's thread
    pool, so a process on one thread, such as a worker that
    ``cli.run_verify`` forks inside this scope, makes no call at all.
    """
    calls = _openblas_thread_calls()
    before = 1 if calls is None else calls[1]()
    if before == 1:
        yield
        return
    set_threads = calls[0]
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def sample_point(dim: int, field: PrimeField, rng: np.random.Generator, k: int) -> np.ndarray:
    """k points of P^dim in the chart with leading coordinate 1, as (k, dim + 1).

    The package's one coordinate draw: the other entries come from one
    ``rng.integers`` call, uniform in [0, p), row by row, so one (k, d)
    draw gives the values of k draws of (1, d), in order.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    z = np.empty((k, dim + 1), dtype=np.int64)
    z[:, 0] = 1
    z[:, 1:] = rng.integers(0, field.p, size=(k, dim), dtype=np.int64)
    return z


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


def _limbs(x: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Nonnegative int64 rows split into 11-bit limbs, limb l in the l-th row block, as float64."""
    rows, cols = x.shape
    return ((x >> shifts) & (2**_LIMB_BITS - 1)).reshape(shifts.shape[0] * rows, cols).astype(np.float64)


def _center(x: np.ndarray, p: int, work: np.ndarray | None = None) -> np.ndarray:
    """Sets float64 integers x of magnitude below 2**22 * p to x mod p, in place.

    q = rint(x / p) is off from x / p by less than 1/2 + 2**-30, so q * p
    and x - q * p are exact and |x - q * p| < p / 2 + 2, with 0 the only
    representative of zero.  ``work``, if given, is scratch of x's shape.
    """
    q = np.multiply(x, 1.0 / p, out=work)
    np.rint(q, out=q)
    q *= p
    x -= q
    return x


def _canonical(x: np.ndarray, p: int) -> np.ndarray:
    """float64 integers of magnitude below p as int64 representatives in [0, p)."""
    r = x.astype(np.int64)
    # r >> 63 is -1 where r < 0 and 0 elsewhere, so p is added to negatives.
    r += (r >> 63) & p
    return r


def _submul(y: np.ndarray, a: np.ndarray, b: np.ndarray, p: int, work: np.ndarray | None = None) -> np.ndarray:
    """Sets y to y - a @ b reduced mod p, in place, in float64 BLAS.

    y holds integers of magnitude below p; one of a, b holds 11-bit limbs
    and the other magnitudes below p.  The inner dimension is cut into
    chunks of MAX_PRODUCT_TERMS, so y - (a @ b over one chunk) has every
    partial sum exact and magnitude below 2**22 * p, and ``_center``
    brings it back below p.  ``work``, if given, is scratch of y's shape.
    """
    for lo in range(0, a.shape[1], MAX_PRODUCT_TERMS):
        hi = lo + MAX_PRODUCT_TERMS
        y -= np.matmul(a[:, lo:hi], b[lo:hi], out=work)
        _center(y, p, work)
    return y


def _view(flat: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    return flat[: shape[0] * shape[1]].reshape(shape)


def _walk(C: np.ndarray, width: int, p: int) -> tuple[list[int], list[int]]:
    """Gauss-Jordan on a strip held by columns, rows in order, in place.

    Row j of C is column j of the strip, so each update writes one
    contiguous run of C.  A row of the strip that is nonzero on its first
    ``width`` columns becomes a pivot at its first nonzero column: it is
    normalized and that column is cleared from every other row, above and
    below.  Columns from ``width`` on, if any, start as an identity, so
    they record the transform.  Returns the pivot rows and their columns.
    """
    rows, cols = [], []
    for i in range(C.shape[1]):
        nz = C[:width, i].nonzero()[0]
        if nz.size == 0:
            continue
        # The row is zero left of its first nonzero column, and the
        # transforms of rows 0..i are zero right of identity column i, so
        # the update touches only the columns in between.
        col = nz.item(0)
        inv = pow(C.item(col, i), -1, p)
        block = C[col : min(C.shape[0], width + i + 1)]
        # Row j gets row i times -C[col, j] / C[col, i]; row i itself gets
        # row i times inv - 1, which normalizes it.
        factors = block[0] * (p - inv)
        factors %= p
        factors[i] = inv - 1
        block += block[:, i, None] * factors
        block %= p
        rows.append(i)
        cols.append(col)
    return rows, cols


class RankAccumulator:
    """Incremental rank of a growing stack of rows over F_p.

    The one elimination kernel of the package: a one-shot ``rank`` is a
    single ``absorb``, and a nested point stream absorbs a panel of point
    blocks at a time, so the dimensions of sigma_1, ..., sigma_s for one
    spec cost one elimination instead of s.  ``pivot_rows`` holds the
    positions, in increasing order, of the last block's rows that became
    pivots (each is outside the span of the basis and the rows before it):
    the row rank profile, from which the rank after any prefix of the
    block follows.

    The basis is kept reduced and compressed as ``[I | E]``: the pivot
    column of each row, the free (non-pivot) columns, and ``E``, the rows
    on the free columns, as float64 integers of magnitude below p.
    ``absorb`` takes a block PANEL_ROWS rows at a time.  It reduces a
    panel as ``B[:, free] - B[:, piv] @ E`` in float64 BLAS with
    ``B[:, piv]`` split into 11-bit limbs (see ``_submul``), then
    eliminates the reduced rows by blocked Gauss-Jordan (``_eliminate``):
    an int64 walk of a strip of PANEL_ROWS columns and one exact product
    for the rest of each row, so each strip's new rows come out reduced
    against each other.  One more product folds them into ``[I | E]``
    right away (``_fold``): after every strip, and so between calls, the
    basis holds exactly ``rank`` rows, and no other rows are kept.

    ``E`` is a view of one of two flat float64 buffers of ncols**2 / 4
    entries, taken once.  A fold updates ``E`` in place, with its product
    written to the other buffer, gathers the kept columns and the new rows
    into that buffer, and swaps the two.
    """

    def __init__(self, ncols: int, field: PrimeField):
        self.field = field
        self.ncols = ncols
        # Limb offsets covering p - 1 (three for p near 2**31), and 2**offset.
        offsets = np.arange(0, max(field.p - 1, 1).bit_length(), _LIMB_BITS)
        self._shifts = offsets[:, None, None]
        self._weights = 2.0**offsets
        self._piv = np.empty(0, dtype=np.int64)
        self._free = np.arange(ncols)
        # r + F = ncols bounds r * F by ncols**2 / 4, so E always fits.
        self._store, self._spare = np.empty((2, ncols * ncols // 4))
        self._E = _view(self._store, (0, ncols))
        self.pivot_rows = np.empty(0, dtype=np.int64)

    @property
    def rank(self) -> int:
        return self._piv.size

    def _weighted(self, a: np.ndarray) -> np.ndarray:
        """a times each limb weight, the thin factor against ``_limbs`` of b.

        For a of k columns holding integers of magnitude below p, column
        l * k + j is a[:, j] * 2**(11 l), below 2**22 * p and exact in
        float64, reduced mod p, so a product with the limbs of b is a @ b.
        """
        x = a[:, None, :] * self._weights[:, None]
        return _center(x, self.field.p).reshape(a.shape[0], -1)

    def _product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b mod p in [0, p), for int64 a and b in [0, p) with a thin."""
        y = np.zeros((a.shape[0], b.shape[1]))
        return _canonical(_submul(y, -self._weighted(a), _limbs(b, self._shifts), self.field.p), self.field.p)

    def _fold(self, cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Folds new pivot rows into the reduced basis; returns the kept columns.

        ``rows`` are on the free columns and reduced against the basis and
        each other: each is 1 at its own pivot, ``cols`` (positions in the
        free set), and 0 at the others.  One product clears their pivots
        from ``E``, and their columns leave the free set; the positions in
        the old free set of the columns that stay are returned.
        """
        p = self.field.p
        keep = np.ones(self._free.size, dtype=bool)
        keep[cols] = False
        kept = np.flatnonzero(keep)
        E = self._E
        r = E.shape[0]
        # E -= E[:, cols] @ rows, in place: rows are the identity at cols, so
        # those columns become 0 mod p and leave, and the kept ones are
        # reduced.  The limb weights go onto the thin factor E[:, cols], so
        # the r x F result is reduced once; the product is written to the
        # spare buffer, also the scratch of its reduction.  A zero thin
        # factor changes nothing.
        thin = E[:, cols]
        if thin.any():
            _submul(E, self._weighted(thin), _limbs(rows, self._shifts), p, _view(self._spare, E.shape))
        new = _view(self._spare, (r + len(cols), kept.size))
        # mode="clip" writes into out directly; "raise" would buffer.
        np.take(E, kept, axis=1, out=new[:r], mode="clip")
        new[r:] = rows[:, kept]
        self._E = new
        self._store, self._spare = self._spare, self._store
        self._piv = np.concatenate([self._piv, self._free[cols]])
        self._free = self._free[kept]
        return kept

    def _reduce(self, B: np.ndarray) -> np.ndarray:
        """The rows of B reduced against the basis, on the free columns."""
        p = self.field.p
        R = B[:, self._free]
        thin = B[:, self._piv]
        if not thin.any():
            return R
        # -(limb l of B[:, piv]) @ E for all limbs in one product, each of
        # magnitude below p / 2 + 2, then summed with weights 2**(11 l):
        # with R added the sum stays below 2**53 and below 2**22 * p.
        limbs = _limbs(thin, self._shifts)
        Y = _submul(np.zeros((limbs.shape[0], R.shape[1])), limbs, self._E, p)
        x = (self._weights @ Y.reshape(self._weights.size, -1)).reshape(R.shape)
        x += R
        return _canonical(_center(x, p), p)

    def _eliminate(self, R: np.ndarray) -> np.ndarray:
        """Blocked Gauss-Jordan of reduced rows; returns the pivot rows of R.

        Each step walks a strip, the first PANEL_ROWS nonzero columns of
        the rows not yet pivots, in row order (``_walk``).  When nonzero
        columns remain right of the strip, an identity appended to it
        records the k x k transform of the walk, which one product then
        applies to the rest of the rows.  The strip's new pivot rows are
        folded into the basis at once (``_fold``), and their columns are
        dropped from the rows still waiting, which the walk left zero on
        the whole strip.  Those rows are walked again on their next strip,
        so a row becomes a pivot exactly when it is outside the span of the
        basis and the rows before it: the pivot rows are the row rank
        profile.
        """
        p = self.field.p
        rest = np.arange(R.shape[0])
        X = R
        found = []
        while rest.size:
            nonzero = np.flatnonzero(np.count_nonzero(X, axis=0))
            if nonzero.size == 0:
                break
            strip = nonzero[:PANEL_ROWS]
            w = strip.size
            more = nonzero.size > w
            # The strip by columns, with the identity below it.
            C = np.concatenate([X.T[strip], np.eye(X.shape[0] if more else 0, X.shape[0], dtype=np.int64)])
            rows, at = _walk(C, w, p)
            if self._piv.size + len(rows) > MAX_BASIS_ROWS:
                raise SizingError(
                    f"rank accumulator basis would exceed {MAX_BASIS_ROWS} rows, "
                    f"the largest basis the kernel supports"
                )
            X[:, strip] = C[:w].T
            if more:
                right = strip[-1] + 1
                X[:, right:] = self._product(C[w:].T, X[:, right:])
            kept = self._fold(strip[at], X[rows])
            found.extend(rest[rows].tolist())
            deferred = np.ones(X.shape[0], dtype=bool)
            deferred[rows] = False
            rest, X = rest[deferred], X[deferred][:, kept]
        return np.sort(np.array(found, dtype=np.int64))

    def absorb(self, block) -> int:
        """Absorb a block of rows; returns the rank of everything so far.

        Also sets ``pivot_rows`` to the block's rows that became pivots.
        The block is eliminated PANEL_ROWS consecutive rows at a time.
        """
        p = self.field.p
        B = np.atleast_2d(np.asarray(block, dtype=np.int64)) % p
        if B.shape[1] != self.ncols:
            raise ValueError(f"expected {self.ncols} columns, got {B.shape[1]}")
        found = [np.empty(0, dtype=np.int64)]
        for lo in range(0, B.shape[0], PANEL_ROWS):
            found.append(lo + self._eliminate(self._reduce(B[lo : lo + PANEL_ROWS])))
        self.pivot_rows = np.concatenate(found)
        return self.rank
