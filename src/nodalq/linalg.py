"""Exact linear algebra over small prime fields and the rationals.

No floating point anywhere.  Prime-field elements are ints in
``range(p)``; rational entries are ``fractions.Fraction``.  Matrices are
immutable and carry their field; zero-by-n shapes are first-class
citizens because representation spaces are often zero-dimensional.

The field kernel is one reduction rule: operations compute with native
``+ - *`` and reduce each output entry once by ``% field.modulus``, which
is p over GF(p).  Every rational is its own residue, so QQ's modulus is an
object whose ``__rmod__`` returns its left operand (``int`` and
``Fraction`` defer to it): ``x % QQ.modulus`` is ``x``, and no matrix
method branches on its field.  ``coerce`` brings outside values in.
One row-by-row elimination, ``Matrix._reduced``, serves rank, rref,
nullspace, column space, ``solve`` and ``inverse``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub
from typing import Iterable, Sequence

SUPPORTED_PRIMES = (2, 3, 5, 7)


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self) -> None:
        if self.p not in SUPPORTED_PRIMES:
            raise ValueError(f"characteristic must be one of {SUPPORTED_PRIMES}, got {self.p}")

    @property
    def modulus(self):
        return self.p

    def coerce(self, x):
        """The residue of an integral value, or of a fraction a/b with p
        not dividing b, which is a times the inverse of b; anything else
        has no residue and raises ValueError."""
        try:
            if x == int(x):
                return int(x) % self.p
        except (TypeError, ValueError, OverflowError):
            pass
        if isinstance(x, Fraction) and x.denominator % self.p:
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        raise ValueError(f"{x!r} has no residue in {self}")

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    @property
    def size(self):
        return self.p

    def elements(self):
        return tuple(range(self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


class _OwnResidue:
    """A modulus under which every value is its own residue."""

    def __rmod__(self, x):
        return x


@dataclass(frozen=True)
class RationalField:
    modulus = _OwnResidue()

    def coerce(self, x):
        return Fraction(x)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    @property
    def size(self):
        return None  # infinite

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


@dataclass(frozen=True)
class Matrix:
    """An immutable matrix over ``field``, stored as a tuple of row tuples.

    The dataclass constructor takes its entries unchecked, because every
    kernel operation builds its result through it; they must already be
    residues (ints in ``range(p)`` over GF(p), ``Fraction``s over QQ).
    ``Matrix(GF(2), 1, 1, ((2,),)).rank()`` raises ZeroDivisionError.
    ``from_rows`` is the checked entry point for outside values.
    """

    field: object
    nrows: int
    ncols: int
    rows: tuple  # tuple of row tuples; empty dims give empty structure

    @staticmethod
    def from_rows(field, rows: Sequence[Sequence]) -> "Matrix":
        coerced = tuple(tuple(field.coerce(x) for x in r) for r in rows)
        nrows = len(coerced)
        ncols = len(coerced[0]) if nrows else 0
        for r in coerced:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        return Matrix(field, nrows, ncols, coerced)

    @staticmethod
    def zeros(field, nrows: int, ncols: int) -> "Matrix":
        return Matrix(field, nrows, ncols, ((field.coerce(0),) * ncols,) * nrows)

    @staticmethod
    def identity(field, n: int) -> "Matrix":
        z, o = field.coerce(0), field.coerce(1)
        return Matrix(
            field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def _entrywise(self, op, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        m = self.field.modulus
        return Matrix(self.field, self.nrows, self.ncols, tuple([
            tuple([x % m for x in map(op, r1, r2)]) for r1, r2 in zip(self.rows, other.rows)
        ]))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(add, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(sub, other)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        if not self.ncols:  # empty sums would be the int 0 over QQ
            return Matrix.zeros(self.field, self.nrows, other.ncols)
        m = self.field.modulus
        cols = list(zip(*other.rows))
        return Matrix(self.field, self.nrows, other.ncols, tuple([
            tuple([sum(map(mul, row, col)) % m for col in cols]) for row in self.rows
        ]))

    def scale(self, c) -> "Matrix":
        c, m = self.field.coerce(c), self.field.modulus
        return Matrix(self.field, self.nrows, self.ncols,
                      tuple([tuple([c * x % m for x in r]) for r in self.rows]))

    def transpose(self) -> "Matrix":
        cols = tuple(zip(*self.rows)) if self.nrows else ((),) * self.ncols
        return Matrix(self.field, self.ncols, self.nrows, cols)

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return Matrix(
            self.field,
            self.nrows,
            self.ncols + other.ncols,
            tuple(r1 + r2 for r1, r2 in zip(self.rows, other.rows)),
        )

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch")
        return Matrix(self.field, self.nrows + other.nrows, self.ncols, self.rows + other.rows)

    def _reduced(self) -> dict:
        """The reduced echelon rows, keyed by their pivot columns.

        Rows are eliminated one at a time against the reduced echelon
        rows kept so far: a row that reduces to zero is dropped, a new
        pivot row clears its column in the rows kept before it.  The
        reduced echelon form is unique, so the order of the rows does
        not change the result.
        """
        f = self.field
        m, n = f.modulus, self.ncols
        reduced = {}  # pivot column -> reduced echelon row with a one there
        for row in self.rows:
            for pc, top in reduced.items():
                c = row[pc]
                if c:
                    row = [(x - c * y) % m for x, y in zip(row, top)]
            for pc, lead in enumerate(row):
                if lead:
                    break
            else:
                continue  # the row reduced to zero
            if lead != 1:
                inv = f.inv(lead)
                row = [inv * x % m for x in row]
            for k, other in reduced.items():
                c = other[pc]
                if c:
                    reduced[k] = [(x - c * y) % m for x, y in zip(other, row)]
            reduced[pc] = row
            if len(reduced) == n:
                break  # every later row reduces to zero
        return reduced

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and pivot column indices."""
        reduced = self._reduced()
        pivots = tuple(sorted(reduced))
        zero = (self.field.coerce(0),) * self.ncols
        rows = tuple([tuple(reduced[pc]) for pc in pivots])
        rows += (zero,) * (self.nrows - len(rows))
        return Matrix(self.field, self.nrows, self.ncols, rows), pivots

    def rank(self) -> int:
        return len(self._reduced())

    def nullspace(self) -> tuple[tuple, ...]:
        """Basis of the right kernel, one vector per free column.

        The basis is in echelon convention: vector ``t`` has a one in
        the ``t``-th free column and zeros in the other free columns.
        """
        f, n = self.field, self.ncols
        reduced = self._reduced()
        if len(reduced) == n:
            return ()
        z, o, m = f.coerce(0), f.coerce(1), f.modulus
        basis = []
        for fc in range(n):
            if fc not in reduced:
                v = [z] * n
                v[fc] = o
                for pc, top in reduced.items():
                    v[pc] = -top[fc] % m
                basis.append(tuple(v))
        return tuple(basis)

    def column_space_basis(self) -> "Matrix":
        """Matrix whose columns are the pivot columns (echelon convention)."""
        # row space of the transpose = column space; its reduced echelon
        # rows, in pivot order, are the columns of an echelon basis
        rows = [row for _, row in sorted(self.transpose()._reduced().items())]
        return Matrix(self.field, self.nrows, len(rows), tuple(zip(*rows)) or ((),) * self.nrows)

    def solve(self, b: "Matrix"):
        """One solution ``x`` of ``self @ x = b`` (column-wise): each reduced
        row of [self | b] puts its b-part at its pivot, and the free columns
        get zero.  None when a pivot lands in the b-part."""
        if b.nrows != self.nrows:
            raise ValueError("shape mismatch in solve")
        n = self.ncols
        reduced = self.hstack(b)._reduced()
        if any(pc >= n for pc in reduced):
            return None
        rows = [(self.field.coerce(0),) * b.ncols] * n
        for pc, row in reduced.items():
            rows[pc] = tuple(row[n:])
        return Matrix(self.field, n, b.ncols, tuple(rows))

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self) -> "Matrix":
        """The solution of ``self @ x = 1``."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        x = self.solve(Matrix.identity(self.field, self.nrows))
        if x is None:
            raise ValueError("matrix is singular")
        return x


def block_diag(field, blocks: Iterable[Matrix]) -> Matrix:
    blocks = list(blocks)
    nr = sum(b.nrows for b in blocks)
    nc = sum(b.ncols for b in blocks)
    z = field.coerce(0)
    r0, c0 = 0, 0
    grid = [[z] * nc for _ in range(nr)]
    for b in blocks:
        for i in range(b.nrows):
            grid[r0 + i][c0:c0 + b.ncols] = b.rows[i]
        r0 += b.nrows
        c0 += b.ncols
    return Matrix(field, nr, nc, tuple(map(tuple, grid)))


def all_matrices(field, nrows: int, ncols: int):
    """All matrices of a shape over a finite field, lexicographically."""
    cells = nrows * ncols
    for flat in itertools.product(field.elements(), repeat=cells):
        rows = tuple(flat[i * ncols:(i + 1) * ncols] for i in range(nrows))
        yield Matrix(field, nrows, ncols, rows)


def rank_forms(field, nrows, ncols):
    """The matrices [[I_r, 0], [0, 0]], r = 0..min(nrows, ncols): one per
    orbit of GL(nrows) x GL(ncols) acting by base change at both ends."""
    z, o = field.coerce(0), field.coerce(1)
    for r in range(min(nrows, ncols) + 1):
        rows = tuple(
            tuple(o if i == j < r else z for j in range(ncols)) for i in range(nrows)
        )
        yield Matrix(field, nrows, ncols, rows)


def _monic(field, degree):
    """Monic polynomials of a degree, as coefficient tuples lowest first."""
    for low in itertools.product(field.elements(), repeat=degree):
        yield low + (field.coerce(1),)


def _poly_mul(field, f, g):
    out = [field.coerce(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    m = field.modulus
    return tuple(x % m for x in out)


def _companion(field, f) -> Matrix:
    """Companion matrix of a monic polynomial: ones below the diagonal,
    minus the lower coefficients in the last column."""
    n = len(f) - 1
    z, o, m = field.coerce(0), field.coerce(1), field.modulus
    rows = tuple(
        tuple(o if j == i - 1 else z for j in range(n - 1)) + (-f[i] % m,)
        for i in range(n)
    )
    return Matrix(field, n, n, rows)


def similarity_forms(field, n):
    """Rational canonical forms of n x n matrices, one per similarity
    class: the block-diagonal companion matrices of the invariant factor
    chains f_1 | f_2 | ... of monic polynomials whose degrees sum to n.
    Each chain is f_1 followed by multiples f_{k+1} = f_k g."""
    stack = [((), n)]  # (chain so far, degrees left)
    while stack:
        chain, left = stack.pop()
        if left == 0:
            yield block_diag(field, [_companion(field, f) for f in chain])
            continue
        if chain:
            last = chain[-1]
            grown = (
                _poly_mul(field, last, g)
                for e in range(left - len(last) + 2)
                for g in _monic(field, e)
            )
        else:
            grown = (f for e in range(1, left + 1) for f in _monic(field, e))
        stack.extend((chain + (f,), left - len(f) + 1) for f in grown)
