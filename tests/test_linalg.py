from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from nodalq import GF, QQ, Matrix, SUPPORTED_PRIMES
from nodalq.linalg import all_matrices, block_diag
from util import DispatchMatrix, DispatchPrimeField, DispatchRationalField


def test_prime_field_arithmetic():
    f = GF(7)
    assert f.modulus == 7
    assert (5 + 4) % f.modulus == 2
    assert 3 * 5 % f.modulus == 1
    assert -2 % f.modulus == 5
    assert f.inv(3) == 5
    assert f.coerce(-1) == 6
    assert f.size == 7
    assert sorted(f.elements()) == list(range(7))
    with pytest.raises(ValueError):
        GF(6)
    assert GF(2) == GF(2) and GF(2) != GF(3)
    assert set(SUPPORTED_PRIMES) >= {2, 3, 5, 7}


def test_prime_field_coerce_is_exact():
    assert GF(3).coerce(Fraction(1, 2)) == 2
    assert GF(7).coerce(Fraction(-3, 5)) == 5
    assert GF(5).coerce(Fraction(-6)) == 4
    assert GF(2).coerce(3.0) == 1
    refused = ((GF(2), 1.7), (GF(3), 0.5), (GF(3), Fraction(1, 3)), (GF(7), Fraction(2, 7)))
    for field, bad in refused:
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            field.coerce(bad)
    assert Matrix.from_rows(GF(3), [[Fraction(1, 2), 2]]).rows == ((2, 2),)
    with pytest.raises(ValueError, match="0.5"):
        Matrix.from_rows(GF(3), [[Fraction(1, 2), 0.5]])


def test_prime_field_coerce_refuses_with_value_error_only():
    # int() of these raises OverflowError, TypeError or ValueError; the
    # field turns each into one ValueError that names it
    for p in SUPPORTED_PRIMES:
        for bad in (float("inf"), float("-inf"), float("nan"), None, "a", "1", [1], object()):
            with pytest.raises(ValueError, match=re.escape(f"has no residue in GF({p})")):
                GF(p).coerce(bad)


def test_rational_field_is_exact():
    v = QQ.coerce(1)
    third = v * QQ.inv(QQ.coerce(3)) % QQ.modulus
    assert third == Fraction(1, 3)
    assert (third + third) % QQ.modulus == Fraction(2, 3)
    assert QQ.size is None


def test_matrix_shapes_and_products():
    f = GF(2)
    a = Matrix.from_rows(f, [[1, 0], [1, 1]])
    b = Matrix.from_rows(f, [[0, 1], [1, 0]])
    assert (a * b).rows == ((0, 1), (1, 1))
    assert (a + b).rows == ((1, 1), (0, 1))
    assert a.transpose().rows == ((1, 1), (0, 1))
    assert Matrix.identity(f, 2) * a == a
    assert a.hstack(b).shape == (2, 4)
    assert a.vstack(b).shape == (4, 2)
    with pytest.raises(ValueError):
        a * Matrix.zeros(f, 3, 3)


def test_rref_rank_and_inverse():
    f = GF(5)
    m = Matrix.from_rows(f, [[1, 2, 3], [2, 4, 1], [0, 0, 1]])
    r, pivots = m.rref()
    assert pivots == (0, 2)
    assert m.rank() == 2
    assert not m.is_invertible()
    g = Matrix.from_rows(f, [[1, 1], [0, 1]])
    assert g.is_invertible()
    assert g * g.inverse() == Matrix.identity(f, 2)
    q = Matrix.from_rows(QQ, [[Fraction(1, 2), 1], [0, 2]])
    assert (q * q.inverse()) == Matrix.identity(QQ, 2)


def test_nullspace_and_solve():
    f = GF(3)
    m = Matrix.from_rows(f, [[1, 2, 0], [0, 0, 1]])
    (vec,) = m.nullspace()
    # echelon convention: free coordinate set to one
    assert list(vec) == [1, 1, 0]
    b = Matrix.from_rows(f, [[2], [1]])
    x = m.solve(b)
    assert x is not None and (m * x) == b
    unsolvable = Matrix.from_rows(f, [[1], [0], [0]])
    assert Matrix.from_rows(f, [[1], [1], [0]]).solve(unsolvable) is None
    col = m.column_space_basis()
    assert col.shape == (2, 2) and col.rank() == 2


def test_zero_dimension_edges():
    f = GF(2)
    z = Matrix.zeros(f, 0, 3)
    assert z.rank() == 0
    assert len(z.nullspace()) == 3
    tall = Matrix.zeros(f, 3, 0)
    assert tall.nullspace() == ()
    assert tall.column_space_basis().shape == (3, 0)
    assert Matrix.identity(f, 0).is_invertible()
    # solving with no unknowns succeeds only on a zero target
    assert tall.solve(Matrix.zeros(f, 3, 1)) is not None
    assert tall.solve(Matrix.from_rows(f, [[1], [0], [0]])) is None


def test_block_diag_and_enumeration():
    f = GF(2)
    a = Matrix.from_rows(f, [[1]])
    b = Matrix.from_rows(f, [[0, 1]])
    d = block_diag(f, [a, b])
    assert d.shape == (2, 3)
    assert d.rows == ((1, 0, 0), (0, 0, 1))
    assert len(list(all_matrices(f, 2, 2))) == 16
    assert len(list(all_matrices(GF(3), 1, 2))) == 9



def _random_entries(rng, field, nrows, ncols):
    # zeros are common so that ranks drop and pivots get skipped
    def entry():
        if rng.random() < 0.4:
            return 0
        if field.size:
            return rng.randrange(field.size)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def _outcome(compute):
    """An operation's result as (shape data, field entries), so that two
    kernels can be compared and the types of the entries checked."""
    try:
        got = compute()
    except (ValueError, ZeroDivisionError) as e:
        return (type(e).__name__, str(e)), ()
    pivots = None
    if isinstance(got, tuple) and len(got) == 2 and hasattr(got[0], "rows"):
        got, pivots = got  # rref
    if hasattr(got, "rows"):
        return (got.shape, pivots), tuple(x for r in got.rows for x in r)
    if isinstance(got, tuple):  # nullspace vectors
        return len(got), tuple(x for v in got for x in v)
    return got, ()


def _low_rank_entries(rng, field, nrows, ncols):
    """Entries of rank below min(nrows, ncols) where that is positive: a
    product of thin random factors, with some rows zeroed."""
    inner = rng.randrange(max(1, min(nrows, ncols)))
    left = _random_entries(rng, field, nrows, inner)
    right = _random_entries(rng, field, inner, ncols)
    rows = [[sum((x * y for x, y in zip(row, col)), 0) for col in zip(*right)] if right
             else [0] * ncols for row in left]
    for row in rows:
        if rng.random() < 0.3:
            row[:] = [0] * ncols
    return rows


def _assert_kernels_agree(rng, field, oracle, first):
    """Every ``Matrix`` operation gives the dispatch oracle's result on
    random operands, the first of them drawn by ``first``."""
    r, c, k = (rng.randrange(6) for _ in range(3))
    a = first(rng, field, r, c)
    b, sq = (_random_entries(rng, field, r, n) for n in (c, r))
    right, rhs = _random_entries(rng, field, c, k), _random_entries(rng, field, r, k)
    s = rng.randrange(-7, 15) if field.size else Fraction(rng.randint(-4, 4), 3)
    results = []
    for f, cls in ((field, Matrix), (oracle, DispatchMatrix)):
        def make(rows, n, f=f, cls=cls):
            return cls.from_rows(f, rows) if rows else cls.zeros(f, 0, n)

        ma, mb, msq = make(a, c), make(b, c), make(sq, r)
        mr, mrhs = make(right, k), make(rhs, k)
        empty = cls.zeros(f, r, 0), cls.zeros(f, 0, k)
        results.append([_outcome(op) for op in (
            lambda: ma + mb, lambda: ma - mb, lambda: ma * mr, lambda: ma.scale(s),
            lambda: empty[0] * empty[1], ma.transpose, ma.rref, ma.rank, ma.nullspace,
            ma.column_space_basis, lambda: ma.solve(mrhs), ma.inverse, msq.inverse,
            ma.is_zero, ma.is_invertible, msq.is_invertible,
        )])
    assert results[0] == results[1], (field, a, b, right, rhs, s, sq)
    for _, entries in results[0]:
        for x in entries:
            if field.size:
                assert type(x) is int and 0 <= x < field.size, (field, x)
            else:
                assert type(x) is Fraction, (field, x)
    return a


def test_reduction_kernel_matches_dispatch_oracle():
    rng = random.Random(20260218)
    fields = [(GF(p), DispatchPrimeField(p)) for p in SUPPORTED_PRIMES]
    fields.append((QQ, DispatchRationalField()))
    for field, oracle in fields:
        for _ in range(150):
            _assert_kernels_agree(rng, field, oracle, _random_entries)
    # low rank: rows that reduce to zero, and pivots that later rows
    # reduce back
    dropped = 0
    for field, oracle in fields:
        for _ in range(150):
            a = _assert_kernels_agree(rng, field, oracle, _low_rank_entries)
            dropped += bool(a) and Matrix.from_rows(field, a).rank() < min(len(a), len(a[0]))
    assert dropped > 300, dropped
