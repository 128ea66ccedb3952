"""Exact dense linear algebra over a field tag.

All routines take the field as first argument and work on `Matrix` values
produced by the field's constructors: rows of ints in 0..p-1 over F_p, rows of
`Fraction`s over Q. Every result is a new `Matrix`; nothing is modified.

`rref`, `rank`, `nullspace`, `det` and `inv` derive from one Gauss-Jordan
elimination, `_eliminate`, on Python ints, which cannot wrap. Its entry is a
matrix as rows of field elements and a width: the routines here pass a
matrix's rows, and `rep` passes the Hom/Ext^1 system it builds as rows;
`_kernel` reads a kernel basis off it. Over F_p it works mod p, scaling each
pivot row to a leading 1. Over Q it first scales each row by the lcm of its
denominators and then runs fraction-free Gauss-Jordan (Bareiss 1968): each
step divides exactly by the previous pivot, so every entry stays an integer
minor of the scaled matrix, and the rref is the result divided by the last
pivot. Elimination uses the first nonzero pivot in each column, so every
result is deterministic. For an m x n matrix with m <= n, `_eliminate` also
reports the determinant of the leading m x m block: that block is invertible
exactly when the pivots are the columns 0..m-1, and then its determinant is
read off the pivots. So `_det_inv` takes the determinant and the inverse of
a square matrix A from one elimination of [A | I]; `inv`,
`localization.check_localized_point` and `rep.GroupElement` use it.
`_product_is_identity` decides whether a product is the identity with the
arithmetic of `matmul`, without building the product.

`matmul` forms each entry as one sum of Python-int products. Over F_p the
sum is reduced mod p, so it is exact for every prime below 2^31. Over Q each
row of the left factor and each column of the right one is first scaled to
integers by the lcm of its denominators, and the sum becomes one `Fraction`
over the product of the two scales, so an entry costs one normalisation
instead of a `Fraction` multiply and add per term.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul

from .fields import Field, Matrix, PrimeField


def matmul(field: Field, a: Matrix, b: Matrix) -> Matrix:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    if a.shape[1] == 0:
        return field.zeros(a.shape[0], b.shape[1])
    cols = list(zip(*b.rows))
    if isinstance(field, PrimeField):
        p = field.p
        rows = [tuple([sum(map(mul, row, col)) % p for col in cols]) for row in a.rows]
    else:
        zero = Fraction(0)
        cols = [_scaled(col) for col in cols]
        rows = []
        for da, row in map(_scaled, a.rows):
            rows.append(tuple([Fraction(s, da * db) if (s := sum(map(mul, row, col))) else zero
                               for db, col in cols]))
    return Matrix(tuple(rows), (a.shape[0], b.shape[1]))


def _scaled(xs) -> tuple[int, list[int]]:
    """(d, ns) with xs = ns / d entrywise: d the lcm of the denominators of the
    rationals xs, ns Python ints."""
    d = lcm(*[x.denominator for x in xs])
    return d, [x.numerator * (d // x.denominator) for x in xs]


def transpose(field: Field, a: Matrix) -> Matrix:
    rows = tuple(zip(*a.rows)) if a.shape[0] else ((),) * a.shape[1]
    return Matrix(rows, (a.shape[1], a.shape[0]))


def kron(field: Field, a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product. The package itself no longer calls it; it stays because
    bench/tracing.py wraps every linalg name it lists, this one included."""
    rows = tuple(tuple(field.mul(x, y) for x in ra for y in rb)
                 for ra in a.rows for rb in b.rows)
    return Matrix(rows, (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]))


def block_diag(field: Field, blocks) -> Matrix:
    blocks = list(blocks)
    cols = sum(b.shape[1] for b in blocks)
    zero = field.zero
    rows = []
    c = 0
    for b in blocks:
        left, right = (zero,) * c, (zero,) * (cols - c - b.shape[1])
        rows.extend(left + row + right for row in b.rows)
        c += b.shape[1]
    return Matrix(tuple(rows), (len(rows), cols))


def _eliminate(field: Field, rows, n: int):
    """Gauss-Jordan elimination of the m x n matrix given as m rows of n entries:
    over F_p ints in 0..p-1, over Q `Fraction`s (or ints). `rows` is not modified.

    Returns (rows, d, pivots, det): the rref of the matrix is rows / d (d = 1
    over F_p), pivots are its pivot columns, and det is the determinant of its
    leading m x m block when m <= n (None when m > n).
    """
    m = len(rows)
    modular = isinstance(field, PrimeField)
    if modular:
        p = field.p
        rows = list(rows)
        scale = 1
    else:
        scaled = list(map(_scaled, rows))
        scale = prod(s for s, _ in scaled)
        rows = [row for _, row in scaled]
    sign = prev = 1   # prev: over F_p the product of the pivots, over Q the last pivot
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        for pr in range(r, m):
            if rows[pr][c]:
                break
        else:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        top = rows[r]
        piv = top[c]
        if modular:
            prev = prev * piv % p
            if piv != 1:
                inv_piv = pow(piv, -1, p)
                top = rows[r] = [x * inv_piv % p for x in top]
            for i, row in enumerate(rows):
                f = row[c]
                if f and i != r:
                    rows[i] = [(x - f * y) % p for x, y in zip(row, top)]
        else:
            for i, row in enumerate(rows):
                if i != r:
                    f = row[c]
                    rows[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
            prev = piv
        pivots.append(c)
    if m > n:
        det = None
    elif m and not (len(pivots) == m and pivots[-1] == m - 1):
        det = field.zero   # the leading block is singular: its pivots are not 0..m-1
    elif modular:
        det = sign * prev % p
    else:
        det = Fraction(sign * prev, scale)
    return rows, 1 if modular else prev, pivots, det


def _divided(field: Field, rows, d: int, cols: int) -> Matrix:
    """The matrix rows / d, rows as `_eliminate` returns them, as a `Matrix`."""
    if isinstance(field, PrimeField):
        return Matrix(tuple(map(tuple, rows)), (len(rows), cols))
    zero = Fraction(0)
    return Matrix(tuple(tuple([Fraction(x, d) if x else zero for x in row]) for row in rows),
                  (len(rows), cols))


def _kernel(field: Field, rows, n: int) -> Matrix:
    """Basis of the right kernel of the matrix given as rows (the entry format of
    `_eliminate`), as the rows of a (dim, n) `Matrix`: one vector per free
    column f of the rref R, with 1 at f and -R[i, f] at the i-th pivot."""
    red, d, pivots, _ = _eliminate(field, rows, n)
    pivot_cols = set(pivots)
    free = [c for c in range(n) if c not in pivot_cols]
    p = field.p if isinstance(field, PrimeField) else 0
    zero, one = field.zero, field.one
    basis = []
    for f in free:
        v = [zero] * n
        v[f] = one
        for i, c in enumerate(pivots):
            x = red[i][f]
            if x:
                v[c] = -x % p if p else Fraction(-x, d)
        basis.append(tuple(v))
    return Matrix(tuple(basis), (len(basis), n))


def rref(field: Field, a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column list."""
    rows, d, pivots, _ = _eliminate(field, a.rows, a.shape[1])
    return _divided(field, rows, d, a.shape[1]), pivots


def rank(field: Field, a: Matrix) -> int:
    return len(_eliminate(field, a.rows, a.shape[1])[2])


def nullspace(field: Field, a: Matrix) -> list[tuple]:
    """Basis vectors (tuples of field elements) of the right kernel of `a`."""
    return list(_kernel(field, a.rows, a.shape[1]))


def det(field: Field, a: Matrix):
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"determinant of non-square {a.shape} matrix")
    return _eliminate(field, a.rows, a.shape[1])[3]


def inv(field: Field, a: Matrix) -> Matrix:
    if a.shape[0] != a.shape[1]:
        raise ValueError("inverse of non-square matrix")
    inverse = _det_inv(field, a)[1]
    if inverse is None:
        raise ZeroDivisionError("matrix is singular")
    return inverse


def _det_inv(field: Field, a: Matrix):
    """(det a, a^-1) for a square `a`, from one elimination of [a | I]; the
    inverse is None when det a = 0."""
    n = a.shape[0]
    zero, one = field.zero, field.one
    aug = [row + (zero,) * i + (one,) + (zero,) * (n - 1 - i)
           for i, row in enumerate(a.rows)]
    rows, d, _, det = _eliminate(field, aug, 2 * n)
    if not det:
        return det, None
    return det, _divided(field, [row[n:] for row in rows], d, n)


def _product_is_identity(field: Field, a: Matrix, b: Matrix) -> bool:
    """Whether a b is the identity matrix, decided entry by entry with the
    arithmetic of `matmul` and without building the product: each entry is one
    integer dot product, compared over F_p with 0 or 1 mod p, and over Q with 0
    or with the product of its row's and column's scales."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    n = a.shape[0]
    if b.shape[1] != n:
        return False
    if a.shape[1] == 0:
        return n == 0   # the product is the n x n zero matrix
    cols = list(zip(*b.rows))
    if isinstance(field, PrimeField):
        p = field.p
        for r, row in enumerate(a.rows):
            sums = [sum(map(mul, row, col)) % p for col in cols]
            if sums[r] != 1 or sums.count(0) != n - 1:
                return False
        return True
    cols = [_scaled(col) for col in cols]
    for r, (da, row) in enumerate(map(_scaled, a.rows)):
        sums = [sum(map(mul, row, col)) for _, col in cols]
        if sums[r] != da * cols[r][0] or sums.count(0) != n - 1:
            return False
    return True


def is_zero(field: Field, a: Matrix) -> bool:
    return not any(map(any, a.rows))


def equal(field: Field, a: Matrix, b: Matrix) -> bool:
    return a.shape == b.shape and a.rows == b.rows
