"""Exact dense linear algebra over a field tag.

All routines take the field as first argument and work on `Matrix` values
produced by the field's constructors. Every result is a new `Matrix`;
nothing is modified. The kernels run on Python ints, which cannot wrap: the
field's `ints` turns rows of field elements into ints over a common scale and
its `elements` turns ints back, so no routine here knows how Q or F_p is
encoded.

`rref`, `rank`, `nullspace`, `det` and `inv` derive from one Gauss-Jordan
elimination, `_eliminate`. Its entry is a matrix as rows of field elements
and a width: the routines here pass a matrix's rows, and `rep` passes the
Hom/Ext^1 system it builds as rows; `_kernel` reads a kernel basis off it.
The field's characteristic chooses the elimination step: in characteristic
p it works mod p, scaling each pivot row to a leading 1; in characteristic 0
it runs fraction-free Gauss-Jordan (Bareiss 1968): each step divides exactly
by the previous pivot, so every entry stays an integer minor of the scaled
matrix, and the rref is the result divided by the last pivot. Elimination
uses the first nonzero pivot in each column, so every result is
deterministic. For an m x n matrix with m <= n, `_eliminate` also reports
the determinant of the leading m x m block: that block is invertible exactly
when the pivots are the columns 0..m-1, and then its determinant is read off
the pivots. So `_det_inv` takes the determinant and the inverse of a square
matrix A from one elimination of [A | I]; `inv`,
`localization.check_localized_point` and `rep.GroupElement` use it.

`matmul` and `_product_is_identity` share `_product`: each factor is put on
one scale once, and each entry of the product is one sum of Python-int
products, turned into a field element once, so an entry over Q costs one
normalisation instead of a `Fraction` multiply and add per term.
`_product_is_identity` compares those elements with the identity's without
building a `Matrix`.
"""
from __future__ import annotations

from math import prod
from operator import mul

from .fields import Field, Matrix


def matmul(field: Field, a: Matrix, b: Matrix) -> Matrix:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    m, n = a.shape[0], b.shape[1]
    d, sums = _product(field, a, b)
    flat = field.elements(sums, d)
    return Matrix(tuple([flat[i * n:(i + 1) * n] for i in range(m)]), (m, n))


def _product(field: Field, a: Matrix, b: Matrix) -> tuple[int, list[int]]:
    """(d, sums): the entries of a b, row by row, are sums / d. With a = A / e
    and b = B / f (`field.ints`), d = e f and each sum is one integer dot
    product of a row of A with a column of B."""
    k, n = b.shape
    e, xs = field.ints([x for row in a.rows for x in row])
    f, ys = field.ints([x for row in b.rows for x in row])
    rows = [xs[i * k:(i + 1) * k] for i in range(a.shape[0])]
    cols = [ys[c::n] for c in range(n)]
    return e * f, [sum(map(mul, row, col)) for row in rows for col in cols]


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
    """Gauss-Jordan elimination of the m x n matrix given as m rows of n field
    elements. `rows` is not modified.

    Returns (rows, d, pivots, det): the rref of the matrix is rows / d, rows
    and d Python ints, pivots are its pivot columns, and det is the determinant
    of its leading m x m block when m <= n (None when m > n).
    """
    m = len(rows)
    p = field.p
    scaled = list(map(field.ints, rows))
    scale = prod(d for d, _ in scaled)
    rows = [ns for _, ns in scaled]
    sign = prev = 1   # prev: over F_p the product of the pivots, else the last pivot
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
        if p:
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
    else:
        det = field.elements((sign * prev,), scale)[0]
    return rows, 1 if p else prev, pivots, det


def _kernel(field: Field, rows, n: int) -> Matrix:
    """Basis of the right kernel of the matrix given as rows (the entry format of
    `_eliminate`), as the rows of a (dim, n) `Matrix`: one vector per free
    column f of the rref R, with 1 at f and -R[i, f] at the i-th pivot."""
    red, d, pivots, _ = _eliminate(field, rows, n)
    pivot_cols = set(pivots)
    basis = []
    for f in range(n):
        if f not in pivot_cols:
            v = [0] * n
            v[f] = d
            for i, c in enumerate(pivots):
                v[c] = -red[i][f]
            basis.append(field.elements(v, d))
    return Matrix(tuple(basis), (len(basis), n))


def rref(field: Field, a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column list."""
    rows, d, pivots, _ = _eliminate(field, a.rows, a.shape[1])
    return Matrix(tuple([field.elements(row, d) for row in rows]), a.shape), pivots


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
    return det, Matrix(tuple([field.elements(row[n:], d) for row in rows]), (n, n))


def _product_is_identity(field: Field, a: Matrix, b: Matrix) -> bool:
    """Whether a b is the identity matrix, decided with the arithmetic of
    `matmul` and without building the product `Matrix`."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    n = a.shape[0]
    if b.shape[1] != n:
        return False
    d, sums = _product(field, a, b)
    flat = field.elements(sums, d)
    return flat[::n + 1] == (field.one,) * n and flat.count(field.zero) == n * n - n


def is_zero(field: Field, a: Matrix) -> bool:
    return not any(map(any, a.rows))


def equal(field: Field, a: Matrix, b: Matrix) -> bool:
    return a.shape == b.shape and a.rows == b.rows
