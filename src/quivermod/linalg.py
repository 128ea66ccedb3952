"""Exact dense linear algebra over a field tag.

The public routines take the field as first argument and work on `Matrix`
values produced by the field's constructors. Every result is a new `Matrix`;
nothing is modified. The kernels run on Python ints, which cannot wrap, in
the field's encoding: a matrix is a list of encoded rows (d, ns), the row
being ns / d, as the field's `ints` and `encode` give them, and the field's
`elements` turns ints back. No routine here knows how Q or F_p is encoded,
and a caller that already holds encoded rows (`localization`'s evaluated
sigmas) passes them from one kernel to the next without building field
elements in between.

`rref`, `rank`, `nullspace`, `det` and `inv` derive from one Gauss-Jordan
elimination, `_eliminate`. Its entry is a matrix as encoded rows and a
width: the routines here encode a matrix's rows first, `rep` builds the
Hom/Ext^1 system as integer rows (over F_p in (-p, p)), and `localization`
passes an evaluated sigma; `_kernel` reads a kernel basis off it. The
field's characteristic chooses the elimination step: in characteristic p it
works mod p, scaling each pivot row to a leading 1; in characteristic 0 it
runs fraction-free Gauss-Jordan (Bareiss 1968): each step divides exactly by
the previous pivot, so every entry stays an integer minor of the scaled
matrix, and the rref is the result divided by the last pivot. Scaling a row
changes neither the rref nor the pivots, and the determinant is divided by
the rows' scales once, at the end. Elimination uses the first nonzero pivot
in each column, so every result is deterministic. For an m x n matrix with
m <= n, `_eliminate` also reports the determinant of the leading m x m
block: that block is invertible exactly when the pivots are the columns
0..m-1, and then its determinant is read off the pivots. So `_det_inv`
takes the determinant and the inverse of a square matrix A from one
elimination of [A | I], and gives the inverse as encoded rows; `inv`,
`localization.check_localized_point` and `rep.GroupElement` use it, and
`_matrix` turns encoded rows into a `Matrix`.

`matmul(field, first, *rest)` multiplies a chain of matrices on ints and
builds field elements only for the last product, so an entry over Q costs one
normalisation instead of a `Fraction` multiply and add per term; `rep.act`
and `rep.evaluate_path` call it with three factors and a path's matrices.
`_product_is_identity` decides whether the product of two encoded square
matrices is the identity on ints, building no field element: over Q it
checks A R = L d I for rows A_i / l_i and R / d, over F_p the same mod p.
"""
from __future__ import annotations

from math import lcm, prod
from operator import mul

from .fields import Field, Matrix


def matmul(field: Field, first: Matrix, *rest: Matrix) -> Matrix:
    """The product first rest[0] rest[1] ..., left to right; `ValueError` when
    the shapes do not chain. With each factor an integer matrix over one scale
    (`field.ints`), every partial product is an integer matrix whose scale is
    the product of the factors' scales; only the last one becomes field elements."""
    m, k = first.shape
    d, xs = field.ints([x for row in first.rows for x in row])
    for b in rest:
        if b.shape[0] != k:
            raise ValueError(f"shape mismatch {(m, k)} @ {b.shape}")
        n = b.shape[1]
        f, ys = field.ints([x for row in b.rows for x in row])
        rows = [xs[i * k:(i + 1) * k] for i in range(m)]
        cols = [ys[c::n] for c in range(n)]
        d, k, xs = d * f, n, [sum(map(mul, row, col)) for row in rows for col in cols]
    flat = field.elements(xs, d)
    return Matrix(tuple([flat[i * k:(i + 1) * k] for i in range(m)]), (m, k))


def _matrix(field: Field, rows, n: int) -> Matrix:
    """The `Matrix` of n columns whose rows are the encoded rows (d, ns)."""
    return Matrix(tuple([field.elements(ns, d) for d, ns in rows]), (len(rows), n))


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
    """Gauss-Jordan elimination of the m x n matrix given as m encoded rows
    (d, ns) of n ints, the row being ns / d in the field's encoding; over F_p
    the ns may be any ints in (-p, p): such an int is zero in F_p only when it
    is 0, and the loop reduces mod p what it computes. `rows` is not modified.

    Returns (rows, d, pivots, det): the rref of the matrix is rows / d, rows
    and d Python ints, pivots are its pivot columns, and det is the determinant
    of its leading m x m block when m <= n (None when m > n).
    """
    m = len(rows)
    p = field.p
    scale = prod(d for d, _ in rows)
    rows = [ns for _, ns in rows]
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
    """Basis of the right kernel of the matrix given as encoded rows (the entry
    format of `_eliminate`), as the rows of a (dim, n) `Matrix`: one vector per
    free column f of the rref R, with 1 at f and -R[i, f] at the i-th pivot."""
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


def _encoded(field: Field, a: Matrix) -> list:
    """The rows of `a` in the field's encoding, the entry format of `_eliminate`."""
    return list(map(field.ints, a.rows))


def rref(field: Field, a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column list."""
    rows, d, pivots, _ = _eliminate(field, _encoded(field, a), a.shape[1])
    return Matrix(tuple([field.elements(row, d) for row in rows]), a.shape), pivots


def rank(field: Field, a: Matrix) -> int:
    return len(_eliminate(field, _encoded(field, a), a.shape[1])[2])


def nullspace(field: Field, a: Matrix) -> list[tuple]:
    """Basis vectors (tuples of field elements) of the right kernel of `a`."""
    return list(_kernel(field, _encoded(field, a), a.shape[1]))


def det(field: Field, a: Matrix):
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"determinant of non-square {a.shape} matrix")
    return _eliminate(field, _encoded(field, a), a.shape[1])[3]


def inv(field: Field, a: Matrix) -> Matrix:
    if a.shape[0] != a.shape[1]:
        raise ValueError("inverse of non-square matrix")
    inverse = _det_inv(field, _encoded(field, a))[1]
    if inverse is None:
        raise ZeroDivisionError("matrix is singular")
    return _matrix(field, inverse, a.shape[0])


def _det_inv(field: Field, rows):
    """(det a, a^-1) for the square matrix a given as n encoded rows, from one
    elimination of [a | I]: a row ns / d of a becomes ns + d e_i over d. The
    inverse is n encoded rows over one scale, None when det a = 0."""
    n = len(rows)
    aug = [(d, list(ns) + [0] * i + [d] + [0] * (n - 1 - i)) for i, (d, ns) in enumerate(rows)]
    red, d, _, det = _eliminate(field, aug, 2 * n)
    if not det:
        return det, None
    return det, [(d, row[n:]) for row in red]


def _product_is_identity(field: Field, a, b) -> bool:
    """Whether a b is the identity, for a and b given as encoded rows, on ints:
    with b put on one scale f, B / f, and row i of a as ns_i / d_i, a b = I
    when every ns_i B - d_i f e_i is zero in the field (over F_p, mod p). A row
    of a whose length is not the number of rows of b raises `ValueError`, as
    `matmul` does."""
    k = len(b)
    if any(len(ns) != k for _, ns in a):
        raise ValueError(f"shape mismatch: rows of a do not have {k} entries")
    f = lcm(*[d for d, _ in b])
    cols = list(zip(*[ns if d == f else [x * (f // d) for x in ns] for d, ns in b]))
    n = len(cols)
    if n != len(a):
        return False
    diffs = [sum(map(mul, ns, col)) for _, ns in a for col in cols]
    for i, (d, _) in enumerate(a):
        diffs[i * (n + 1)] -= d * f
    return not any(field.encode(diffs, 1)[1])


def is_zero(field: Field, a: Matrix) -> bool:
    return not any(map(any, a.rows))


def equal(field: Field, a: Matrix, b: Matrix) -> bool:
    return a.shape == b.shape and a.rows == b.rows
