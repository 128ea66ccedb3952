import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quivermod import QQ, PrimeField
from quivermod.fields import FieldError, _is_prime
from quivermod import linalg

BIG = 2**31 - 1  # the largest prime PrimeField accepts


def test_prime_field_validation():
    with pytest.raises(FieldError):
        PrimeField(4)
    with pytest.raises(FieldError):
        PrimeField(2**31 + 11)
    assert PrimeField(7).coerce(Fraction(1, 3)) == 5  # 3*5 = 15 = 1 mod 7
    assert PrimeField(7).mul(5, 3) == 1
    assert PrimeField(BIG).mul(BIG - 1, BIG - 1) == 1


@pytest.mark.parametrize("p", [2, 3, 101, BIG])
def test_prime_field_coerce_matches_fermat_inverse(p):
    """coerce inverts the denominator with pow(d, -1, p); the residue is the
    one Fermat's pow(d, p - 2, p) gives, and a denominator p divides raises."""
    f = PrimeField(p)
    rng = random.Random(p)
    for _ in range(300):
        q = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
        if q.denominator % p:
            want = q.numerator % p * pow(q.denominator % p, p - 2, p) % p
            assert f.coerce(q) == f.coerce(str(q)) == want
        else:
            with pytest.raises(FieldError):
                f.coerce(q)
    for bad in (Fraction(1, p), Fraction(-5, 3 * p), f"7/{p * p}"):
        with pytest.raises(FieldError):
            f.coerce(bad)


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert all(_is_prime(n) == trial_division_is_prime(n) for n in range(10**5))
    assert _is_prime(BIG) and _is_prime(2147483629)
    # strong pseudoprimes to base 2, one to bases 2, 3 and 5, Carmichael numbers
    for n in (2047, 3277, 4033, 561, 1105, 1729, 25326001):
        assert not _is_prime(n)


def test_prime_field_rejects_large_primes_at_once():
    start = time.perf_counter()
    with pytest.raises(FieldError):
        PrimeField(2**61 - 1)
    assert time.perf_counter() - start < 0.1


def test_rational_parsing():
    assert QQ.coerce("1/2") == Fraction(1, 2)
    a = QQ.array([["1/2", 1], ["-3", "0"]])
    assert a.rows[0][0] == Fraction(1, 2)
    assert QQ.mul("1/2", a.rows[1][0]) == Fraction(-3, 2)


def column(field, v):
    """The vector v as an n x 1 matrix."""
    return field.array([[x] for x in v])


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_rref_rank_nullspace(field):
    a = field.array([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert linalg.rank(field, a) == 2
    for v in linalg.nullspace(field, a):
        prod = linalg.matmul(field, a, column(field, v))
        assert linalg.is_zero(field, prod)
    assert len(linalg.nullspace(field, a)) == 1


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_det_and_inv(field):
    a = field.array([[1, 2], [3, 5]])
    d = linalg.det(field, a)
    assert not field.scalar_is_zero(d)
    inv_a = linalg.inv(field, a)
    assert linalg.equal(field, linalg.matmul(field, a, inv_a), field.identity(2))
    singular = field.array([[1, 2], [2, 4]])
    assert field.scalar_is_zero(linalg.det(field, singular))
    with pytest.raises(ZeroDivisionError):
        linalg.inv(field, singular)


def test_det_rational_exact():
    a = QQ.array([["1/2", "1/3"], ["1/4", "1/5"]])
    assert linalg.det(QQ, a) == Fraction(1, 10) - Fraction(1, 12)


def test_det_matches_fraction_free_crosscheck():
    rng = random.Random(11)
    f = PrimeField(13)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = f.array([[rng.randrange(13) for _ in range(n)] for _ in range(n)])
        # Bareiss fraction-free elimination over the integers as oracle
        m = [[int(x) for x in row] for row in a]
        sign, prev = 1, 1
        ok = True
        for k in range(n - 1):
            if m[k][k] == 0:
                swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
                if swap is None:
                    ok = False
                    break
                m[k], m[swap] = m[swap], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        expected = 0 if not ok else sign * m[n - 1][n - 1]
        assert linalg.det(f, a) == expected % 13


def test_matmul_exact_at_largest_prime():
    f = PrimeField(BIG)
    p = BIG
    # an int64 product wraps here: [2, p - 3] and [p - 1, 2]
    a = f.array([[p - 1, p - 1, p - 1], [1, 1, 0]])
    b = f.array([[p - 1], [p - 2], [p - 3]])
    out = linalg.matmul(f, a, b)
    assert out.shape == (2, 1) and out.tolist() == [[6], [p - 3]]
    assert all(type(x) is int for row in out for x in row)
    a = f.array([[p - 1] * 3, [p - 2] * 3])
    b = f.array([[p - 1]] * 3)
    assert linalg.matmul(f, a, b).tolist() == [[3], [6]]


def test_zero_dimensional_shapes():
    f = PrimeField(3)
    empty = f.zeros(0, 2)
    tall = f.array([[1], [2]])
    prod = linalg.matmul(f, empty, tall)
    assert prod.shape == (0, 1)
    assert linalg.rank(f, empty) == 0
    assert linalg.det(f, f.zeros(0, 0)) == f.one


def test_transpose_and_kron():
    f = PrimeField(7)
    a = f.array([[1, 2, 3], [4, 5, 6]])
    assert linalg.transpose(f, a).tolist() == [[1, 4], [2, 5], [3, 6]]
    assert linalg.transpose(f, f.zeros(0, 2)).shape == (2, 0)
    assert linalg.transpose(f, f.zeros(2, 0)).shape == (0, 2)
    b = f.array([[1, 6]])
    want = np.kron(np.array(a.tolist()), np.array(b.tolist())) % 7
    k = linalg.kron(f, a, b)
    assert k.shape == want.shape and k.tolist() == want.tolist()
    assert linalg.kron(f, a, f.zeros(0, 3)).shape == (0, 9)


def test_block_diag():
    f = QQ
    a = f.array([[1]])
    b = f.array([[2, 3]])
    d = linalg.block_diag(f, [a, b])
    assert d.shape == (2, 3)
    assert d.tolist() == [[1, 0, 0], [0, 2, 3]]
    assert all(isinstance(x, Fraction) for row in d for x in row)


# --- the elimination kernel against the numpy elimination it replaced --------

def normalize(field, a):
    """An ndarray reduced into the field: mod p over F_p, as is over Q."""
    return a % field.p if isinstance(field, PrimeField) else a


def to_np(field, a):
    """A `Matrix` as an ndarray: int64 over F_p, `Fraction` objects over Q."""
    dtype = np.int64 if isinstance(field, PrimeField) else object
    return np.array(a.tolist(), dtype=dtype).reshape(a.shape)


def ref_rref(field, a):
    r_mat = normalize(field, to_np(field, a))
    m, n = r_mat.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = None
        for i in range(r, m):
            if not field.scalar_is_zero(r_mat[i, c]):
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            r_mat[[r, pr]] = r_mat[[pr, r]]
        r_mat[r] = normalize(field, r_mat[r] * field.scalar_inv(r_mat[r, c]))
        col = r_mat[:, c].copy()
        col[r] = field.zero
        r_mat = normalize(field, r_mat - np.outer(col, r_mat[r]))
        pivots.append(c)
        r += 1
    return r_mat, pivots


def ref_det(field, a):
    n = a.shape[0]
    if n == 0:
        return field.one
    w = normalize(field, to_np(field, a))
    sign = 1
    for k in range(n):
        pr = None
        for i in range(k, n):
            if not field.scalar_is_zero(w[i, k]):
                pr = i
                break
        if pr is None:
            return field.zero
        if pr != k:
            w[[k, pr]] = w[[pr, k]]
            sign = -sign
        inv_piv = field.scalar_inv(w[k, k])
        for i in range(k + 1, n):
            if field.scalar_is_zero(w[i, k]):
                continue
            factor = normalize(field, np.array([[w[i, k] * inv_piv]]))[0, 0]
            w[i] = normalize(field, w[i] - factor * w[k])
    prod = field.one
    for k in range(n):
        prod = normalize(field, np.array([[prod * w[k, k]]]))[0, 0]
    if sign < 0:
        prod = field.scalar_neg(prod)
    return prod


def ref_inv(field, a):
    n = a.shape[0]
    aug = to_np(field, field.zeros(n, 2 * n))
    aug[:, :n] = to_np(field, a)
    aug[:, n:] = to_np(field, field.identity(n))
    r_mat, pivots = ref_rref(field, field.array(aug))
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return r_mat[:, n:]


def cofactor_det(rows):
    """Laplace expansion along the first row, on Fractions."""
    if not rows:
        return Fraction(1)
    return sum((-1) ** j * x * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


FIELDS = [PrimeField(2), PrimeField(3), PrimeField(101), PrimeField(BIG), QQ]


def entries(field):
    if isinstance(field, PrimeField):
        p = field.p
        return st.one_of(st.integers(0, min(2, p - 1)), st.integers(max(0, p - 3), p - 1),
                         st.integers(0, p - 1))
    return st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


ENCODING_FIELDS = [QQ, PrimeField(2), PrimeField(5), PrimeField(BIG)]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from(ENCODING_FIELDS).flatmap(
    lambda f: st.tuples(st.just(f), st.lists(entries(f) | st.just(f.zero), max_size=8))))
@example((QQ, []))
@example((QQ, [Fraction(0)] * 3))
@example((PrimeField(5), []))
@example((PrimeField(BIG), [0, 0]))
def test_elements_invert_ints(case):
    """ints(xs) = (d, ns) gives back xs through elements(ns, d), empty and
    all-zero vectors included, with elements of the field's own type."""
    field, xs = case
    d, ns = field.ints(xs)
    assert d >= 1 and all(type(n) is int for n in ns)
    out = field.elements(ns, d)
    assert out == tuple(xs)
    assert all(type(x) is type(field.zero) for x in out)


@pytest.mark.parametrize("p", [2, 5, 101, BIG])
def test_prime_field_elements_divide_by_the_scale(p):
    """Over F_p, elements(ns, d) with p not dividing d is the residue of each
    n / d, as `coerce` gives it."""
    f = PrimeField(p)
    rng = random.Random(p)
    for _ in range(200):
        d = rng.randint(1, 10**12)
        if d % p == 0:
            continue
        ns = [rng.randint(-10**15, 10**15) for _ in range(rng.randint(0, 4))]
        assert f.elements(ns, d) == tuple(f.coerce(Fraction(n, d)) for n in ns)


@st.composite
def field_matrices(draw, square=False):
    """(field, matrix): dense, dense with zeroed rows, or a product of a thin
    pair (rank deficient); m x n with 1 <= m, n <= 6, wide, tall or square."""
    field = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(1, 6))
    n = m if square else draw(st.integers(1, 6))
    entry = entries(field)
    kind = draw(st.sampled_from(["dense", "zero rows", "low rank"]))
    if kind == "low rank":
        k = draw(st.integers(0, min(m, n) - 1))
        b = field.array([[draw(entry) for _ in range(k)] for _ in range(m)]) \
            if k else field.zeros(m, 0)
        c = field.array([[draw(entry) for _ in range(n)] for _ in range(k)]) \
            if k else field.zeros(0, n)
        return field, linalg.matmul(field, b, c)
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if kind == "zero rows":
        for i in draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m)):
            rows[i] = [0] * n
    return field, field.array(rows)


KERNEL = settings(derandomize=True, deadline=None, max_examples=300)
# zero-size inputs, which the strategy leaves out
EDGE = [(f, f.zeros(m, n)) for f in (PrimeField(3), QQ) for m, n in ((0, 0), (0, 3), (3, 0))]


def same_matrix(field, got, want):
    """`got`, a `Matrix`, equals the ndarray `want` and holds plain ints over F_p,
    `Fraction`s over Q."""
    assert got.shape == want.shape
    assert got.tolist() == want.tolist()
    element = int if isinstance(field, PrimeField) else Fraction
    assert all(type(x) is element for row in got for x in row)


@KERNEL
@given(field_matrices())
@example(EDGE[1])
@example(EDGE[2])
@example(EDGE[4])
@example(EDGE[5])
def test_rref_rank_nullspace_match_reference(case):
    field, a = case
    r_mat, pivots = linalg.rref(field, a)
    want, want_pivots = ref_rref(field, a)
    assert pivots == want_pivots
    same_matrix(field, r_mat, want)
    assert linalg.rank(field, a) == len(want_pivots)
    kernel = linalg.nullspace(field, a)
    assert len(kernel) == a.shape[1] - len(want_pivots)
    for v in kernel:
        assert linalg.is_zero(field, linalg.matmul(field, a, column(field, v)))


@KERNEL
@given(field_matrices(square=True))
@example(EDGE[0])
@example(EDGE[3])
def test_det_matches_reference(case):
    field, a = case
    d = linalg.det(field, a)
    assert d == ref_det(field, a)
    if field is QQ:
        assert isinstance(d, Fraction) and d == cofactor_det(a.tolist())


@KERNEL
@given(field_matrices(square=True))
@example(EDGE[0])
@example(EDGE[3])
def test_inv_matches_reference(case):
    field, a = case
    try:
        want = ref_inv(field, a)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            linalg.inv(field, a)
        return
    same_matrix(field, linalg.inv(field, a), want)


def residue(field, x):
    return x % field.p if isinstance(field, PrimeField) else x


@KERNEL
@given(field_matrices(square=True))
@example(EDGE[0])
@example(EDGE[3])
def test_det_and_inverse_from_one_elimination(case):
    """det, inv and _det_inv agree with the Laplace expansion, singular
    matrices included; _det_inv's inverse is inv's."""
    field, a = case
    want = residue(field, cofactor_det(a.tolist()))
    d, inverse = linalg._det_inv(field, a)
    assert d == want and linalg.det(field, a) == want
    assert type(d) is (int if isinstance(field, PrimeField) else Fraction)
    if not want:
        assert inverse is None
        with pytest.raises(ZeroDivisionError):
            linalg.inv(field, a)
        return
    assert inverse == linalg.inv(field, a)
    n = a.shape[0]
    assert linalg.equal(field, linalg.matmul(field, a, inverse), field.identity(n))


@st.composite
def product_pairs(draw):
    """(field, a, b), a and b square of one size: b random, b = a^-1, or b with
    a b off the identity in exactly one entry (b = a^-1 (I + delta E_ij))."""
    field, a = draw(field_matrices(square=True))
    n = a.shape[0]
    inverse = linalg._det_inv(field, a)[1]
    kind = draw(st.sampled_from(["random", "inverse", "near miss"]))
    if kind == "random" or inverse is None:
        entry = entries(field)
        return field, a, field.array([[draw(entry) for _ in range(n)] for _ in range(n)])
    if kind == "inverse":
        return field, a, inverse
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    delta = draw(st.integers(1, field.p - 1) if isinstance(field, PrimeField)
                 else st.builds(Fraction, st.integers(1, 12) | st.integers(-12, -1),
                                st.integers(1, 12)))
    step = [[field.coerce((r == c) + (delta if (r, c) == (i, j) else 0)) for c in range(n)]
            for r in range(n)]
    return field, a, linalg.matmul(field, inverse, field.array(step))


@KERNEL
@given(product_pairs())
@example((QQ, QQ.zeros(0, 0), QQ.zeros(0, 0)))
@example((PrimeField(3), PrimeField(3).zeros(0, 0), PrimeField(3).zeros(0, 0)))
@example((QQ, QQ.identity(3), QQ.identity(3)))
def test_product_is_identity_matches_the_built_product(case):
    """_product_is_identity(a, b) is equal(matmul(a, b), I) in both orders."""
    field, a, b = case
    ident = field.identity(a.shape[0])
    for x, y in ((a, b), (b, a)):
        want = linalg.equal(field, linalg.matmul(field, x, y), ident)
        assert linalg._product_is_identity(field, x, y) is want


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_product_is_identity_of_non_square_factors(field):
    """A (2 x 3)(3 x 2) product can be the identity and the (3 x 2)(2 x 3) one
    cannot; an empty inner dimension gives a zero product; mismatched inner
    dimensions raise as matmul does."""
    a = field.array([[1, 0, 0], [0, 1, 0]])
    b = field.array([[1, 0], [0, 1], [5, 3]])
    assert linalg._product_is_identity(field, a, b)
    assert not linalg._product_is_identity(field, b, a)
    assert not linalg._product_is_identity(field, a, field.identity(3))
    assert not linalg._product_is_identity(field, field.zeros(2, 0), field.zeros(0, 2))
    assert linalg._product_is_identity(field, field.zeros(0, 0), field.zeros(0, 0))
    assert not linalg._product_is_identity(field, field.zeros(0, 0), field.zeros(0, 2))
    with pytest.raises(ValueError):
        linalg._product_is_identity(field, a, a)


@KERNEL
@given(field_matrices())
@example(EDGE[1])
@example(EDGE[2])
@example(EDGE[4])
@example(EDGE[5])
def test_eliminate_reports_leading_block_determinant(case):
    """An m x n matrix with m <= n: the determinant of its leading m x m block;
    with m > n: None."""
    field, a = case
    m, n = a.shape
    d = linalg._eliminate(field, a.rows, n)[3]
    if m > n:
        assert d is None
    else:
        assert d == residue(field, cofactor_det([row[:m] for row in a.tolist()]))
