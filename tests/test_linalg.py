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
    wide = field.array([[1, 2, 3], [4, 5, 6]])
    for call in (linalg.det, linalg.inv):
        with pytest.raises(ValueError, match="non-square"):
            call(field, wide)
    with pytest.raises(ValueError, match="shape mismatch"):
        linalg.matmul(field, wide, a)


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


@pytest.mark.parametrize("field", ENCODING_FIELDS, ids=str)
def test_encode_is_coerce_of_the_quotients(field):
    """encode(ns, d) is the encoding (d', ns') of the field elements ns / d, as
    coerce gives them; over F_p with p dividing d it still encodes quotients
    that lie in F_p, and a quotient that does not raises coerce's FieldError."""
    rng = random.Random(str(field))
    for _ in range(200):
        d = rng.choice([1, 2, 5, 6, 10, 25, rng.randint(1, 10**12)])
        ns = [rng.randint(-10**6, 10**6) * rng.choice([1, d]) for _ in range(rng.randint(0, 4))]
        want = [field.coerce(Fraction(n, d)) for n in ns] \
            if all(Fraction(n, d).denominator % (field.p or 2**61 - 1) for n in ns) else None
        if want is None:
            with pytest.raises(FieldError, match="not invertible"):
                field.encode(ns, d)
            continue
        e, out = field.encode(ns, d)
        assert e >= 1 and all(type(n) is int for n in out)
        assert list(field.elements(out, e)) == want
    if field.p:
        with pytest.raises(FieldError, match=f"denominator of 1/{field.p} not invertible"):
            field.encode([field.p, 1], field.p)


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
    d, inverse = linalg._det_inv(field, linalg._encoded(field, a))
    assert d == want and linalg.det(field, a) == want
    assert type(d) is (int if isinstance(field, PrimeField) else Fraction)
    if not want:
        assert inverse is None
        with pytest.raises(ZeroDivisionError):
            linalg.inv(field, a)
        return
    n = a.shape[0]
    inverse = linalg._matrix(field, inverse, n)
    assert inverse == linalg.inv(field, a)
    assert linalg.equal(field, linalg.matmul(field, a, inverse), field.identity(n))


@st.composite
def product_pairs(draw):
    """(field, a, b), a and b square of one size: b random, b = a^-1, or b with
    a b off the identity in exactly one entry (b = a^-1 (I + delta E_ij))."""
    field, a = draw(field_matrices(square=True))
    n = a.shape[0]
    inverse = linalg.inv(field, a) if linalg.det(field, a) else None
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
    """_product_is_identity on the encoded rows of a and b is
    equal(matmul(a, b), I) in both orders, also when each row is put on a
    larger scale of its own (over Q the rows then carry different scales)."""
    field, a, b = case
    ident = field.identity(a.shape[0])
    for x, y in ((a, b), (b, a)):
        want = linalg.equal(field, linalg.matmul(field, x, y), ident)
        ex, ey = linalg._encoded(field, x), linalg._encoded(field, y)
        assert linalg._product_is_identity(field, ex, ey) is want
        ex, ey = ([field.encode([n * k for n in ns], d * k) for k, (d, ns) in enumerate(rows, 2)]
                  for rows in (ex, ey))
        assert linalg._product_is_identity(field, ex, ey) is want


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_product_is_identity_of_non_square_factors(field):
    """On encoded rows: a (2 x 3)(3 x 2) product can be the identity and the
    (3 x 2)(2 x 3) one cannot; an empty inner dimension gives a zero product;
    mismatched inner dimensions raise as matmul does."""
    def is_identity(x, y):
        return linalg._product_is_identity(field, linalg._encoded(field, x),
                                           linalg._encoded(field, y))

    a = field.array([[1, 0, 0], [0, 1, 0]])
    b = field.array([[1, 0], [0, 1], [5, 3]])
    assert is_identity(a, b)
    assert not is_identity(b, a)
    assert not is_identity(a, field.identity(3))
    assert not is_identity(field.zeros(2, 0), field.zeros(0, 2))
    assert is_identity(field.zeros(0, 0), field.zeros(0, 0))
    with pytest.raises(ValueError):
        is_identity(a, a)


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
    d = linalg._eliminate(field, linalg._encoded(field, a), n)[3]
    if m > n:
        assert d is None
    else:
        assert d == residue(field, cofactor_det([row[:m] for row in a.tolist()]))


@pytest.mark.parametrize("p", [2, 5, BIG])
def test_eliminate_accepts_ints_between_minus_p_and_p(p):
    """Over F_p `_eliminate` takes any ints in (-p, p), as the Hom/Ext^1 system
    of `rep` holds them: the pivots, the rref (as field elements) and the
    determinant are those of the residues."""
    f = PrimeField(p)
    rng = random.Random(p)
    values = sorted({-(p - 1), -1, 0, 1, p - 1, rng.randrange(-(p - 1), p)})
    for _ in range(300):
        m, n = rng.randint(0, 5), rng.randint(0, 6)
        rows = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.5:   # a row dependent on another, over F_p
            rows[rng.randrange(1, m)] = [-x for x in rows[0]]
        got = linalg._eliminate(f, [(1, row) for row in rows], n)
        want = linalg._eliminate(f, [(1, [x % p for x in row]) for row in rows], n)
        assert got[2] == want[2] and got[3] == want[3]
        assert [f.elements(r, got[1]) for r in got[0]] == [f.elements(r, want[1]) for r in want[0]]


def test_random_matrix_draws():
    """`Field.random_matrix` draws row by row from the generator it is given:
    integers in [-5, 5] over Q, residues over F_p; these are the lists the
    draws gave before they moved onto the field tags."""
    rng = random.Random(28)
    assert QQ.random_matrix(rng, 3, 4) == [[-4, -3, 3, 4], [-3, -2, -3, 5], [2, 1, -2, -2]]
    assert PrimeField(7).random_matrix(rng, 2, 3) == [[1, 3, 1], [6, 1, 4]]
    assert QQ.random_matrix(rng, 0, 2) == [] and PrimeField(7).random_matrix(rng, 2, 0) == [[], []]
    rng = random.Random(28)
    assert PrimeField(7).random_matrix(rng, 3, 3) == [[0, 5, 1], [4, 4, 5], [1, 1, 1]]


@pytest.mark.parametrize("p", [2, 5, 7, BIG])
def test_power_is_one_exponentiation(p):
    """`Field.power(x, t)` is pow(x, t, p) over F_p and `Fraction ** t` over Q,
    negative t included."""
    f = PrimeField(p)
    rng = random.Random(p)
    for _ in range(200):
        x, t = rng.randrange(1, p), rng.randint(-40, 40)
        assert f.power(x, t) == pow(x, t, p) == f.power(x + p * rng.randint(-3, 3), t)
        assert f.power(0, abs(t)) == pow(0, abs(t), p)
        q = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        assert QQ.power(q, t) == q ** t and type(QQ.power(q, t)) is Fraction
    assert QQ.power(0, 3) == 0 and QQ.power(5, 0) == 1 and f.power(3, 0) == 1


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(BIG)])
def test_negative_power_of_zero_raises_zero_division(field):
    """Over every field a negative power of 0 raises `ZeroDivisionError`, as
    `scalar_inv(0)` does, not a field-dependent exception."""
    for zero in (0, "0", Fraction(0), 3 * field.p):
        with pytest.raises(ZeroDivisionError):
            field.scalar_inv(zero)
        for t in (-1, -4):
            with pytest.raises(ZeroDivisionError):
                field.power(zero, t)
        assert field.power(zero, 0) == 1 and field.power(zero, 2) == 0
