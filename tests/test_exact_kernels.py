"""The Q kernels that run on integer numerators (`linalg.matmul`,
`evaluate_sigma`) against naive `Fraction` references, F_p sigma
evaluation against the reduction of the Q one, and the F_p scalar methods
against the reduction of the Q ones."""
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from quivermod import (QQ, FieldError, Path, PrimeField, SigmaMorphism, evaluate_sigma,
                       path_combination, paths_between, quiver, representation)
from quivermod import linalg

BIG = 2**31 - 1
SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)

# Q3 has a path of length 2 next to an arrow with the same ends; L2 has a loop
# at each vertex and two arrows 1 -> 2, so its paths (length <= 2) multiply.
QUIVERS = {
    "Q3": quiver(3, [("a", 1, 2), ("b", 2, 3), ("c", 1, 3)]),
    "L2": quiver(2, [("x", 1, 2), ("y", 1, 2), ("l", 1, 1), ("m", 2, 2)]),
}
MAX_PATH_LEN = 2


def rationals(dens=range(1, 10)):
    """Rationals with numerator in -9..9 and the given denominators, zero often."""
    return st.one_of(st.just(Fraction(0)),
                     st.builds(Fraction, st.integers(-9, 9), st.sampled_from(list(dens))))


def naive_matmul(a, b, cols):
    """Product of row lists of `Fraction`s, one `Fraction` operation per term."""
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            if b else [Fraction(0)] * cols for row in a]


def assert_fractions(mat):
    assert all(type(x) is Fraction for row in mat.rows for x in row)


@st.composite
def matrix_pairs(draw):
    m, n, k = (draw(st.integers(0, 5)) for _ in range(3))
    entry = rationals()
    a = [[draw(entry) for _ in range(n)] for _ in range(m)]
    b = [[draw(entry) for _ in range(k)] for _ in range(n)]
    return (m, n, k), a, b


# a b = I, the columns of b with different denominators; the examples below
# also take b one entry off a^-1
INVERSE_PAIR = ([[2, 1], [0, 3]], [[Fraction(1, 2), Fraction(-1, 6)], [0, Fraction(1, 3)]])


@SETTINGS
@given(matrix_pairs())
@example(((2, 2, 2), *INVERSE_PAIR))
@example(((2, 2, 2), INVERSE_PAIR[0], [[Fraction(1, 2), Fraction(-1, 6)], [0, Fraction(1, 2)]]))
@example(((2, 2, 3), [[Fraction(1, 2), 3], [Fraction(-2, 3), Fraction(5, 7)]],
          [[Fraction(1, 3), Fraction(1, 5), 1], [Fraction(3, 4), 0, Fraction(-1, 7)]]))
def test_matmul_matches_fraction_reference(case):
    """matmul equals the naive `Fraction` product; for a square product,
    _product_is_identity on the encoded rows, each over the lcm of its own
    denominators, says whether that product is the identity."""
    (m, n, k), a, b = case
    a_mat = QQ.array(a) if m else QQ.zeros(0, n)
    b_mat = QQ.array(b) if n else QQ.zeros(0, k)
    assert a_mat.shape == (m, n) and b_mat.shape == (n, k)
    out = linalg.matmul(QQ, a_mat, b_mat)
    assert out.shape == (m, k)
    want = naive_matmul(a, b, k)
    assert out.tolist() == want
    assert_fractions(out)
    if m == k:
        identity = [[Fraction(int(r == c)) for c in range(m)] for r in range(m)]
        assert linalg._product_is_identity(QQ, linalg._encoded(QQ, a_mat),
                                           linalg._encoded(QQ, b_mat)) is (want == identity)


def test_matmul_empty_inner_and_outer_shapes():
    for (m, n, k) in ((0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0)):
        out = linalg.matmul(QQ, QQ.zeros(m, n), QQ.zeros(n, k))
        assert out.shape == (m, k) and out.tolist() == [[Fraction(0)] * k] * m
        assert_fractions(out)


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(BIG)])
def test_matmul_chain_is_nested_pairwise_products(field):
    """matmul of 3 and 4 factors equals the pairwise products nested either
    way round and the naive `Fraction` chain read into the field (the
    denominators 1..4 are units mod 5 and mod 2^31 - 1); zero sizes keep
    their shapes anywhere in the chain."""
    rng = random.Random(f"chain/{field.p}")
    for count in [3, 4] * 40:
        dims = [rng.randint(0, 3) for _ in range(count + 1)]
        raw = [[[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(c)]
                for _ in range(r)] for r, c in zip(dims, dims[1:])]
        mats = [field.array(a) if a else field.zeros(0, c) for a, c in zip(raw, dims[1:])]
        want = raw[0]
        for b, c in zip(raw[1:], dims[2:]):
            want = naive_matmul(want, b, c)
        out = linalg.matmul(field, *mats)
        assert out.shape == (dims[0], dims[-1]) and out.tolist() == [
            [field.coerce(x) for x in row] for row in want]
        left = mats[0]
        for b in mats[1:]:
            left = linalg.matmul(field, left, b)
        right = mats[-1]
        for a in reversed(mats[:-1]):
            right = linalg.matmul(field, a, right)
        assert out == left == right
    zeros = [field.zeros(2, 0), field.zeros(0, 3), field.identity(3), field.zeros(3, 1)]
    assert linalg.matmul(field, *zeros) == field.zeros(2, 1)
    zeros = [field.zeros(3, 2), field.zeros(2, 0), field.zeros(0, 4)]
    assert linalg.matmul(field, *zeros) == field.zeros(3, 4)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
@pytest.mark.parametrize("count", [3, 4])
def test_matmul_chain_refuses_a_mismatched_middle_factor(field, count):
    mats = [field.identity(2)] * count
    mats[count - 2] = field.zeros(3, 2)   # after one or two factors that chain
    with pytest.raises(ValueError, match="shape mismatch"):
        linalg.matmul(field, *mats)


@st.composite
def sigma_cases(draw, dens=range(1, 10)):
    """(sigma, dim, matrices): a random morphism between sums of vertex
    projectives of a small quiver, and the Q matrices of a representation of
    dimension `dim` (zero-dimensional vertices included)."""
    q = QUIVERS[draw(st.sampled_from(sorted(QUIVERS)))]
    k = q.vertex_count
    dim = tuple(draw(st.integers(0, 3)) for _ in range(k))
    entry = rationals(dens)
    matrices = {a.id: [[draw(entry) for _ in range(dim[a.src - 1])]
                       for _ in range(dim[a.tgt - 1])] for a in q.arrows}
    vertices = st.lists(st.integers(1, k), min_size=1, max_size=3)
    domain, codomain = draw(vertices), draw(vertices)
    coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from(list(dens)))
    entries = []
    for i in domain:
        row = []
        for j in codomain:
            paths = paths_between(q, j, i, MAX_PATH_LEN)
            chosen = draw(st.lists(st.sampled_from(paths), unique=True)) if paths else []
            row.append(path_combination(j, i, [(draw(coeff), p) for p in chosen]))
        entries.append(tuple(row))
    return SigmaMorphism(q, tuple(domain), tuple(codomain), tuple(entries)), dim, matrices


def naive_path(dim, matrices, path: Path):
    """Matrix of a path as row lists of `Fraction`s, from naive products."""
    n = dim[path.source - 1]
    out = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for aid in path.arrows:
        out = naive_matmul(matrices[aid], out, n)
    return out


def naive_sigma(sigma, dim, matrices):
    """The evaluated block matrix as row lists, block by block from `Fraction`s."""
    rows = []
    for i, entry_row in zip(sigma.domain, sigma.entries):
        lines = [[] for _ in range(dim[i - 1])]
        for j, comb in zip(sigma.codomain, entry_row):
            block = [[Fraction(0)] * dim[j - 1] for _ in lines]
            for c, path in comb.terms:
                mat = naive_path(dim, matrices, path)
                block = [[x + c * y for x, y in zip(line, prow)]
                         for line, prow in zip(block, mat)]
            for line, block_line in zip(lines, block):
                line.extend(block_line)
        rows.extend(lines)
    return rows


@SETTINGS
@given(sigma_cases())
def test_evaluate_sigma_matches_fraction_reference(case):
    sigma, dim, matrices = case
    m = representation(sigma.quiver, QQ, dim, matrices)
    out = evaluate_sigma(sigma, m)
    shape = (sum(dim[i - 1] for i in sigma.domain), sum(dim[j - 1] for j in sigma.codomain))
    assert out.shape == shape
    assert out.tolist() == naive_sigma(sigma, dim, matrices)
    assert_fractions(out)


@st.composite
def sigma_cases_mod_p(draw):
    """(p, sigma, dim, matrices) with every denominator invertible mod p."""
    p = draw(st.sampled_from([2, 101, BIG]))
    return (p,) + draw(sigma_cases(dens=[d for d in range(1, 10) if d % p]))


@SETTINGS
@given(sigma_cases_mod_p())
def test_evaluate_sigma_mod_p_reduces_the_rational_value(case):
    p, sigma, dim, matrices = case
    fld = PrimeField(p)
    rational = evaluate_sigma(sigma, representation(sigma.quiver, QQ, dim, matrices))
    out = evaluate_sigma(sigma, representation(sigma.quiver, fld, dim, matrices))
    assert out.shape == rational.shape
    assert out.tolist() == [[fld.coerce(x) for x in row] for row in rational.rows]
    assert all(type(x) is int and 0 <= x < p for row in out.rows for x in row)


@st.composite
def scalar_cases(draw):
    """(F_p, x, y): x and y rationals whose denominators are prime to p."""
    p = draw(st.sampled_from([2, 7, BIG]))
    entry = rationals([d for d in range(1, 10) if d % p])
    return PrimeField(p), draw(entry), draw(entry)


@SETTINGS
@given(scalar_cases())
def test_prime_field_scalars_reduce_the_rational_ones(case):
    fld, x, y = case
    assert fld.scalar_is_zero(x) == (x.numerator % fld.p == 0)
    assert fld.scalar_neg(x) == fld.coerce(QQ.scalar_neg(x))
    assert fld.mul(x, y) == fld.coerce(QQ.mul(x, y))
    assert fld.format_scalar(x) == str(fld.coerce(QQ.format_scalar(x)))
    if fld.scalar_is_zero(x):
        with pytest.raises(ZeroDivisionError):
            fld.scalar_inv(x)
    else:
        assert fld.scalar_inv(x) == fld.coerce(QQ.scalar_inv(x))
    assert all(type(v) is int and 0 <= v < fld.p for v in (fld.scalar_neg(x), fld.mul(x, y)))


@pytest.mark.parametrize("fld", [QQ, PrimeField(2), PrimeField(7), PrimeField(BIG)],
                         ids=lambda f: f.name)
def test_field_scalars_refuse_floats(fld):
    for method in (fld.coerce, fld.scalar_is_zero, fld.scalar_inv, fld.scalar_neg,
                   fld.format_scalar, lambda x: fld.mul(x, 1), lambda x: fld.mul(1, x)):
        for x in (0.5, 2.0, 0.0):
            with pytest.raises(FieldError):
                method(x)
