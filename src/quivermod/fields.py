"""Exact coefficient fields, the rationals and prime fields F_p, and the one
matrix type of the package.

A `Matrix` is immutable: its rows are tuples of field elements, `Fraction`s
over Q and ints in 0..p-1 over F_p, and it records its `shape`, so a matrix
without rows keeps its column count. Both field tags expose the same small
API so the linear algebra in :mod:`quivermod.linalg` is written once; each
declares its `zero` and `one` as class attributes.

`Field.coerce` is the one place where outside scalars become field elements
(`quiver.int_vector` is the one place for outside integers): integers
(anything with `__index__`), `Fraction`s and strings such as "-3/4" are
accepted, anything else (floats included) raises `FieldError`. The scalar
methods of `Field` (`scalar_is_zero`, `scalar_inv`, `scalar_neg`, `mul`,
`format_scalar`) are written once, on `coerce`. `array` takes nested lists,
and any 2-d object with `shape` and `tolist()` (a `Matrix`, an ndarray), whose
shape it keeps (also (0, n)), and coerces every entry.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction


class FieldError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with bases 2, 7 and 61: exact for
    n < 4 759 123 141, which covers every field this package accepts."""
    if n < 2:
        return False
    for p in (2, 7, 61):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _parse_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"cannot interpret {x!r} as a rational number: {exc}") from exc
    try:
        return Fraction(operator.index(x))
    except TypeError:
        raise FieldError(f"cannot interpret {x!r} as a rational number") from None


@dataclass(frozen=True, slots=True)
class Matrix:
    """An immutable matrix: `rows`, a tuple of `shape[0]` tuples of `shape[1]`
    field elements. Iterating over it yields the rows."""

    rows: tuple[tuple, ...]
    shape: tuple[int, int]

    def __iter__(self):
        return iter(self.rows)

    def tolist(self) -> list[list]:
        return [list(row) for row in self.rows]


def _matrix(coerce, data) -> Matrix:
    """`data`, nested lists or a 2-d object with `shape` and `tolist()`, as a
    `Matrix` of coerced entries."""
    cols = None
    shape = getattr(data, "shape", None)
    if shape is not None:
        if len(shape) != 2:
            raise FieldError(f"matrix data must be 2-dimensional, not of shape {shape}")
        cols = shape[1]
        data = data if isinstance(data, Matrix) else data.tolist()
    try:
        rows = tuple([tuple([coerce(x) for x in row]) for row in data])
    except TypeError as exc:
        raise FieldError(f"matrix data must be a list of rows, not {data!r}") from exc
    if cols is None:
        cols = len(rows[0]) if rows else 0
        if any(len(row) != cols for row in rows):
            raise FieldError("ragged matrix data")
    return Matrix(rows, (len(rows), cols))


class Field:
    """What both field tags share, written on their `zero`, `one` and
    `coerce`."""

    def coerce(self, x):
        """`x` as an element of the field, or `FieldError`."""
        raise NotImplementedError

    def zeros(self, rows: int, cols: int) -> Matrix:
        return Matrix(((self.zero,) * cols,) * rows, (rows, cols))

    def identity(self, n: int) -> Matrix:
        zero, one = self.zero, self.one
        return Matrix(tuple((zero,) * i + (one,) + (zero,) * (n - 1 - i) for i in range(n)),
                      (n, n))

    def scalar_is_zero(self, x) -> bool:
        return self.coerce(x) == 0

    def scalar_inv(self, x):
        x = self.coerce(x)
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.coerce(Fraction(1, x))

    def scalar_neg(self, x):
        return self.coerce(-self.coerce(x))

    def mul(self, x, y):
        return self.coerce(self.coerce(x) * self.coerce(y))

    def format_scalar(self, x) -> str:
        return str(self.coerce(x))


@dataclass(frozen=True)
class Rationals(Field):
    """Tag for exact rational arithmetic."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x) -> Fraction:
        return _parse_rational(x)

    def array(self, rows) -> Matrix:
        return _matrix(self.coerce, rows)

    def to_json(self):
        return "Q"


@dataclass(frozen=True)
class PrimeField(Field):
    """Tag for arithmetic in F_p, p any prime below 2^31 (2 included)."""

    p: int
    zero = 0
    one = 1

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p >= 2**31 or not _is_prime(self.p):
            raise FieldError(f"{self.p} is not a prime below 2^31")

    @property
    def name(self) -> str:
        return f"F{self.p}"

    def coerce(self, x) -> int:
        if isinstance(x, int):
            return x % self.p
        q = _parse_rational(x)
        if q.denominator % self.p == 0:
            raise FieldError(f"denominator of {q} not invertible mod {self.p}")
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def array(self, rows) -> Matrix:
        return _matrix(self.coerce, rows)

    def to_json(self):
        return {"p": self.p}


QQ = Rationals()


def field_from_json(spec) -> Field:
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"p"}:
        p = spec["p"]
        if isinstance(p, int) and not isinstance(p, bool):
            return PrimeField(p)
    raise FieldError(f"unrecognized field spec {spec!r}")
