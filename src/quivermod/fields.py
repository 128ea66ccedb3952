"""Exact coefficient fields, the rationals and prime fields F_p, and the one
matrix type of the package.

A `Matrix` is immutable: its rows are tuples of field elements, `Fraction`s
over Q and ints in 0..p-1 over F_p, and it records its `shape`, so a matrix
without rows keeps its column count. Both field tags expose the same small
API, so `linalg`, `rep` and `localization` are written once for both; each
tag declares its `zero`, its `one` and its characteristic `p` (0 for Q).

`Field.coerce` is the one place where outside scalars become field elements
(`quiver.int_vector` is the one place for outside integers): integers
(anything with `__index__`), `Fraction`s and strings such as "-3/4" are
accepted, anything else (floats included) raises `FieldError`. The scalar
methods of `Field` (`scalar_is_zero`, `scalar_inv`, `scalar_neg`, `mul`,
`power`, `format_scalar`) are written once, on `coerce`. `array` takes nested
lists, and any 2-d object with `shape` and `tolist()` (a `Matrix`, an ndarray),
whose shape it keeps (also (0, n)), and coerces every entry. `random_matrix`
draws ints row by row: uniform over F_p, in [-5, 5] over Q. So only `fields`,
`linalg` and the F_p search in `stability` read the characteristic.

The exact kernels run on Python ints, and `ints`, `encode` and `elements` are
the only code that knows how field elements are encoded as ints: `ints(xs)`
gives (d, ns) with xs = ns / d, `encode(ns, d)` brings any ints ns over a
scale d into that encoding, and `elements(ns, d)` turns ints back into field
elements. Over F_p the ints are residues and d is 1; over Q d is a common
denominator (`ints` takes the lcm) and ns the numerators scaled to it, and
`encode` keeps (d, ns) as they are. So `linalg` and `localization` pass
encoded rows from one kernel to the next and build field elements only for
what they return.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm


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


class Field:
    """What both field tags share, written on their `zero`, `one`, `coerce`,
    `ints` and `elements`."""

    def coerce(self, x):
        """`x` as an element of the field, or `FieldError`."""
        raise NotImplementedError

    def ints(self, xs) -> tuple[int, list[int]]:
        """(d, ns), Python ints with the field elements xs equal to ns / d
        entrywise; ns may be xs itself."""
        raise NotImplementedError

    def encode(self, ns, d: int) -> tuple[int, list[int]]:
        """The elements ns / d, for Python ints ns and d > 0, in the encoding
        `ints` gives; `FieldError` when one of them is not in the field."""
        raise NotImplementedError

    def elements(self, ns, d: int = 1) -> tuple:
        """The field elements ns / d, for Python ints ns and d (d invertible)."""
        raise NotImplementedError

    def array(self, data) -> Matrix:
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
            rows = tuple([tuple([self.coerce(x) for x in row]) for row in data])
        except TypeError as exc:
            raise FieldError(f"matrix data must be a list of rows, not {data!r}") from exc
        if cols is None:
            cols = len(rows[0]) if rows else 0
            if any(len(row) != cols for row in rows):
                raise FieldError("ragged matrix data")
        return Matrix(rows, (len(rows), cols))

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

    def power(self, x, t: int):
        """x ** t; a negative power of 0 raises `ZeroDivisionError`, as `scalar_inv(0)`."""
        x = self.coerce(x)
        if t < 0 and x == 0:
            raise ZeroDivisionError("negative power of zero")
        return self.coerce(pow(x, t, self.p or None))

    def format_scalar(self, x) -> str:
        return str(self.coerce(x))


@dataclass(frozen=True)
class Rationals(Field):
    """Tag for exact rational arithmetic."""

    name = "Q"
    p = 0
    zero = Fraction(0)
    one = Fraction(1)
    array = Field.array   # each tag holds its own `array`, which bench/tracing.py wraps

    def coerce(self, x) -> Fraction:
        return _parse_rational(x)

    def ints(self, xs) -> tuple[int, list[int]]:
        d = lcm(*[x.denominator for x in xs])
        return d, [x.numerator * (d // x.denominator) for x in xs]

    def encode(self, ns, d: int) -> tuple[int, list[int]]:
        return d, ns

    def elements(self, ns, d: int = 1) -> tuple:
        zero = self.zero
        return tuple([Fraction(x, d) if x else zero for x in ns])

    def random_matrix(self, rng, rows: int, cols: int) -> list[list[int]]:
        return [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]

    def to_json(self):
        return "Q"


@dataclass(frozen=True)
class PrimeField(Field):
    """Tag for arithmetic in F_p, p any prime below 2^31 (2 included)."""

    p: int
    zero = 0
    one = 1
    array = Field.array

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

    def ints(self, xs) -> tuple[int, list[int]]:
        return 1, xs

    def encode(self, ns, d: int) -> tuple[int, list[int]]:
        if d % self.p == 0:   # some ns / d may still be in F_p; coerce names the first that is not
            return 1, [self.coerce(Fraction(x, d)) for x in ns]
        return 1, self.elements(ns, d)

    def elements(self, ns, d: int = 1) -> tuple:
        p = self.p
        if d == 1:
            return tuple([x % p for x in ns])
        inv = pow(d, -1, p)
        return tuple([x * inv % p for x in ns])

    def random_matrix(self, rng, rows: int, cols: int) -> list[list[int]]:
        return [[rng.randrange(self.p) for _ in range(cols)] for _ in range(rows)]

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
