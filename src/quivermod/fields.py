"""Exact coefficient fields: the rationals and prime fields F_p.

Matrices over the rationals are numpy object arrays of `fractions.Fraction`;
matrices over F_p are numpy int64 arrays with entries reduced to 0..p-1.
Both field tags expose the same small API so the linear algebra in
:mod:`quivermod.linalg` is written once.

`array` is the one place where outside values become field elements. It takes
nested lists and 2-d ndarrays of any dtype, keeps an ndarray's shape (also
(0, n)), and coerces every entry with the field's `coerce`: ints, `Fraction`s
and strings such as "-3/4" are accepted, anything else (floats included)
raises `FieldError`. Over F_p an int64 ndarray is reduced mod p in one step.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


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
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"cannot interpret {x!r} as a rational number: {exc}") from exc
    raise FieldError(f"cannot interpret {x!r} as a rational number")


def _matrix(coerce, data, dtype) -> np.ndarray:
    """`data`, nested lists or a 2-d ndarray, as a `dtype` array of coerced entries."""
    shape = None
    if isinstance(data, np.ndarray):
        if data.ndim != 2:
            raise FieldError(f"matrix data must be 2-dimensional, not of shape {data.shape}")
        shape, data = data.shape, data.tolist()
    try:
        rows = [[coerce(x) for x in row] for row in data]
    except TypeError as exc:
        raise FieldError(f"matrix data must be a list of rows, not {data!r}") from exc
    if shape is None:
        shape = (len(rows), len(rows[0]) if rows else 0)
        if any(len(row) != shape[1] for row in rows):
            raise FieldError("ragged matrix data")
    return np.array(rows, dtype=dtype).reshape(shape)


@dataclass(frozen=True)
class Rationals:
    """Tag for exact rational arithmetic."""

    name = "Q"

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def coerce(self, x) -> Fraction:
        return _parse_rational(x)

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        out = np.empty((rows, cols), dtype=object)
        out[...] = Fraction(0)
        return out

    def identity(self, n: int) -> np.ndarray:
        out = self.zeros(n, n)
        for i in range(n):
            out[i, i] = Fraction(1)
        return out

    def array(self, rows) -> np.ndarray:
        return _matrix(self.coerce, rows, object)

    def normalize(self, a: np.ndarray) -> np.ndarray:
        return a

    def scalar_is_zero(self, x) -> bool:
        return x == 0

    def scalar_inv(self, x):
        x = _parse_rational(x)
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / x

    def scalar_neg(self, x):
        return -_parse_rational(x)

    def mul(self, x, y):
        return _parse_rational(x) * _parse_rational(y)

    def format_scalar(self, x) -> str:
        return str(_parse_rational(x))

    def to_json(self):
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """Tag for arithmetic in F_p, p an odd-sized prime below 2^31."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p >= 2**31 or not _is_prime(self.p):
            raise FieldError(f"{self.p} is not a prime below 2^31")

    @property
    def name(self) -> str:
        return f"F{self.p}"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def coerce(self, x) -> int:
        if isinstance(x, (int, np.integer)):
            return int(x) % self.p
        q = _parse_rational(x)
        if q.denominator % self.p == 0:
            raise FieldError(f"denominator of {q} not invertible mod {self.p}")
        return (q.numerator % self.p) * pow(q.denominator % self.p, self.p - 2, self.p) % self.p

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.int64)

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def array(self, rows) -> np.ndarray:
        if isinstance(rows, np.ndarray) and rows.dtype == np.int64 and rows.ndim == 2:
            return rows % self.p
        return _matrix(self.coerce, rows, np.int64)

    def normalize(self, a: np.ndarray) -> np.ndarray:
        return a % self.p

    def scalar_is_zero(self, x) -> bool:
        return int(x) % self.p == 0

    def scalar_inv(self, x):
        v = int(x) % self.p
        if v == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(v, self.p - 2, self.p)

    def scalar_neg(self, x):
        return (-int(x)) % self.p

    def mul(self, x, y):
        return int(x) * int(y) % self.p

    def format_scalar(self, x) -> str:
        return str(int(x) % self.p)

    def to_json(self):
        return {"p": self.p}


Field = Rationals | PrimeField

QQ = Rationals()


def field_from_json(spec) -> Field:
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"p"}:
        p = spec["p"]
        if isinstance(p, int) and not isinstance(p, bool):
            return PrimeField(p)
    raise FieldError(f"unrecognized field spec {spec!r}")
