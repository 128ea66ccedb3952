"""Concrete quiver representations over exact fields and their homological
linear algebra: path evaluation, direct sums, base change, Hom and Ext^1.

Every matrix handed to `representation` or `group_element`, as nested lists or
as an ndarray of any dtype, goes through the field's `array`, so it always
holds elements of the field it claims.

Hom and Ext^1 come from the two-term intertwiner complex
(f_i) |-> (f_j M_a - N_a f_i), from the sum over vertices of Hom(M_i, N_i) to
the sum over arrows a: i -> j of Hom(M_i, N_j); path algebras of quivers are
hereditary, so this gives Ext^1 on every quiver, loops and oriented cycles
included. `_hom_system` writes the system straight from the matrices' lists
of entries as rows of field elements, one row per arrow a and entry (r, c),
with the unknown f_i vectorized row-major in the block of columns of vertex i.
Each `hom_space` or `ext_space` call then runs one elimination: of the rows
for Hom, the kernel; of their transpose for Ext^1, whose cokernel
representatives are the labels (a, r, c) of the rows that are not pivots there.
"""
from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import linalg
from .fields import Field, PrimeField, field_from_json
from .quiver import DimVector, Path, Quiver, validate_quiver


class RepresentationError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Representation:
    quiver: Quiver
    field: Field
    dim: DimVector
    matrices: Mapping[str, np.ndarray]

    def matrix(self, arrow_id: str) -> np.ndarray:
        return self.matrices[arrow_id]

    def to_json(self) -> dict:
        mats = {}
        for aid in sorted(self.matrices):
            m = self.matrices[aid]
            mats[aid] = [[self.field.format_scalar(x) for x in row] for row in m]
        return {
            "quiver": self.quiver.to_json(),
            "field": self.field.to_json(),
            "dim": list(self.dim),
            "matrices": mats,
        }


def representation(quiver: Quiver, field: Field, dim: Sequence[int],
                   matrices: Mapping[str, object]) -> Representation:
    """The representation with the given matrices (lists or ndarrays, coerced
    into `field`); arrows without a matrix get the zero map."""
    try:
        if isinstance(dim, (str, bytes)):
            raise TypeError
        dim = tuple(operator.index(d) for d in dim)
    except TypeError as exc:
        raise RepresentationError(f"malformed dimension vector {dim!r}") from exc
    if not isinstance(matrices, Mapping):
        raise RepresentationError("matrices must map arrow ids to matrices")
    if len(dim) != quiver.vertex_count:
        raise RepresentationError(
            f"dimension vector length {len(dim)} != vertex count {quiver.vertex_count}")
    if any(d < 0 for d in dim):
        raise RepresentationError("dimensions must be nonnegative")
    mats: dict[str, np.ndarray] = {}
    for a in quiver.arrows:
        shape = (dim[a.tgt - 1], dim[a.src - 1])
        raw = matrices.get(a.id)
        m = field.zeros(*shape) if raw is None else field.array(raw)
        if m.shape == (0, 0) and shape[0] == 0:  # `to_json` writes a matrix without rows as []
            m = m.reshape(shape)
        if m.shape != shape:
            raise RepresentationError(
                f"arrow {a.id!r}: matrix has shape {m.shape}, expected {shape}")
        mats[a.id] = m
    extra = set(matrices) - set(mats)
    if extra:
        raise RepresentationError(f"matrices given for unknown arrows {sorted(extra)}")
    return Representation(quiver, field, dim, mats)


def zero_representation(quiver: Quiver, field: Field, dim: Sequence[int]) -> Representation:
    return representation(quiver, field, dim, {})


def _random_matrix(field: Field, rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    """Entries drawn row by row from rng: uniform over F_p, integers in [-5, 5] over Q."""
    if isinstance(field, PrimeField):
        return [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)]
    return [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]


def random_representation(quiver: Quiver, field: Field, dim: Sequence[int],
                          rng: random.Random) -> Representation:
    mats = {a.id: _random_matrix(field, rng, int(dim[a.tgt - 1]), int(dim[a.src - 1]))
            for a in quiver.arrows}
    return representation(quiver, field, dim, mats)


def representation_from_json(data: dict, quiver: Quiver | None = None) -> Representation:
    """The representation a `Representation.to_json` document describes; `quiver`,
    when given, replaces the document's own."""
    if not isinstance(data, Mapping):
        raise RepresentationError("representation description must be a mapping")
    q = quiver if quiver is not None else validate_quiver(data["quiver"])
    fld = field_from_json(data["field"])
    return representation(q, fld, data["dim"], data.get("matrices", {}))


def evaluate_path(m: Representation, p: Path) -> np.ndarray:
    """Matrix of the path: identity for e_i, else the ordered arrow product."""
    q = m.quiver
    if not (1 <= p.source <= q.vertex_count and 1 <= p.target <= q.vertex_count):
        raise RepresentationError(f"path {p} does not live in this quiver")
    out = m.field.identity(m.dim[p.source - 1])
    at = p.source
    for aid in p.arrows:
        arrow = q.arrow_map.get(aid)
        if arrow is None or arrow.src != at:
            raise RepresentationError(f"path {p} does not live in this quiver")
        out = linalg.matmul(m.field, m.matrix(aid), out)
        at = arrow.tgt
    if at != p.target:
        raise RepresentationError(f"path {p} does not live in this quiver")
    return out


def _check_pair(m: Representation, n: Representation):
    if m.quiver is not n.quiver and m.quiver != n.quiver:
        raise RepresentationError("representations live over different quivers")
    if m.field != n.field:
        raise RepresentationError("representations live over different fields")


def direct_sum(m: Representation, n: Representation) -> Representation:
    _check_pair(m, n)
    dim = tuple(a + b for a, b in zip(m.dim, n.dim))
    mats = {a.id: linalg.block_diag(m.field, [m.matrix(a.id), n.matrix(a.id)])
            for a in m.quiver.arrows}
    return representation(m.quiver, m.field, dim, mats)


@dataclass(frozen=True, eq=False)
class GroupElement:
    field: Field
    mats: tuple[np.ndarray, ...]  # mats[i-1] acts at vertex i


def group_element(field: Field, mats: Sequence[object]) -> GroupElement:
    out = []
    for g in mats:
        g = field.array(g)
        if g.shape[0] != g.shape[1]:
            raise RepresentationError("group element blocks must be square")
        if g.shape[0] and field.scalar_is_zero(linalg.det(field, g)):
            raise RepresentationError("group element block is singular")
        out.append(g)
    return GroupElement(field, tuple(out))


def random_group_element(field: Field, dim: Sequence[int], rng: random.Random) -> GroupElement:
    mats = []
    for d in dim:
        while True:
            g = field.array(_random_matrix(field, rng, d, d))
            if d == 0 or not field.scalar_is_zero(linalg.det(field, g)):
                mats.append(g)
                break
    return GroupElement(field, tuple(mats))


def compose_group(g: GroupElement, h: GroupElement) -> GroupElement:
    if g.field != h.field:
        raise RepresentationError("group elements over different fields")
    return GroupElement(g.field, tuple(linalg.matmul(g.field, a, b)
                                       for a, b in zip(g.mats, h.mats)))


def act(g: GroupElement, m: Representation) -> Representation:
    """Base change: arrow a: i -> j maps to g_j M_a g_i^{-1}."""
    if g.field != m.field:
        raise RepresentationError("field mismatch between group element and representation")
    if len(g.mats) != m.quiver.vertex_count or any(
            gm.shape[0] != d for gm, d in zip(g.mats, m.dim)):
        raise RepresentationError("group element shapes do not match the dimension vector")
    inverses = [linalg.inv(m.field, gm) if gm.shape[0] else gm for gm in g.mats]
    mats = {}
    for a in m.quiver.arrows:
        mats[a.id] = linalg.matmul(
            m.field, linalg.matmul(m.field, g.mats[a.tgt - 1], m.matrix(a.id)),
            inverses[a.src - 1])
    return representation(m.quiver, m.field, m.dim, mats)


def _hom_system(m: Representation, n: Representation) -> tuple[list[list], list[tuple[str, int, int]], int]:
    """The equations f_j M_a - N_a f_i = 0, one row per arrow a: i -> j and
    entry (r, c) of the n_j x m_i matrix on the left, in arrow order.

    The unknown f_i is an n_i x m_i matrix, vectorized row-major at column
    offset off_i (vertices in order). Row (a, r, c) holds M_a[t][c] at column
    off_j + r*m_j + t and -N_a[r][s] at column off_i + s*m_i + c; on a loop the
    two terms meet at t = c, s = r and are added. Entries are ints in 0..p-1
    over F_p and `Fraction`s over Q, the entry format of `linalg._eliminate`.
    Returns the rows, the (arrow_id, r, c) label of each row and the width.
    """
    fld = m.field
    p = fld.p if isinstance(fld, PrimeField) else 0
    zero = fld.zero
    off = [0]
    for mi, ni in zip(m.dim, n.dim):
        off.append(off[-1] + ni * mi)
    width = off[-1]
    rows: list[list] = []
    labels: list[tuple[str, int, int]] = []
    for a in m.quiver.arrows:
        i, j = a.src - 1, a.tgt - 1
        mi, mj = m.dim[i], m.dim[j]
        oi, oj = off[i], off[j]
        m_cols = m.matrix(a.id).T.tolist()    # m_cols[c][t] = M_a[t][c]
        for r, n_row in enumerate(n.matrix(a.id).tolist()):
            base = oj + r * mj
            for c, m_col in enumerate(m_cols):
                row = [zero] * width
                for t, x in enumerate(m_col):
                    if x:
                        row[base + t] = x
                for s, x in enumerate(n_row):
                    if x:
                        k = oi + s * mi + c
                        row[k] = (row[k] - x) % p if p else row[k] - x
                rows.append(row)
                labels.append((a.id, r, c))
    return rows, labels, width


@dataclass(frozen=True)
class HomSpace:
    dim: int
    basis: tuple[dict[int, np.ndarray], ...]  # vertex -> f_i


@dataclass(frozen=True)
class ExtSpace:
    dim: int
    cokernel: tuple[tuple[str, int, int], ...]  # coordinate representatives


def hom_space(m: Representation, n: Representation) -> HomSpace:
    """Solve f_j M_a = N_a f_i for all arrows; intertwiner basis by vertex."""
    _check_pair(m, n)
    rows, _, width = _hom_system(m, n)
    kernel = linalg._kernel(m.field, rows, width)
    basis = []
    for v in kernel:
        maps = {}
        off = 0
        for i in range(m.quiver.vertex_count):
            size = n.dim[i] * m.dim[i]
            maps[i + 1] = v[off:off + size].reshape(n.dim[i], m.dim[i])
            off += size
        basis.append(maps)
    # dim counts kernel vectors; an arrowless system of width 0 still has hom 0
    return HomSpace(len(kernel), tuple(basis))


def ext_space(m: Representation, n: Representation) -> ExtSpace:
    """Ext^1 as the cokernel of (f_i) |-> (N_a f_i - f_j M_a), on any quiver: the
    labels of the rows that are not pivots of the transposed system's rref."""
    _check_pair(m, n)
    rows, labels, _ = _hom_system(m, n)
    pivot_rows = set(linalg._eliminate(m.field, list(zip(*rows)), len(rows))[2])
    coker = tuple(lab for t, lab in enumerate(labels) if t not in pivot_rows)
    return ExtSpace(len(coker), coker)
