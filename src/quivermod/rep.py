"""Concrete quiver representations over exact fields and their homological
linear algebra: path evaluation, direct sums, base change, Hom and Ext^1.

Every matrix handed to `representation` or `group_element`, as nested lists or
as an ndarray of any dtype, goes through the field's `array`, so it always
holds elements of the field it claims. Hom and Ext^1 come from one two-term
system; path algebras of quivers are hereditary, so this gives Ext^1 on every
quiver, loops and oriented cycles included.
"""
from __future__ import annotations

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
        dim = tuple(int(d) for d in dim)
    except (TypeError, ValueError) as exc:
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


def _hom_system(m: Representation, n: Representation) -> tuple[np.ndarray, list[tuple[str, int, int]]]:
    """Coefficient matrix of f_j M_a - N_a f_i = 0 over all arrows.

    Unknowns are row-major vectorizations of the f_i, blocked by vertex.
    Returns the matrix and the (arrow_id, row, col) label of each equation row.
    """
    fld = m.field
    q = m.quiver
    k = q.vertex_count
    col_sizes = [n.dim[i] * m.dim[i] for i in range(k)]
    col_off = [0]
    for s in col_sizes:
        col_off.append(col_off[-1] + s)
    row_labels: list[tuple[str, int, int]] = []
    for a in q.arrows:
        for r in range(n.dim[a.tgt - 1]):
            for c in range(m.dim[a.src - 1]):
                row_labels.append((a.id, r, c))
    d = fld.zeros(len(row_labels), col_off[-1])
    r0 = 0
    for a in q.arrows:
        i, j = a.src - 1, a.tgt - 1
        nrows = n.dim[j] * m.dim[i]
        if nrows:
            # vec(f_j M_a) = (I_{n_j} kron M_a^T) vec(f_j)
            if col_sizes[j]:
                blk = linalg.kron(fld, fld.identity(n.dim[j]), m.matrix(a.id).T)
                d[r0:r0 + nrows, col_off[j]:col_off[j + 1]] += blk
            # vec(N_a f_i) = (N_a kron I_{m_i}) vec(f_i)
            if col_sizes[i]:
                blk = linalg.kron(fld, n.matrix(a.id), fld.identity(m.dim[i]))
                d[r0:r0 + nrows, col_off[i]:col_off[i + 1]] -= blk
        r0 += nrows
    return fld.normalize(d), row_labels


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
    d, _ = _hom_system(m, n)
    kernel = linalg.nullspace(m.field, d)
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
    """Ext^1 as the cokernel of (f_i) |-> (N_a f_i - f_j M_a), on any quiver."""
    _check_pair(m, n)
    d, labels = _hom_system(m, n)
    if d.shape[1] == 0:
        pivot_rows: set[int] = set()
    else:
        _, pivot_rows_list = linalg.rref(m.field, d.T)
        pivot_rows = set(pivot_rows_list)
    coker = tuple(labels[t] for t in range(len(labels)) if t not in pivot_rows)
    return ExtSpace(len(coker), coker)

