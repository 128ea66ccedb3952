"""Concrete quiver representations over exact fields and their homological
linear algebra: path evaluation, direct sums, base change, Hom and Ext^1.

Every matrix handed to `representation` or `group_element`, as nested lists,
a `Matrix` or, at this boundary only, an ndarray of any dtype, goes through the
field's `array`, so it always holds elements of the field it claims; this
module never reads the characteristic (`fields` encodes, draws and powers).
Matrices, group element blocks and Hom bases are immutable `Matrix` values,
so a path of one arrow evaluates to the arrow's own matrix. A `GroupElement`
eliminates each block once, when it is built, and keeps the block's
determinant and inverse: `act` and `compose_group` use them and run no
elimination of their own. A longer path's M(a_k) ... M(a_1) and each
g_j M_a g_i^-1 of `act` are one `linalg.matmul` chain, a product on the
field's integer encoding, turned into field elements once.

Hom and Ext^1 come from the two-term intertwiner complex
(f_i) |-> (f_j M_a - N_a f_i), from the sum over vertices of Hom(M_i, N_i) to
the sum over arrows a: i -> j of Hom(M_i, N_j); path algebras of quivers are
hereditary, so this gives Ext^1 on every quiver, loops and oriented cycles
included. `_hom_system` encodes each arrow's matrices once (`Field.ints`) and
writes integer rows, one per arrow a and entry (r, c), with the unknown f_i
vectorized row-major in the block of columns of vertex i. `hom_space` and
`ext_space` pass them as they are to one elimination: of the rows for Hom,
the kernel; of their transpose for Ext^1, whose cokernel representatives are
the labels (a, r, c) of the rows that are not pivots there.
"""
from __future__ import annotations

import random
from dataclasses import KW_ONLY, InitVar, dataclass, field as _field
from itertools import chain
from types import MappingProxyType
from typing import Mapping, Sequence

from . import linalg
from .fields import Field, Matrix, field_from_json
from .quiver import DimVector, Path, Quiver, check_path, dim_vector, validate_quiver


class RepresentationError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Representation:
    quiver: Quiver
    field: Field
    dim: DimVector
    matrices: Mapping[str, Matrix]  # arrow id -> matrix, a read-only copy of the mapping given

    def __post_init__(self):
        object.__setattr__(self, "matrices", MappingProxyType(dict(self.matrices)))

    def matrix(self, arrow_id: str) -> Matrix:
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
    """The representation with the given matrices (lists, `Matrix` values or
    ndarrays, coerced into `field`); arrows without a matrix get the zero map."""
    dim = dim_vector(dim, quiver.vertex_count, error=RepresentationError)
    if not isinstance(matrices, Mapping):
        raise RepresentationError("matrices must map arrow ids to matrices")
    mats: dict[str, Matrix] = {}
    for a in quiver.arrows:
        shape = (dim[a.tgt - 1], dim[a.src - 1])
        raw = matrices.get(a.id)
        m = field.zeros(*shape) if raw is None else field.array(raw)
        if m.shape == (0, 0) and shape[0] == 0:  # `to_json` writes a matrix without rows as []
            m = field.zeros(*shape)
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


def random_representation(quiver: Quiver, field: Field, dim: Sequence[int],
                          rng: random.Random) -> Representation:
    dim = dim_vector(dim, quiver.vertex_count, error=RepresentationError)
    mats = {a.id: field.random_matrix(rng, dim[a.tgt - 1], dim[a.src - 1])
            for a in quiver.arrows}
    return representation(quiver, field, dim, mats)


def representation_from_json(data: dict, quiver: Quiver | None = None) -> Representation:
    """The representation a `Representation.to_json` document describes; `quiver`,
    when given, replaces the document's own."""
    if not isinstance(data, Mapping):
        raise RepresentationError("representation description must be a mapping")
    for key in ("field", "dim") if quiver is not None else ("quiver", "field", "dim"):
        if key not in data:
            raise RepresentationError(f"malformed representation description: no {key!r}")
    q = quiver if quiver is not None else validate_quiver(data["quiver"])
    fld = field_from_json(data["field"])
    return representation(q, fld, data["dim"], data.get("matrices", {}))


def evaluate_path(m: Representation, p: Path) -> Matrix:
    """Matrix of the path: identity for e_i, the arrow's own matrix for one
    arrow, else M(a_k) ... M(a_1) as one `linalg.matmul` chain."""
    check_path(m.quiver, p, RepresentationError)
    if len(p.arrows) > 1:
        return linalg.matmul(m.field, *[m.matrix(aid) for aid in reversed(p.arrows)])
    return m.matrix(p.arrows[0]) if p.arrows else m.field.identity(m.dim[p.source - 1])


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
    """An element of GL(alpha), the product of the GL(alpha_i): `mats[i-1]`
    acts at vertex i. Building one eliminates each block once, by
    `linalg._det_inv`, which checks that it is invertible and gives its
    determinant `dets[i-1]` and its inverse `inverses[i-1]`; a block that is
    not a square `Matrix`, or is singular, raises `RepresentationError`.
    `act`, `compose_group` and `localization.chi_theta` read these fields and
    eliminate nothing. `_known`, the (dets, inverses) of `mats`, is trusted
    unchecked; it is keyword-only, for this module's own constructors, which
    already hold them."""
    field: Field
    mats: tuple[Matrix, ...]
    dets: tuple = _field(init=False)
    inverses: tuple[Matrix, ...] = _field(init=False)
    _: KW_ONLY
    _known: InitVar[tuple | None] = None

    def __post_init__(self, _known):
        object.__setattr__(self, "mats", tuple(self.mats))
        if _known is None:
            dets, inverses = [], []
            for g in self.mats:
                if not isinstance(g, Matrix) or g.shape[0] != g.shape[1]:
                    raise RepresentationError("group element blocks must be square matrices")
                det, inverse = linalg._det_inv(self.field, linalg._encoded(self.field, g))
                if inverse is None:
                    raise RepresentationError("group element block is singular")
                dets.append(det)
                inverses.append(linalg._matrix(self.field, inverse, g.shape[0]))
        else:
            dets, inverses = _known
        object.__setattr__(self, "dets", tuple(dets))
        object.__setattr__(self, "inverses", tuple(inverses))


def group_element(field: Field, mats: Sequence[object]) -> GroupElement:
    """The group element with the given blocks (lists, `Matrix` values or
    ndarrays, coerced into `field`)."""
    return GroupElement(field, tuple(field.array(g) for g in mats))


def random_group_element(field: Field, dim: Sequence[int], rng: random.Random) -> GroupElement:
    """Blocks drawn with `Field.random_matrix`, each redrawn until it is invertible;
    the elimination that tests a block also gives its determinant and inverse."""
    mats, dets, inverses = [], [], []
    for d in dim_vector(dim, error=RepresentationError):
        while True:
            g = field.array(field.random_matrix(rng, d, d))
            det, inverse = linalg._det_inv(field, linalg._encoded(field, g))
            if inverse is not None:
                break
        mats.append(g)
        dets.append(det)
        inverses.append(linalg._matrix(field, inverse, d))
    return GroupElement(field, tuple(mats), _known=(dets, inverses))


def compose_group(g: GroupElement, h: GroupElement) -> GroupElement:
    """The blockwise product g h. Its determinants are the products of the
    factors' and its inverses are h_i^-1 g_i^-1, so nothing is eliminated."""
    if g.field != h.field:
        raise RepresentationError("group elements over different fields")
    if len(g.mats) != len(h.mats) or any(a.shape != b.shape for a, b in zip(g.mats, h.mats)):
        raise RepresentationError("group elements of different dimension vectors")
    fld = g.field
    mats = tuple(linalg.matmul(fld, a, b) for a, b in zip(g.mats, h.mats))
    dets = [fld.mul(a, b) for a, b in zip(g.dets, h.dets)]
    inverses = [linalg.matmul(fld, b, a) for a, b in zip(g.inverses, h.inverses)]
    return GroupElement(fld, mats, _known=(dets, inverses))


def act(g: GroupElement, m: Representation) -> Representation:
    """Base change: arrow a: i -> j maps to g_j M_a g_i^{-1}, with the inverse
    the element already holds, as one product of three factors. The products
    are already in field form and of shape (d_j, d_i), so they are not coerced
    again."""
    if g.field != m.field:
        raise RepresentationError("field mismatch between group element and representation")
    if len(g.mats) != m.quiver.vertex_count or any(
            gm.shape[0] != d for gm, d in zip(g.mats, m.dim)):
        raise RepresentationError("group element shapes do not match the dimension vector")
    mats = {a.id: linalg.matmul(m.field, g.mats[a.tgt - 1], m.matrix(a.id),
                                g.inverses[a.src - 1])
            for a in m.quiver.arrows}
    return Representation(m.quiver, m.field, m.dim, mats)


def _hom_system(m: Representation, n: Representation) -> tuple[list, list, list[int]]:
    """The equations f_j M_a - N_a f_i = 0, one row per arrow a: i -> j and
    entry (r, c) of the n_j x m_i matrix on the left, in arrow order.

    The unknown f_i is an n_i x m_i matrix, vectorized row-major at column
    offset off_i (vertices in order). With M_a = A / d and N_a = B / e, row
    (a, r, c) is the encoded row over d e (`linalg._eliminate`'s entry) holding
    e A[t][c] at column off_j + r*m_j + t and -d B[r][s] at off_i + s*m_i + c;
    on a loop the two meet at t = c, s = r and are added (in (-p, p) over F_p).
    Returns the rows, their (arrow_id, r, c) labels and off_1, ..., off_k, width.
    """
    fld = m.field
    off = [0]
    for mi, ni in zip(m.dim, n.dim):
        off.append(off[-1] + ni * mi)
    width = off[-1]
    rows: list[tuple[int, list[int]]] = []
    labels: list[tuple[str, int, int]] = []
    for a in m.quiver.arrows:
        i, j = a.src - 1, a.tgt - 1
        mi, mj, ni = m.dim[i], m.dim[j], n.dim[i]
        oi, oj = off[i], off[j]
        d, xs = fld.ints(list(chain.from_iterable(m.matrix(a.id).rows)))   # A, row-major
        e, ys = fld.ints(list(chain.from_iterable(n.matrix(a.id).rows)))   # B, row-major
        scale = d * e
        for r in range(n.dim[j]):
            base = oj + r * mj
            n_row = ys[r * ni:(r + 1) * ni]     # B[r][s]
            for c in range(mi):
                row = [0] * width
                for t, x in enumerate(xs[c::mi]):   # A[t][c]
                    if x:
                        row[base + t] = e * x
                for s, y in enumerate(n_row):
                    if y:
                        row[oi + s * mi + c] -= d * y
                rows.append((scale, row))
                labels.append((a.id, r, c))
    return rows, labels, off


@dataclass(frozen=True)
class HomSpace:
    dim: int
    # vertex -> f_i, per basis element a read-only copy of the mapping given
    basis: tuple[Mapping[int, Matrix], ...] = _field(hash=False)

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(MappingProxyType(dict(b)) for b in self.basis))


@dataclass(frozen=True)
class ExtSpace:
    dim: int
    cokernel: tuple[tuple[str, int, int], ...]  # coordinate representatives


def hom_space(m: Representation, n: Representation) -> HomSpace:
    """Solve f_j M_a = N_a f_i for all arrows; intertwiner basis by vertex."""
    _check_pair(m, n)
    rows, _, off = _hom_system(m, n)
    kernel = linalg._kernel(m.field, rows, off[-1])
    basis = tuple({i + 1: Matrix(tuple(v[o + r * mi:o + (r + 1) * mi] for r in range(ni)), (ni, mi))
                   for i, (o, ni, mi) in enumerate(zip(off, n.dim, m.dim))}
                  for v in kernel)
    # dim counts kernel vectors; an arrowless system of width 0 still has hom 0
    return HomSpace(kernel.shape[0], basis)


def ext_space(m: Representation, n: Representation) -> ExtSpace:
    """Ext^1 as the cokernel of (f_i) |-> (N_a f_i - f_j M_a), on any quiver: the
    labels of the rows that are not pivots of the transposed system's rref, read
    off the numerators over scale 1: scaling a column moves no pivot."""
    _check_pair(m, n)
    rows, labels, _ = _hom_system(m, n)
    columns = [(1, col) for col in zip(*[ns for _, ns in rows])]
    pivot_rows = set(linalg._eliminate(m.field, columns, len(rows))[2])
    coker = tuple(lab for t, lab in enumerate(labels) if t not in pivot_rows)
    return ExtSpace(len(coker), coker)
