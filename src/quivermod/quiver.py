"""Quivers, oriented paths, dimension vectors and weights.

Vertices are 1-based everywhere in the public API. A path stores its arrows
in application order (the arrow leaving the source first); the product p*q
means "apply q, then p", so evaluation against a representation satisfies
M(p*q) = M(p) M(q).

`int_vector` and `dim_vector` are the one place where outside integers (vertex
counts, arrow ends, dimension vectors, weights, multiplicities) become the
package's ints; `Field.coerce` in :mod:`quivermod.fields` is the one place for
scalars. Entries go through `operator.index`, so a float or a numeric string
raises instead of being truncated; a bool raises too.

A `Quiver` checks its own invariants, the types of its parts included,
however it is built, and works out `acyclic` by a `graphlib` sort in which
each arrow makes its source a predecessor of its target; `quiver` only
converts outside values. Its cached `euler_matrix` is the one Euler form,
which `euler_form` and the Schofield table in `moduli` read.
"""
from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from typing import Iterable, Sequence


class QuiverError(ValueError):
    pass


DimVector = tuple[int, ...]
Weight = tuple[int, ...]


def int_vector(v, length: int | None = None, what: str = "weight",
               error: type[ValueError] = QuiverError) -> tuple[int, ...]:
    """`v` as a tuple of Python ints, of `length` entries when given. Anything
    that is not a sequence of integers (`__index__`) raises `error`, and so
    does a bool entry."""
    try:
        if isinstance(v, (str, bytes)):
            raise TypeError
        out = tuple(map(_index, v))
    except TypeError:
        raise error(f"{what}: expected integers, got {v!r}") from None
    if length is not None and len(out) != length:
        raise error(f"{what}: expected {length} entries, got {len(out)}")
    return out


def dim_vector(v, length: int | None = None, what: str = "dimension vector",
               error: type[ValueError] = QuiverError) -> tuple[int, ...]:
    """`int_vector` with nonnegative entries."""
    out = int_vector(v, length, what, error)
    if any(x < 0 for x in out):
        raise error(f"{what}: expected nonnegative entries, got {out}")
    return out


@dataclass(frozen=True)
class Arrow:
    id: str
    src: int
    tgt: int


@dataclass(frozen=True)
class Quiver:
    vertex_count: int
    arrows: tuple[Arrow, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        n = self.vertex_count
        if not _is_int(n) or n < 1:
            raise QuiverError(f"vertex count must be a positive integer, got {n!r}")
        if not (isinstance(self.arrows, tuple) and isinstance(self.labels, tuple)):
            raise QuiverError("arrows and labels must be tuples, so that a quiver is hashable")
        for a in self.arrows:
            if not isinstance(a, Arrow) or not isinstance(a.id, str):
                raise QuiverError(f"arrows must be Arrow values with a str id, got {a!r}")
            if not all(_is_int(e) and 1 <= e <= n for e in (a.src, a.tgt)):
                raise QuiverError(f"arrow {a.id!r}: vertex index out of range")
        if len(self.arrow_map) != len(self.arrows):
            raise QuiverError("duplicate arrow ids")
        if not all(isinstance(label, str) for label in self.labels):
            raise QuiverError(f"labels must be strings, got {self.labels!r}")
        if not len(self.labels) == len(set(self.labels)) == n:
            raise QuiverError("labels must be distinct, one per vertex")

    @cached_property
    def acyclic(self) -> bool:
        return _is_acyclic(self.arrows)

    @cached_property
    def arrow_map(self) -> dict[str, Arrow]:
        return {a.id: a for a in self.arrows}

    @cached_property
    def euler_matrix(self) -> tuple[tuple[int, ...], ...]:
        """E with E_ij = delta_ij - #arrows i -> j, rows and columns 0-based, so
        that <alpha, beta> = alpha . (E beta): the one source of the Euler form."""
        counts, n = Counter((a.src - 1, a.tgt - 1) for a in self.arrows), self.vertex_count
        return tuple(tuple((1 if i == j else 0) - counts[i, j] for j in range(n)) for i in range(n))

    def label(self, vertex: int) -> str:
        return self.labels[vertex - 1]

    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)

    def to_json(self) -> dict:
        return {
            "vertices": self.vertex_count,
            "labels": list(self.labels),
            "arrows": [{"id": a.id, "src": a.src, "tgt": a.tgt} for a in self.arrows],
        }


def _index(x) -> int:
    """`operator.index(x)`, refusing bools (`bool` is an `int` subclass)."""
    if isinstance(x, bool):
        raise TypeError
    return operator.index(x)


def _is_int(x) -> bool:
    """Whether x is an int that is not a bool (`bool` is an `int` subclass)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_acyclic(arrows: Iterable[Arrow]) -> bool:
    sorter = TopologicalSorter()
    for a in arrows:
        sorter.add(a.tgt, a.src)
    try:
        sorter.prepare()
    except CycleError:
        return False
    return True


def quiver(vertex_count: int, arrows: Iterable[tuple[str, int, int]],
           labels: Sequence[str] | None = None) -> Quiver:
    (vertex_count,) = int_vector((vertex_count,), what="vertex count")
    arr = tuple(Arrow(aid, *int_vector((src, tgt), what=f"arrow {aid!r} ends"))
                for aid, src, tgt in arrows)
    if labels is None:
        labels = (f"v{i}" for i in range(1, vertex_count + 1))
    elif isinstance(labels, (str, bytes)):  # would be read one character per label
        raise QuiverError(f"labels: expected one label per vertex, got {labels!r}")
    try:  # the labels are the one input a TypeError can come from
        return Quiver(vertex_count, arr, tuple(labels))
    except TypeError as exc:
        raise QuiverError(f"malformed labels: {exc}") from exc


def validate_quiver(raw) -> Quiver:
    """Build a Quiver from a JSON-style description (or pass one through)."""
    if isinstance(raw, Quiver):
        return raw
    if not isinstance(raw, dict):
        raise QuiverError("quiver description must be a mapping")
    if "vertices" not in raw:
        raise QuiverError("malformed quiver description: no 'vertices'")
    arrows = raw.get("arrows", [])
    if not isinstance(arrows, (list, tuple)) or not all(
            isinstance(a, dict) and {"id", "src", "tgt"} <= a.keys() for a in arrows):
        raise QuiverError('malformed quiver description: "arrows" must be a list of '
                          f'{{"id", "src", "tgt"}} objects, got {arrows!r}')
    return quiver(raw["vertices"], [(a["id"], a["src"], a["tgt"]) for a in arrows],
                  raw.get("labels"))


@dataclass(frozen=True)
class Path:
    source: int
    target: int
    arrows: tuple[str, ...] = field(default=())

    @property
    def length(self) -> int:
        return len(self.arrows)

    def __str__(self) -> str:
        if not self.arrows:
            return f"e{self.source}"
        return "*".join(reversed(self.arrows))


def check_path(q: Quiver, p: Path, error: type[ValueError] = QuiverError) -> Path:
    """`p` when its arrows lead through `q` from `p.source` to `p.target`, two
    vertices of `q`; otherwise raises `error`."""
    at = p.source
    if 1 <= at <= q.vertex_count:
        for aid in p.arrows:
            arrow = q.arrow_map.get(aid)
            if arrow is None or arrow.src != at:
                break
            at = arrow.tgt
        else:
            if at == p.target:
                return p
    raise error(f"path {p} does not live in this quiver")


def compose(p: Path, q: Path) -> Path:
    """The product p*q ("apply q, then p")."""
    if q.target != p.source:
        raise QuiverError(f"paths not composable: {q} ends at {q.target}, {p} starts at {p.source}")
    return Path(q.source, p.target, q.arrows + p.arrows)


def enumerate_paths(q: Quiver, max_len: int | None = None) -> list[Path]:
    """All paths of length <= max_len (all paths when acyclic and unbounded),
    sorted by (length, arrow ids, source)."""
    if max_len is None and not q.acyclic:
        raise QuiverError("cyclic quiver: a length bound is required")
    if max_len is not None:
        (max_len,) = dim_vector((max_len,), what="path length bound")
    frontier = [Path(v, v) for v in q.vertices()]
    paths = list(frontier)
    length = 0
    while frontier and (max_len is None or length < max_len):
        nxt = []
        for p in frontier:
            for a in q.arrows:
                if a.src == p.target:
                    nxt.append(Path(p.source, a.tgt, p.arrows + (a.id,)))
        paths.extend(nxt)
        frontier = nxt
        length += 1
    paths.sort(key=lambda p: (p.length, p.arrows, p.source))
    return paths


def paths_between(q: Quiver, source: int, target: int, max_len: int | None = None) -> list[Path]:
    return [p for p in enumerate_paths(q, max_len) if p.source == source and p.target == target]


def euler_form(q: Quiver, alpha: Sequence[int], beta: Sequence[int]) -> int:
    """<alpha, beta> = alpha . (E beta), E the quiver's `euler_matrix`."""
    a = int_vector(alpha, q.vertex_count, "alpha")
    b = int_vector(beta, q.vertex_count, "beta")
    return sum(x * sum(map(operator.mul, row, b)) for x, row in zip(a, q.euler_matrix))


def theta_pairing(theta: Sequence[int], alpha: Sequence[int]) -> int:
    alpha = int_vector(alpha, what="dimension vector")
    return sum(map(operator.mul, int_vector(theta, len(alpha)), alpha))


def total_dim(alpha: Sequence[int]) -> int:
    return sum(int_vector(alpha, what="dimension vector"))


def _compositions(k: int, n: int):
    """All length-k tuples of nonnegative ints summing to n, lexicographic."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(k - 1, n - first):
            yield (first,) + rest


def enumerate_dimvectors(q: Quiver, n: int, theta: Sequence[int]) -> list[DimVector]:
    """All alpha with d(alpha) = n and theta(alpha) = 0, lexicographically."""
    (n,) = dim_vector((n,), what="total dimension")
    theta = int_vector(theta, q.vertex_count)
    return [a for a in _compositions(q.vertex_count, n) if sum(map(operator.mul, theta, a)) == 0]
