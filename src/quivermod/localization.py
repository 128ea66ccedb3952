"""Determinantal semi-invariants and universal-localization presentations.

A morphism between direct sums of vertex projectives is a matrix of formal
path combinations; evaluating it at a representation gives a block matrix
whose determinant d_sigma is a semi-invariant. Inverting a finite family of
such morphisms is presented symbolically by adjoining y-variables with the
two diagonal matrix relations; a `Presentation` holds its relations and its
typed generators, and reads `generators` off the typing, so the list it
writes and the types it writes cannot disagree. The extended-quiver
construction adjoins a fresh source vertex v0 (internal index k+1, labelled
"v0" with leading underscores until the label is new) with n arrows to every
original vertex, so morphisms over the original quiver lift verbatim.

Sigma evaluation stays on the field's integer encoding from the path
matrices to the verdict. `_sigma_rows` checks that sigma and the
representation share a quiver, evaluates each distinct path of a morphism
once per call and forms each entry of the block matrix as one integer dot
product over the entry's terms, brought into the field's encoding once
(`Field.encode`); it gives the matrix as encoded rows, each over its own
scale, so it is written once for Q and F_p. `evaluate_sigma` turns those
rows into a `Matrix`. `semi_invariant` and `check_localized_point` read
squareness off the rows (as many rows as columns) and eliminate them:
`semi_invariant` by `linalg._eliminate`, `check_localized_point` by
`linalg._det_inv`, which gives each sigma's determinant and inverse, with
M N = I and N M = I checked on ints (`linalg._product_is_identity`). Field
elements are built only for what the caller gets back: the determinants and
the inverses. `chi_theta` reads the determinants a `GroupElement` took when
it was built, so the transformation law eliminates no group block.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from math import lcm
from operator import mul
from types import MappingProxyType
from typing import Mapping, Sequence

from . import linalg
from .fields import QQ, Field, Matrix
from .quiver import (Path, Quiver, QuiverError, check_path, dim_vector, enumerate_paths,
                     int_vector, quiver)
from .rep import GroupElement, Representation, RepresentationError, evaluate_path


class SigmaError(ValueError):
    pass


class NonSquareError(ValueError):
    pass


@dataclass(frozen=True)
class PathCombination:
    """Formal rational combination of paths sharing one (source, target)."""
    source: int
    target: int
    terms: tuple[tuple[Fraction, Path], ...] = ()

    def __post_init__(self):
        for _, p in self.terms:
            if (p.source, p.target) != (self.source, self.target):
                raise SigmaError(
                    f"path {p} is typed ({p.source},{p.target}), "
                    f"combination is typed ({self.source},{self.target})")


def path_combination(source: int, target: int, terms) -> PathCombination:
    """The combination of `terms`, (coefficient, path) pairs, zero terms dropped;
    a coefficient that is not a rational number raises `FieldError`."""
    parsed = [(QQ.coerce(c), p) for c, p in terms]
    source, target = int_vector((source, target), what="path combination ends")
    return PathCombination(source, target, tuple((c, p) for c, p in parsed if c != 0))


@dataclass(frozen=True)
class SigmaMorphism:
    """Morphism P_{i_1} + ... + P_{i_u} -> P_{j_1} + ... + P_{j_v}.

    entries[p][q] is a combination of paths from v_{j_q} to v_{i_p}; its
    evaluation at a representation is the (p, q) block, of shape
    a_{i_p} x a_{j_q}.
    """
    quiver: Quiver
    domain: tuple[int, ...]
    codomain: tuple[int, ...]
    entries: tuple[tuple[PathCombination, ...], ...]
    name: str = "sigma"

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise SigmaError(f"sigma name must be a string, not {self.name!r}")
        if not self.domain or not self.codomain:
            raise SigmaError("domain and codomain must be nonempty")
        k = self.quiver.vertex_count
        bad = [v for v in self.domain + self.codomain if not 1 <= v <= k]
        if bad:
            raise SigmaError(f"vertices {bad} are not among the quiver's vertices 1..{k}")
        if len(self.entries) != len(self.domain) or any(
                len(row) != len(self.codomain) for row in self.entries):
            raise SigmaError("entry matrix shape must be len(domain) x len(codomain)")
        for p, row in enumerate(self.entries):
            for q, comb in enumerate(row):
                want = (self.codomain[q], self.domain[p])
                if (comb.source, comb.target) != want:
                    raise SigmaError(
                        f"entry ({p + 1},{q + 1}) typed ({comb.source},{comb.target}), "
                        f"expected {want}")
                for _, path in comb.terms:
                    check_path(self.quiver, path, SigmaError)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "domain": list(self.domain),
            "codomain": list(self.codomain),
            "entries": [[[{"coeff": str(c), "path": list(p.arrows)}
                          for c, p in comb.terms]
                         for comb in row]
                        for row in self.entries],
        }


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise SigmaError(f"{what} must be a list, not {value!r}")
    return value


def _vertex_list(data: Mapping, key: str) -> tuple[int, ...]:
    return int_vector(_json_list(data.get(key), key), what=key, error=SigmaError)


def sigma_from_json(data: dict, q: Quiver) -> SigmaMorphism:
    """The morphism a `SigmaMorphism.to_json` document describes; a malformed
    document raises `SigmaError` (or `FieldError` for a bad coefficient)."""
    if not isinstance(data, Mapping):
        raise SigmaError("sigma description must be a mapping")
    domain = _vertex_list(data, "domain")
    codomain = _vertex_list(data, "codomain")
    rows = _json_list(data.get("entries"), "entries")
    if len(rows) != len(domain) or any(
            len(_json_list(row, "an entries row")) != len(codomain) for row in rows):
        raise SigmaError("entry matrix shape must be len(domain) x len(codomain)")
    entries = []
    for p, row in enumerate(rows):
        out_row = []
        for qq, terms in enumerate(row):
            src, tgt = codomain[qq], domain[p]
            combs = []
            for t in _json_list(terms, "an entry's terms"):
                if not isinstance(t, Mapping) or "coeff" not in t or "path" not in t:
                    raise SigmaError(f"term {t!r} needs a coeff and a path")
                arrows = _json_list(t["path"], "a term's path")
                if not all(isinstance(aid, str) for aid in arrows):
                    raise SigmaError(f"path {arrows!r} must list arrow ids")
                # checked here too: path_combination drops zero terms
                path = check_path(q, Path(src, tgt, tuple(arrows)), SigmaError)
                combs.append((QQ.coerce(t["coeff"]), path))
            out_row.append(path_combination(src, tgt, combs))
        entries.append(tuple(out_row))
    return SigmaMorphism(q, domain, codomain, tuple(entries),
                         name=data.get("name", "sigma"))


def sigma_family_for_weight(theta: Sequence[int], z: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Domain/codomain vertex lists of a member of Sigma_z for the weight."""
    theta = int_vector(theta)
    (z,) = int_vector((z,), what="z", error=SigmaError)
    if z < 1:
        raise SigmaError("z must be a positive integer")
    domain = tuple(i + 1 for i, t in enumerate(theta) if t > 0 for _ in range(z * t))
    codomain = tuple(j + 1 for j, t in enumerate(theta) if t < 0 for _ in range(-z * t))
    if not domain or not codomain:
        raise SigmaError("weight needs both positive and negative entries")
    return domain, codomain


def make_sigma(q: Quiver, theta: Sequence[int], z: int,
               max_path_len: int | None = None, seed: int = 0) -> SigmaMorphism:
    """Seeded random member of Sigma_z with bounded-length path entries; the
    seed is an integer (`int_vector`), anything else raises `SigmaError`."""
    if not q.acyclic:
        raise QuiverError("make_sigma requires an acyclic quiver")
    (seed,) = int_vector((seed,), what="seed", error=SigmaError)
    domain, codomain = sigma_family_for_weight(int_vector(theta, q.vertex_count), z)
    rng = random.Random(seed)
    paths_of = {}  # (source, target) -> its paths, in `enumerate_paths` order
    for path in enumerate_paths(q, max_path_len):
        paths_of.setdefault((path.source, path.target), []).append(path)
    entries = []
    for i_p in domain:
        row = []
        for j_q in codomain:
            paths = paths_of.get((j_q, i_p), ())
            terms = [(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), path)
                     for path in paths]
            row.append(path_combination(j_q, i_p, terms))
        entries.append(tuple(row))
    return SigmaMorphism(q, domain, codomain, tuple(entries),
                         name=f"sigma.z{z}.seed{seed}")


def numerical_condition(sigma: SigmaMorphism, alpha: Sequence[int]) -> bool:
    """Is the evaluated block matrix square at dimension vector alpha?"""
    alpha = dim_vector(alpha, sigma.quiver.vertex_count)
    rows = sum(alpha[i - 1] for i in sigma.domain)
    cols = sum(alpha[j - 1] for j in sigma.codomain)
    return rows == cols


def evaluate_sigma(sigma: SigmaMorphism, m: Representation) -> Matrix:
    """Block matrix with arrows replaced by the representation's matrices: the
    rows `_sigma_rows` gives, as field elements."""
    rows, width = _sigma_rows(sigma, m)
    return linalg._matrix(m.field, rows, width)


def _sigma_rows(sigma: SigmaMorphism, m: Representation) -> tuple[list, int]:
    """(rows, width): sigma evaluated at m as encoded rows (d, ns), the entry
    format of `linalg._eliminate`, assembled one block row at a time.

    Each distinct path of sigma is evaluated once per call and kept as the
    field's `ints` of its entries, listed row by row. Each block is then one
    integer dot product per entry (`_block`), over one scale for the block;
    a block row is put on the lcm of its blocks' scales.
    """
    if sigma.quiver != m.quiver:
        raise RepresentationError("sigma and representation live over different quivers")
    fld = m.field
    path_entries: dict = {}
    col_dims = [m.dim[j - 1] for j in sigma.codomain]
    rows = []
    for i, entry_row in zip(sigma.domain, sigma.entries):
        height = m.dim[i - 1]
        blocks = [_block(fld, m, comb, height * cd, path_entries)
                  for cd, comb in zip(col_dims, entry_row)]
        scale = lcm(*[d for d, _ in blocks])
        blocks = [xs if d == scale else [x * (scale // d) for x in xs] for d, xs in blocks]
        for r in range(height):
            line = []
            for cd, xs in zip(col_dims, blocks):
                line += xs[r * cd:(r + 1) * cd]
            rows.append((scale, line))
    return rows, sum(col_dims)


def _block(fld: Field, m: Representation, comb: PathCombination, size: int,
           path_entries: dict) -> tuple[int, list[int]]:
    """comb evaluated at m, its `size` entries row by row, in the field's
    encoding (D, ns). `path_entries` maps (source, arrows) to `fld.ints` of
    that path's matrix at m, its entries row by row; a path missing from it
    is evaluated and added. With the coefficients c_t = n_t / d (`fld.ints`
    of the coerced coefficients) and the paths P_t = N_t / e_t, each entry is
    sum_t n_t (e / e_t) N_t over d e, e the lcm of the e_t. The coefficients
    are coerced first, so one that is not in the field raises `FieldError`
    however many entries the block has."""
    if not comb.terms:
        return 1, [0] * size
    scales, entries = [], []
    for _, path in comb.terms:
        key = (path.source, path.arrows)
        if key not in path_entries:
            path_entries[key] = fld.ints([x for row in evaluate_path(m, path).rows for x in row])
        e, flat = path_entries[key]
        scales.append(e)
        entries.append(flat)
    d, ns = fld.ints([fld.coerce(c) for c, _ in comb.terms])
    e = lcm(*scales)
    cs = [n * (e // s) for n, s in zip(ns, scales)]
    return fld.encode([sum(map(mul, cs, xs)) for xs in zip(*entries)], d * e)


def semi_invariant(sigma: SigmaMorphism, m: Representation):
    """d_sigma(m) = det of the evaluated matrix; nonzero certifies semistability."""
    rows, width = _sigma_rows(sigma, m)
    if len(rows) != width:
        raise NonSquareError(
            f"numerical condition fails at {m.dim}: evaluated matrix is not square")
    return linalg._eliminate(m.field, rows, width)[3]


def chi_theta(g: GroupElement, theta: Sequence[int]):
    """Character value prod det(g_i)^{theta_i}, from the determinants the
    element holds (`GroupElement.dets`), so nothing is eliminated. Each power
    is one exponentiation (`Field.power`; a negative exponent inverts: every
    det is nonzero), so the cost grows with log |theta_i|; a vertex with
    theta_i = 0 contributes 1."""
    fld = g.field
    out = fld.one
    for d, t in zip(g.dets, int_vector(theta, len(g.mats))):
        if t:
            out = fld.mul(out, fld.power(d, t))
    return out


# --- symbolic presentations -------------------------------------------------

@dataclass(frozen=True)
class Term:
    coeff: Fraction
    word: tuple[str, ...]  # leftmost factor applied last


@dataclass(frozen=True)
class Relation:
    lhs: tuple[Term, ...]
    rhs: str  # generator name, "0" or "1"


@dataclass(frozen=True)
class Presentation:
    relations: tuple[Relation, ...]
    # generator -> (source, target) vertices, a read-only copy of the mapping given
    typing: Mapping[str, tuple[int, int]] = dc_field(hash=False)

    def __post_init__(self):
        object.__setattr__(self, "typing", MappingProxyType(dict(self.typing)))

    @property
    def generators(self) -> tuple[str, ...]:
        """The keys of `typing`, in its order."""
        return tuple(self.typing)

    def to_json(self) -> dict:
        return {
            "generators": list(self.generators),
            "relations": [
                {"lhs": [{"coeff": str(t.coeff), "word": list(t.word)} for t in r.lhs],
                 "rhs": r.rhs}
                for r in self.relations],
            "typing": {g: list(st) for g, st in self.typing.items()},
        }

    def to_text(self) -> str:
        lines = ["generators: " + " ".join(self.generators)]
        for r in self.relations:
            if r.lhs:
                lhs = " + ".join(
                    ("" if t.coeff == 1 else f"({t.coeff})*") + "*".join(t.word)
                    for t in r.lhs)
            else:
                lhs = "0"
            lines.append(f"  {lhs} = {r.rhs}")
        return "\n".join(lines)


def word_typing(pres_typing: Mapping[str, tuple[int, int]],
                word: tuple[str, ...]) -> tuple[int, int] | None:
    """(source, target) of a composable word (leftmost factor applied last),
    None if the word is empty, unknown or not composable."""
    if not word:
        return None
    at = None
    src = None
    for sym in reversed(word):
        if sym not in pres_typing:
            return None
        s, t = pres_typing[sym]
        if at is None:
            src = s
        elif s != at:
            return None
        at = t
    return (src, at)


def _add_generator(typing: dict[str, tuple[int, int]], name: str, ends: tuple[int, int]):
    """Append `name`, typed (source, target), to the ordered generator table.
    A name that is not a string, used twice, empty, "0" or "1" (the constants a
    right-hand side may be), or holding whitespace or one of `*()=` (which
    `to_text` writes between names) would make the presentation ambiguous."""
    if (not isinstance(name, str) or name in typing or name in ("", "0", "1")
            or any(c.isspace() or c in "*()=" for c in name)):
        raise SigmaError(f"generator name {name!r} is ambiguous in the presentation")
    typing[name] = ends


def _path_algebra_base(q: Quiver) -> tuple[list[Relation], dict[str, tuple[int, int]]]:
    typing: dict[str, tuple[int, int]] = {}
    for v in q.vertices():
        _add_generator(typing, q.label(v), (v, v))
    rels: list[Relation] = []
    for v in q.vertices():
        lv = q.label(v)
        rels.append(Relation((Term(Fraction(1), (lv, lv)),), lv))
        for w in q.vertices():
            if w != v:
                rels.append(Relation((Term(Fraction(1), (lv, q.label(w))),), "0"))
    rels.append(Relation(tuple(Term(Fraction(1), (q.label(v),)) for v in q.vertices()), "1"))
    for a in q.arrows:
        _add_generator(typing, a.id, (a.src, a.tgt))
        rels.append(Relation((Term(Fraction(1), (q.label(a.tgt), a.id)),), a.id))
        rels.append(Relation((Term(Fraction(1), (a.id, q.label(a.src))),), a.id))
    return rels, typing


def _comb_word(q: Quiver, path: Path) -> tuple[str, ...]:
    if not path.arrows:
        return (q.label(path.source),)
    return tuple(reversed(path.arrows))


def localization_presentation(q: Quiver, sigmas: Sequence[SigmaMorphism]) -> Presentation:
    """Path algebra presentation plus, per sigma, the y-variable matrix and the
    entrywise relations M_sigma N_sigma = diag(v_i), N_sigma M_sigma = diag(v_j).
    The generators are the keys of `typing`, in order; a name that two of them
    would share (a vertex label, an arrow id or a y-variable), or an arrow
    named 0 or 1, is a `SigmaError`."""
    rels, typing = _path_algebra_base(q)
    for k, sigma in enumerate(sigmas):
        if sigma.quiver != q:
            raise SigmaError("sigma defined over a different quiver")
        u, v = len(sigma.domain), len(sigma.codomain)
        y = [[f"y.s{k}.{qi + 1}.{pi + 1}" for pi in range(u)] for qi in range(v)]
        for qi in range(v):
            for pi in range(u):
                _add_generator(typing, y[qi][pi], (sigma.domain[pi], sigma.codomain[qi]))
        # (M_sigma N_sigma)[p, r] = delta_pr v_{i_p}
        for p in range(u):
            for r in range(u):
                terms = []
                for qi in range(v):
                    for coeff, path in sigma.entries[p][qi].terms:
                        terms.append(Term(coeff, _comb_word(q, path) + (y[qi][r],)))
                rhs = q.label(sigma.domain[p]) if p == r else "0"
                rels.append(Relation(tuple(terms), rhs))
        # (N_sigma M_sigma)[q, s] = delta_qs v_{j_q}
        for qi in range(v):
            for s in range(v):
                terms = []
                for p in range(u):
                    for coeff, path in sigma.entries[p][s].terms:
                        terms.append(Term(coeff, (y[qi][p],) + _comb_word(q, path)))
                rhs = q.label(sigma.codomain[qi]) if qi == s else "0"
                rels.append(Relation(tuple(terms), rhs))
    return Presentation(tuple(rels), typing)


@dataclass
class LocalizedPointVerdict:
    invertible: bool
    determinants: list
    inverses: list[Matrix] | None
    failing_sigma: int | None = None
    relations_verified: bool = False


def check_localized_point(sigmas: Sequence[SigmaMorphism],
                          m: Representation) -> LocalizedPointVerdict:
    """Is m a point of the localization? Exact inverses returned as witnesses,
    with both matrix-relation families re-verified by evaluation. Each sigma
    costs one elimination, which gives its determinant and its inverse; the
    check stops at the first sigma whose determinant vanishes. The relations
    are checked on the encoded rows, so the only field elements built are the
    determinants and the inverses returned."""
    fld = m.field
    dets, evaluated, inverses = [], [], []
    for idx, sigma in enumerate(sigmas):
        rows, width = _sigma_rows(sigma, m)
        if len(rows) != width:
            raise NonSquareError(
                f"sigma #{idx}: numerical condition fails at {m.dim}")
        d, inverse = linalg._det_inv(fld, rows)
        dets.append(d)
        if inverse is None:
            return LocalizedPointVerdict(False, dets, None, failing_sigma=idx)
        evaluated.append(rows)
        inverses.append(inverse)
    ok = all(linalg._product_is_identity(fld, rows, inverse)
             and linalg._product_is_identity(fld, inverse, rows)
             for rows, inverse in zip(evaluated, inverses))
    return LocalizedPointVerdict(True, dets, [linalg._matrix(fld, inverse, len(inverse))
                                              for inverse in inverses],
                                 relations_verified=ok)


# --- extended quiver and the root construction ------------------------------

def extended_quiver(q: Quiver, n: int) -> Quiver:
    """Adjoin a fresh vertex v0 (index k+1) with n arrows x_i_t to each
    original vertex i; original indices, labels and arrow ids are unchanged.
    A fresh arrow id or the fresh label ("v0") that is already taken gets
    leading underscores until it is new: a quiver labelled v0, v1 gets the
    label "_v0"."""
    (n,) = int_vector((n,), what="n")
    if n < 1:
        raise QuiverError("n must be >= 1")
    k = q.vertex_count
    arrows = [(a.id, a.src, a.tgt) for a in q.arrows]
    existing = {a.id for a in q.arrows}
    for i in q.vertices():
        for t in range(1, n + 1):
            aid = f"x_{i}_{t}"
            while aid in existing:
                aid = "_" + aid
            existing.add(aid)
            arrows.append((aid, k + 1, i))
    label = "v0"
    while label in q.labels:
        label = "_" + label
    return quiver(k + 1, arrows, q.labels + (label,))


def tau_morphism(q: Quiver, n: int) -> SigmaMorphism:
    """The k x n matrix of the fresh arrows, P_1 + ... + P_k -> n copies of P_0."""
    ext = extended_quiver(q, n)  # checks n
    v0 = q.vertex_count + 1
    entries = tuple(
        tuple(path_combination(v0, i, [(Fraction(1), Path(v0, i, (a.id,)))])
              for a in ext.arrows if a.src == v0 and a.tgt == i)
        for i in q.vertices())
    return SigmaMorphism(ext, tuple(q.vertices()), tuple([v0] * n), entries, name="tau")


def root_presentation(q: Quiver, sigmas: Sequence[SigmaMorphism], n: int,
                      loop_len_bound: int = 3) -> tuple[Presentation, list[tuple[str, ...]]]:
    """Presentation of the localization of the extended quiver at the given
    morphisms, which must live over q, plus tau, together with the loop words
    based at v0 of length at most `loop_len_bound`.

    At the default bound 3 these words generate the corner algebra v0*B*v0.
    tau's relations give sum_t x_{i,t} y_{t,j} = delta_ij e_i. Inserted
    between any two factors of a loop at v0, they split it into loops
    y*g*x of length <= 3, with g an arrow or a sigma's y-variable. A loop of
    length 2 is some y*x, so bound 2 sees neither the arrows nor a
    sigma's y-variables."""
    (loop_len_bound,) = int_vector((loop_len_bound,), what="loop_len_bound")
    if loop_len_bound < 0:
        raise QuiverError("loop_len_bound must be >= 0")
    if any(s.quiver != q for s in sigmas):
        raise SigmaError("sigma defined over a different quiver")
    tau = tau_morphism(q, n)
    ext = tau.quiver
    pres = localization_presentation(ext, [replace(s, quiver=ext) for s in sigmas] + [tau])
    v0 = q.vertex_count + 1
    # loop words range over arrows and y-variables; idempotents excluded
    idempotents = {ext.label(v) for v in ext.vertices()}
    alphabet = {name: st for name, st in pres.typing.items()
                if name not in idempotents}
    loops: list[tuple[str, ...]] = [(ext.label(v0),)]
    frontier: list[tuple[tuple[str, ...], int]] = [((), v0)]  # (word so far, current target going left)
    for _ in range(loop_len_bound):
        nxt = []
        for word, at in frontier:
            for name, (src, tgt) in alphabet.items():
                if src != at:
                    continue
                new_word = (name,) + word
                nxt.append((new_word, tgt))
                if tgt == v0:
                    loops.append(new_word)
        frontier = nxt
    loops.sort(key=lambda w: (len(w), w))  # fixes the order, whatever the frontier's
    return pres, loops
