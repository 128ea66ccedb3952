"""Determinantal semi-invariants and universal-localization presentations.

A morphism between direct sums of vertex projectives is a matrix of formal
path combinations; evaluating it at a representation gives a block matrix
whose determinant d_sigma is a semi-invariant. Inverting a finite family of
such morphisms is presented symbolically by adjoining y-variables with the
two diagonal matrix relations. The extended-quiver construction adjoins a
fresh source vertex v0 (internal index k+1) with n arrows to every original
vertex, so morphisms over the original quiver lift verbatim.
"""
from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import linalg
from .fields import QQ, Field, _parse_rational
from .quiver import (Path, Quiver, QuiverError, paths_between, quiver,
                     theta_pairing, trivial_path)
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
    cleaned = tuple((Fraction(c), p) for c, p in terms if Fraction(c) != 0)
    return PathCombination(int(source), int(target), cleaned)


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
        if not self.domain or not self.codomain:
            raise SigmaError("domain and codomain must be nonempty")
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
    try:
        return tuple(operator.index(i) for i in _json_list(data.get(key), key))
    except TypeError as exc:
        raise SigmaError(f"{key} must list vertex numbers") from exc


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
                path = _path_from_arrows(q, src, tgt, tuple(arrows))
                combs.append((_parse_rational(t["coeff"]), path))
            out_row.append(path_combination(src, tgt, combs))
        entries.append(tuple(out_row))
    return SigmaMorphism(q, domain, codomain, tuple(entries),
                         name=data.get("name", "sigma"))


def _path_from_arrows(q: Quiver, source: int, target: int,
                      arrows: tuple[str, ...]) -> Path:
    at = source
    for aid in arrows:
        arrow = q.arrow_map.get(aid)
        if arrow is None or arrow.src != at:
            raise SigmaError(f"arrow sequence {arrows} is not a path from {source}")
        at = arrow.tgt
    if at != target:
        raise SigmaError(f"arrow sequence {arrows} ends at {at}, expected {target}")
    return Path(source, target, arrows)


def sigma_family_for_weight(theta: Sequence[int], z: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Domain/codomain vertex lists of a member of Sigma_z for the weight."""
    theta = tuple(int(t) for t in theta)
    if z < 1:
        raise SigmaError("z must be a positive integer")
    domain = tuple(i + 1 for i, t in enumerate(theta) if t > 0 for _ in range(z * t))
    codomain = tuple(j + 1 for j, t in enumerate(theta) if t < 0 for _ in range(-z * t))
    if not domain or not codomain:
        raise SigmaError("weight needs both positive and negative entries")
    return domain, codomain


def make_sigma(q: Quiver, theta: Sequence[int], z: int,
               max_path_len: int | None = None, seed: int = 0) -> SigmaMorphism:
    """Seeded random member of Sigma_z with bounded-length path entries."""
    if not q.acyclic:
        raise QuiverError("make_sigma requires an acyclic quiver")
    domain, codomain = sigma_family_for_weight(theta, z)
    rng = random.Random(seed)
    entries = []
    for p, i_p in enumerate(domain):
        row = []
        for _, j_q in enumerate(codomain):
            paths = paths_between(q, j_q, i_p, max_path_len)
            terms = [(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), path)
                     for path in paths]
            row.append(path_combination(j_q, i_p, terms))
        entries.append(tuple(row))
    return SigmaMorphism(q, domain, codomain, tuple(entries),
                         name=f"sigma.z{z}.seed{seed}")


def numerical_condition(sigma: SigmaMorphism, alpha: Sequence[int]) -> bool:
    """Is the evaluated block matrix square at dimension vector alpha?"""
    alpha = tuple(int(a) for a in alpha)
    rows = sum(alpha[i - 1] for i in sigma.domain)
    cols = sum(alpha[j - 1] for j in sigma.codomain)
    return rows == cols


def evaluate_sigma(sigma: SigmaMorphism, m: Representation) -> np.ndarray:
    """Block matrix with arrows replaced by the representation's matrices."""
    if sigma.quiver != m.quiver:
        raise RepresentationError("sigma and representation live over different quivers")
    fld = m.field
    row_dims = [m.dim[i - 1] for i in sigma.domain]
    col_dims = [m.dim[j - 1] for j in sigma.codomain]
    out = fld.zeros(sum(row_dims), sum(col_dims))
    r0 = 0
    for p, rd in enumerate(row_dims):
        c0 = 0
        for q, cd in enumerate(col_dims):
            block = fld.zeros(rd, cd)
            for coeff, path in sigma.entries[p][q].terms:
                block = fld.normalize(block + fld.coerce(coeff) * evaluate_path(m, path))
            out[r0:r0 + rd, c0:c0 + cd] = block
            c0 += cd
        r0 += rd
    return out


def semi_invariant(sigma: SigmaMorphism, m: Representation):
    """d_sigma(m) = det of the evaluated matrix; nonzero certifies semistability."""
    if not numerical_condition(sigma, m.dim):
        raise NonSquareError(
            f"numerical condition fails at {m.dim}: evaluated matrix is not square")
    return linalg.det(m.field, evaluate_sigma(sigma, m))


def chi_theta(g: GroupElement, theta: Sequence[int]):
    """Character value prod det(g_i)^{theta_i}."""
    fld = g.field
    out = fld.one
    for gi, t in zip(g.mats, theta):
        d = linalg.det(fld, gi)
        t = int(t)
        if t < 0:
            d = fld.scalar_inv(d)
            t = -t
        for _ in range(t):
            out = fld.mul(out, d)
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
    generators: tuple[str, ...]
    relations: tuple[Relation, ...]
    typing: dict[str, tuple[int, int]]  # generator -> (source, target) vertices

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


def word_typing(pres_typing: dict[str, tuple[int, int]],
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


def _path_algebra_base(q: Quiver) -> tuple[list[str], list[Relation], dict[str, tuple[int, int]]]:
    gens = [q.label(v) for v in q.vertices()]
    typing = {q.label(v): (v, v) for v in q.vertices()}
    rels: list[Relation] = []
    for v in q.vertices():
        lv = q.label(v)
        rels.append(Relation((Term(Fraction(1), (lv, lv)),), lv))
        for w in q.vertices():
            if w != v:
                rels.append(Relation((Term(Fraction(1), (lv, q.label(w))),), "0"))
    rels.append(Relation(tuple(Term(Fraction(1), (q.label(v),)) for v in q.vertices()), "1"))
    for a in q.arrows:
        gens.append(a.id)
        typing[a.id] = (a.src, a.tgt)
        rels.append(Relation((Term(Fraction(1), (q.label(a.tgt), a.id)),), a.id))
        rels.append(Relation((Term(Fraction(1), (a.id, q.label(a.src))),), a.id))
    return gens, rels, typing


def _comb_word(q: Quiver, path: Path) -> tuple[str, ...]:
    if not path.arrows:
        return (q.label(path.source),)
    return tuple(reversed(path.arrows))


def localization_presentation(q: Quiver, sigmas: Sequence[SigmaMorphism]) -> Presentation:
    """Path algebra presentation plus, per sigma, the y-variable matrix and the
    entrywise relations M_sigma N_sigma = diag(v_i), N_sigma M_sigma = diag(v_j)."""
    gens, rels, typing = _path_algebra_base(q)
    for k, sigma in enumerate(sigmas):
        if sigma.quiver != q:
            raise SigmaError("sigma defined over a different quiver")
        u, v = len(sigma.domain), len(sigma.codomain)
        y = [[f"y.s{k}.{qi + 1}.{pi + 1}" for pi in range(u)] for qi in range(v)]
        for qi in range(v):
            for pi in range(u):
                name = y[qi][pi]
                gens.append(name)
                typing[name] = (sigma.domain[pi], sigma.codomain[qi])
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
    return Presentation(tuple(gens), tuple(rels), typing)


@dataclass
class LocalizedPointVerdict:
    invertible: bool
    determinants: list
    inverses: list[np.ndarray] | None
    failing_sigma: int | None = None
    relations_verified: bool = False


def check_localized_point(sigmas: Sequence[SigmaMorphism],
                          m: Representation) -> LocalizedPointVerdict:
    """Is m a point of the localization? Exact inverses returned as witnesses,
    with both matrix-relation families re-verified by evaluation."""
    fld = m.field
    dets = []
    evaluated = []
    for idx, sigma in enumerate(sigmas):
        if not numerical_condition(sigma, m.dim):
            raise NonSquareError(
                f"sigma #{idx}: numerical condition fails at {m.dim}")
        mat = evaluate_sigma(sigma, m)
        d = linalg.det(fld, mat)
        dets.append(d)
        evaluated.append(mat)
        if fld.scalar_is_zero(d):
            return LocalizedPointVerdict(False, dets, None, failing_sigma=idx)
    inverses = []
    ok = True
    for mat in evaluated:
        n_mat = linalg.inv(fld, mat)
        ident = fld.identity(mat.shape[0])
        if not (linalg.equal(fld, linalg.matmul(fld, mat, n_mat), ident)
                and linalg.equal(fld, linalg.matmul(fld, n_mat, mat), ident)):
            ok = False
        inverses.append(n_mat)
    return LocalizedPointVerdict(True, dets, inverses, relations_verified=ok)


# --- extended quiver and the root construction ------------------------------

def extended_quiver(q: Quiver, n: int) -> Quiver:
    """Adjoin a fresh vertex v0 (index k+1, label "v0") with n arrows to each
    original vertex; original indices and arrow ids are unchanged."""
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
    labels = tuple(q.labels) + ("v0",)
    return quiver(k + 1, arrows, labels)


def tau_morphism(q: Quiver, n: int) -> SigmaMorphism:
    """The k x n matrix of the fresh arrows, P_1 + ... + P_k -> n copies of P_0."""
    ext = extended_quiver(q, n)
    k = q.vertex_count
    v0 = k + 1
    xs = [a for a in ext.arrows if a.src == v0]
    by_tgt: dict[int, list[str]] = {}
    for a in xs:
        by_tgt.setdefault(a.tgt, []).append(a.id)
    entries = []
    for i in range(1, k + 1):
        row = []
        for t in range(n):
            aid = by_tgt[i][t]
            row.append(path_combination(v0, i, [(Fraction(1), Path(v0, i, (aid,)))]))
        entries.append(tuple(row))
    return SigmaMorphism(ext, tuple(range(1, k + 1)), tuple([v0] * n),
                         tuple(entries), name="tau")


def _lift_sigma(sigma: SigmaMorphism, ext: Quiver) -> SigmaMorphism:
    return SigmaMorphism(ext, sigma.domain, sigma.codomain, sigma.entries,
                         name=sigma.name)


def root_presentation(q: Quiver, sigmas: Sequence[SigmaMorphism], n: int,
                      loop_len_bound: int = 2) -> tuple[Presentation, list[tuple[str, ...]]]:
    """Presentation of the localization of the extended quiver at the given
    morphisms plus tau, together with the loop words based at v0 that generate
    the corner algebra v0*B*v0."""
    ext = extended_quiver(q, n)
    tau = tau_morphism(q, n)
    lifted = [_lift_sigma(s, ext) for s in sigmas]
    pres = localization_presentation(ext, lifted + [tau])
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
            for name in sorted(alphabet):
                src, tgt = alphabet[name]
                if src != at:
                    continue
                new_word = (name,) + word
                nxt.append((new_word, tgt))
                if tgt == v0:
                    loops.append(new_word)
        frontier = nxt
    loops.sort(key=lambda w: (len(w), w))
    return pres, loops
