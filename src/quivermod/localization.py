"""Determinantal semi-invariants and universal-localization presentations.

A morphism between direct sums of vertex projectives is a matrix of formal
path combinations; evaluating it at a representation gives a block matrix
whose determinant d_sigma is a semi-invariant. Inverting a finite family of
such morphisms is presented symbolically by adjoining y-variables with the
two diagonal matrix relations. The extended-quiver construction adjoins a
fresh source vertex v0 (internal index k+1) with n arrows to every original
vertex, so morphisms over the original quiver lift verbatim.

`evaluate_sigma` evaluates each distinct path of a morphism once per call and
forms each entry of the block matrix as one integer dot product over the
entry's terms, on the field's integer encoding (`Field.ints` and
`Field.elements`), so it is written once for Q and F_p.
`check_localized_point` takes each sigma's determinant and inverse from one
elimination (`linalg._det_inv`) and checks M N = I and N M = I entry by
entry (`linalg._product_is_identity`), building neither product `Matrix`.
`chi_theta` reads the determinants a `GroupElement` took when it was built,
so the transformation law eliminates no group block.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from operator import mul
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
    """Seeded random member of Sigma_z with bounded-length path entries."""
    if not q.acyclic:
        raise QuiverError("make_sigma requires an acyclic quiver")
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
    """Block matrix with arrows replaced by the representation's matrices,
    assembled one block row at a time.

    Each distinct path of sigma is evaluated once per call and kept as the
    field's `ints` of its entries, listed row by row. Each entry of a block
    sum_t c_t P_t is then one integer dot product of the scaled coefficients
    with the paths' entries at that place, over one common scale D
    (`_integer_terms`), made a field element once by the field's `elements`.
    """
    if sigma.quiver != m.quiver:
        raise RepresentationError("sigma and representation live over different quivers")
    fld = m.field
    zero = fld.zero
    path_entries: dict = {}
    col_dims = [m.dim[j - 1] for j in sigma.codomain]
    rows = []
    for i, entry_row in zip(sigma.domain, sigma.entries):
        lines = [[] for _ in range(m.dim[i - 1])]
        for cd, comb in zip(col_dims, entry_row):
            d, cs, entries = _integer_terms(fld, m, comb, path_entries)
            if not cs:
                block = [zero] * (len(lines) * cd)
            else:
                block = fld.elements([sum(map(mul, cs, xs)) for xs in zip(*entries)], d)
            for r, line in enumerate(lines):
                line.extend(block[r * cd:(r + 1) * cd])
        rows.extend(map(tuple, lines))
    return Matrix(tuple(rows), (len(rows), sum(col_dims)))


def _integer_terms(fld: Field, m: Representation, comb: PathCombination, path_entries: dict):
    """(D, cs, entries) with comb evaluated at m equal to sum_t cs[t] * P_t / D,
    the entries of P_t listed row by row in entries[t], all Python ints.
    `path_entries` maps (source, arrows) to `fld.ints` of that path's matrix
    at m, its entries row by row; a path missing from it is evaluated and
    added. With the coefficients c_t = n_t / d and P_t = N_t / e_t, D is d
    times the lcm e of the e_t, and cs[t] = n_t e / e_t."""
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
    return d * e, [n * (e // s) for n, s in zip(ns, scales)], entries


def semi_invariant(sigma: SigmaMorphism, m: Representation):
    """d_sigma(m) = det of the evaluated matrix; nonzero certifies semistability."""
    if not numerical_condition(sigma, m.dim):
        raise NonSquareError(
            f"numerical condition fails at {m.dim}: evaluated matrix is not square")
    return linalg.det(m.field, evaluate_sigma(sigma, m))


def chi_theta(g: GroupElement, theta: Sequence[int]):
    """Character value prod det(g_i)^{theta_i}, from the determinants the
    element holds (`GroupElement.dets`), so nothing is eliminated. Each power
    is one exponentiation, `pow(d, theta_i, p)` in characteristic p and
    `pow(d, theta_i)` over Q (a negative exponent inverts: every det is
    nonzero), so the cost grows with log |theta_i|; a vertex with theta_i = 0
    contributes 1."""
    fld = g.field
    out = fld.one
    for d, t in zip(g.dets, int_vector(theta, len(g.mats))):
        if t:
            out = fld.mul(out, pow(d, t, fld.p or None))
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
    inverses: list[Matrix] | None
    failing_sigma: int | None = None
    relations_verified: bool = False


def check_localized_point(sigmas: Sequence[SigmaMorphism],
                          m: Representation) -> LocalizedPointVerdict:
    """Is m a point of the localization? Exact inverses returned as witnesses,
    with both matrix-relation families re-verified by evaluation. Each sigma
    costs one elimination, which gives its determinant and its inverse; the
    check stops at the first sigma whose determinant vanishes."""
    fld = m.field
    dets = []
    evaluated = []
    inverses = []
    for idx, sigma in enumerate(sigmas):
        if not numerical_condition(sigma, m.dim):
            raise NonSquareError(
                f"sigma #{idx}: numerical condition fails at {m.dim}")
        mat = evaluate_sigma(sigma, m)
        d, n_mat = linalg._det_inv(fld, mat)
        dets.append(d)
        if n_mat is None:
            return LocalizedPointVerdict(False, dets, None, failing_sigma=idx)
        evaluated.append(mat)
        inverses.append(n_mat)
    ok = all(linalg._product_is_identity(fld, mat, n_mat)
             and linalg._product_is_identity(fld, n_mat, mat)
             for mat, n_mat in zip(evaluated, inverses))
    return LocalizedPointVerdict(True, dets, inverses, relations_verified=ok)


# --- extended quiver and the root construction ------------------------------

def extended_quiver(q: Quiver, n: int) -> Quiver:
    """Adjoin a fresh vertex v0 (index k+1, label "v0") with n arrows to each
    original vertex; original indices and arrow ids are unchanged."""
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
    labels = tuple(q.labels) + ("v0",)
    return quiver(k + 1, arrows, labels)


def tau_morphism(q: Quiver, n: int) -> SigmaMorphism:
    """The k x n matrix of the fresh arrows, P_1 + ... + P_k -> n copies of P_0."""
    ext = extended_quiver(q, n)  # checks n
    v0 = q.vertex_count + 1
    # extended_quiver appends the fresh arrows after q's, n per vertex in order
    fresh = [a.id for a in ext.arrows[len(q.arrows):]]
    entries = tuple(
        tuple(path_combination(v0, i, [(Fraction(1), Path(v0, i, (aid,)))])
              for aid in fresh[(i - 1) * n:i * n])
        for i in q.vertices())
    return SigmaMorphism(ext, tuple(q.vertices()), tuple([v0] * n), entries, name="tau")


def root_presentation(q: Quiver, sigmas: Sequence[SigmaMorphism], n: int,
                      loop_len_bound: int = 2) -> tuple[Presentation, list[tuple[str, ...]]]:
    """Presentation of the localization of the extended quiver at the given
    morphisms, which must live over q, plus tau, together with the loop words
    based at v0 that generate the corner algebra v0*B*v0."""
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
