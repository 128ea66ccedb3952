"""Dimension-vector level algorithms: generic Ext via Schofield's generic
subvectors, nonemptiness of the (semi)stable loci, moduli dimensions, and the
local quiver at a semisimple point as a `Quiver` (`LocalQuiverData.quiver`).

ext(alpha, beta) is the maximum of 0 and of -<alpha, q> over the generic
quotients q = beta - beta' of beta, beta' a generic subvector; beta' <= beta
is a generic subvector iff ext(beta', beta - beta') = 0, that is iff
<beta', q> >= 0 for every nonzero generic quotient q of beta - beta'.
Cross-checked against finite-field sampling.

A `GenericExtTable` fills these lists bottom-up, every dimension vector below
the one asked for in lexicographic order, so each list is computed once per
fill and nothing recurses, and reads ext(alpha, beta) off the list of beta:
max over its generic subvectors s of <alpha, s> - <alpha, beta>, where s = beta
gives 0. The fill names every vector of the box by its position in product
order, so the quotient gamma - beta sits at index(gamma) - index(beta), and
keeps, per position d, the pairings <beta, box[d]> with every beta of the box
as one packed int, read off `Quiver.euler_matrix`, the one Euler form, which
`euler_form` reads too. The AND of the packed pairings of gamma's nonzero
generic quotients holds, in the sign bit of field beta, whether beta passes
every one of them, so each subvector test is one bit probe in a byte string.
Each list of generic subvectors runs in product order from 0 to the vector
itself. Inputs are validated, by `quiver.dim_vector`, at its public methods
(`ext`, `generic_subdimvectors`); its constructor is the one acyclicity
check, and every function here takes its table first.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import mul
from typing import Sequence

from .fields import Rationals
from .quiver import (DimVector, Quiver, QuiverError, dim_vector, euler_form, int_vector,
                     quiver, theta_pairing, total_dim)
from .rep import Representation, hom_space
from .stability import DEFAULT_BUDGET, check_budget, is_stable


class CyclicQuiverError(QuiverError):
    pass


class GenericExtTable:
    """Generic Ext^1 dimensions for one acyclic quiver, from a table filled
    bottom-up: `_subs` maps a dimension vector to its generic subvectors, the
    one thing a table keeps; `ext` reads Schofield's formula off them.

    `_fill(top)` walks the box under top as one list `box` in product order,
    in which the position of v is its flat index sum_k v_k r_k with
    r_k = prod_{l > k} (top_l + 1), so box[index(v)] == v. The index is
    linear, so for beta <= gamma the quotient gamma - beta sits at
    index(gamma) - index(beta), and the positions of the beta <= gamma are
    summed one coordinate at a time; `_subs[gamma]` holds the box's own tuples.

    The pairings are packed: one int per position d holds, in a field of
    8 * width bits at each position bi, <box[bi], box[d]> + 2^(8 width - 1),
    width the fewest bytes that keep every pairing on the box a digit of its
    field, so the field's top bit says <box[bi], box[d]> >= 0. The Euler form
    is linear, so the int of box[d] is that of box[d] - e_k plus one packed
    column per coordinate k, built from E, the `euler_matrix`. beta passes
    gamma iff <beta, q> >= 0 for every nonzero generic quotient q = gamma - s,
    so the AND of their ints holds every verdict for gamma at once; stored as
    bytes, it is gamma's pass mask, and testing beta against gamma - beta is
    the one bit probe masks[index(gamma - beta)][width * index(beta) + width - 1]
    & 0x80. beta = 0 probes gamma's own mask, not yet made, whose stand-in
    passes it. A probe of the mask at position d reads a field below n - d, n
    the size of the box, so ints and masks keep only those fields.

    Filling up to alpha costs about sum over gamma <= alpha of
    prod_i (gamma_i + 1) bit probes, one AND per generic subvector and
    position, each over at most n fields, and O(n^2 * width) bytes of ints
    and masks while it runs; no budget bounds it. `quivermod ssne` on K3 at
    alpha = (30, 30) takes 0.16 s and (60, 60) 1.0 s (2 vCPUs). The n^2
    bytes weigh on thin boxes of many vertices: at alpha = (1, ..., 1) on the
    14-vertex quiver with arrows i -> i + 1 and i -> i + 2 (n = 2^14) a fill
    takes 3.2 s and grows the process by 273 MB.

    Each list is computed once per fill: a top the table holds, as every
    top below an earlier one is, returns at once, and any other top probes
    every gamma of its box and writes its list, those an earlier fill wrote
    included. Such a refill costs a cold fill: on K3, (29, 30) after
    (30, 29) takes 48 ms, as it does cold, and on the quiver 1 -> 2 -> 3
    plus 1 -> 3, (6, 5, 6) after (6, 6, 5) takes 4.8 ms against 4.9 ms cold
    (medians of 7, 2 vCPUs)."""

    def __init__(self, quiver: Quiver):
        if not quiver.acyclic:
            raise CyclicQuiverError("moduli operations require an acyclic quiver")
        self.quiver = quiver
        self._subs: dict[DimVector, list[DimVector]] = {}

    def ext(self, alpha: Sequence[int], beta: Sequence[int]) -> int:
        alpha = dim_vector(alpha, self.quiver.vertex_count, "alpha")
        beta = dim_vector(beta, self.quiver.vertex_count, "beta")
        self._fill(beta)
        # <alpha, v> = u . v with u = alpha E; s = beta gives 0, so this is >= 0
        u = [sum(map(mul, alpha, col)) for col in zip(*self.quiver.euler_matrix)]
        return max(sum(map(mul, u, s)) for s in self._subs[beta]) - sum(map(mul, u, beta))

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
        box = list(product(*(range(t + 1) for t in top)))
        n, euler = len(box), self.quiver.euler_matrix
        # |<beta, v>| <= bound on the box, so <beta, v> + 2^(bits - 1) is a
        # digit in [0, 2^bits) whose top bit says <beta, v> >= 0
        bound = sum(a * abs(e) * b for a, row in zip(top, euler) for e, b in zip(row, top))
        width = bound.bit_length() // 8 + 1
        bits, msb = 8 * width, width - 1
        # field bi of coords[i] holds box[bi][i], so that of columns[k] holds <box[bi], e_k>
        coords = [int.from_bytes(b"".join(j.to_bytes(width, "little") * r for j in range(t + 1))
                                 * (n // (r * (t + 1))), "little") for t, r in zip(top, radix)]
        columns = [sum(map(mul, col, coords)) for col in zip(*euler)]
        passing = bytes(msb) + b"\x80"  # one field with its sign bit set
        bias = int.from_bytes(passing * n, "little")
        # halfspace[d]: <box[bi], box[d]> + 2^(bits - 1) at the fields bi < n - d,
        # the only ones a probe of masks[d] reads
        halfspace, masks = [bias], [b""] * n
        for gi, gamma in enumerate(box):
            if gi:
                k = len(top) - 1
                while not gamma[k]:
                    k -= 1
                halfspace.append((halfspace[gi - radix[k]] + columns[k])
                                 & ((1 << bits * (n - gi)) - 1))
            offsets = [0]
            for g, r in zip(gamma, radix):
                offsets = [o + k for o in offsets for k in range(0, (g + 1) * r, r)]
            masks[gi] = passing  # beta = 0 reads gamma's own mask: accepted
            accepted = [bi for bi in offsets if masks[gi - bi][width * bi + msb] & 0x80]
            self._subs[gamma] = [box[bi] for bi in accepted]
            # beta passes gamma iff <beta, q> >= 0 for each nonzero generic quotient q
            mask = bias >> bits * gi
            for si in accepted[:-1]:  # the last generic subvector is gamma itself
                mask &= halfspace[gi - si]
            masks[gi] = mask.to_bytes(width * (n - gi), "little")


def _table(q: Quiver, table: GenericExtTable | None) -> GenericExtTable:
    """`table`, which must be built for q, or a new table for q. A cyclic q
    gets a new table, whose constructor refuses it, whatever `table` is."""
    if table is None or not q.acyclic:
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
    table = _table(q, table)
    alpha = dim_vector(alpha, q.vertex_count)
    theta = int_vector(theta, q.vertex_count)
    if theta_pairing(theta, alpha) != 0:
        return False
    return all(sum(map(mul, theta, beta)) >= 0 for beta in table.generic_subdimvectors(alpha))


def stable_nonempty(q: Quiver, alpha: Sequence[int], theta: Sequence[int],
                    table: GenericExtTable | None = None) -> bool:
    """Does a theta-stable representation of dimension alpha exist generically?"""
    table = _table(q, table)
    alpha = dim_vector(alpha, q.vertex_count)
    if total_dim(alpha) == 0:
        raise QuiverError("stable_nonempty needs a nonzero dimension vector")
    theta = int_vector(theta, q.vertex_count)
    if theta_pairing(theta, alpha) != 0:
        return False
    return all(sum(map(mul, theta, beta)) > 0
               for beta in table.generic_subdimvectors(alpha)[1:-1])


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

    @cached_property
    def quiver(self) -> Quiver:
        """The local quiver: c_ij arrows c.i.j.t (t = 1..c_ij) from i to j."""
        return quiver(self.num_classes, [(f"c.{i}.{j}.{t}", i, j)
                                         for i, row in enumerate(self.arrow_counts, 1)
                                         for j, c in enumerate(row, 1) for t in range(1, c + 1)])

    def to_json(self) -> dict:
        return {
            "vertices": self.num_classes,
            "arrows": self.quiver.to_json()["arrows"],
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
    The arrow counts dim Ext^1(M_i, M_j) are delta_ij - <dim M_i, dim M_j>: hom
    is delta_ij here, and hom - ext is the Euler form on every quiver.

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
    verified = not assert_stable
    for r in reps if verified else ():
        if isinstance(r.field, Rationals):
            raise NotStableError(
                "rational summands cannot be oracle-verified; pass assert_stable=True")
        if not is_stable(r, theta, budget=budget).stable:
            raise NotStableError(f"summand of dimension {r.dim} is not theta-stable")
    l = len(reps)
    for i in range(l):
        for j in range(l):
            h = hom_space(reps[i], reps[j]).dim
            if h != (1 if i == j else 0):
                raise NotStableError(
                    f"hom(M_{i + 1}, M_{j + 1}) = {h}: summands are not stable "
                    "and pairwise non-isomorphic")
    q = reps[0].quiver
    counts = tuple(tuple((1 if i == j else 0) - euler_form(q, reps[i].dim, reps[j].dim)
                         for j in range(l)) for i in range(l))
    return LocalQuiverData(counts, mults, tuple(r.dim for r in reps), verified)


def local_model_dimension(data: LocalQuiverData) -> int:
    """Dimension of the local model: 1 - <e, e> on `data.quiver`, e the multiplicities."""
    if data.num_classes == 0:
        raise ValueError("empty local quiver data")
    return 1 - euler_form(data.quiver, data.multiplicities, data.multiplicities)
