"""Ground-truth theta-stability decisions over finite fields.

Semistability of a concrete representation over F_p is decided by King's
criterion over every subrepresentation. Subrepresentations are tuples of
per-vertex subspaces (each given by its reduced row echelon basis) that are
stable under every arrow. `enumerate_subreps` returns them as one object, a
lazy iterable whose constructor runs a depth-first search over the vertices
in numbering order. Each vertex's candidates are the superspaces of the span
of the images of the lower vertices' subspaces, less those that fail an
arrow into a lower vertex or a loop; inner vertices recurse over them, and
the last vertex keeps them as one block with the positions chosen below it.
Iteration follows the order of the Cartesian product of the per-vertex
subspace lists, so witnesses do not depend on the pruning; `len` is the sum
of the block sizes, counted once, and a `SubrepWitness` is built only when
iteration reaches it. There is no random access.

The search runs no elimination. A subspace is named by its position in the
`_all_subspaces` list of F_p^n; the lattice of F_p^n maps each position to the
position of its basis without the last row (`prefix`) and joins vectors to a
subspace by position (`extend`). The image of U under the arrows between two
vertices is the image of prefix(U) extended by the images of U's last row,
memoised by position for one search; the images of a row are formed once per
search too, however many subspaces end in it (over F_2^4, 67 subspaces end in
15 rows). Work that cannot change a result is skipped: once a join holds
n - 1 rows, `extend` returns the top position (F_p^n itself) for the first
vector outside their span, without normalizing or inserting it or drawing the
remaining vectors, and once the image of prefix(U) is the top position so is
the image of U, and the images of U's last row are not needed. Within a block
the dimension at the last vertex, which the lattice keeps by position, grows
with the position, so the verdicts read the count, the minimal witness and
the first proper theta-zero one off the blocks, and build only the witnesses
they return, each frozen with its theta . beta (`theta_value`). Each search shares the lattice of F_p^n, and
the superspaces of each subspace met, with later ones (at most 64 lattices
are kept, none above 1024 subspaces): repeated searches gain, one CLI call
does not. Rational inputs are handled by multi-prime reduction; instability
can be certified exactly by lifting a witness, semistability stays
heuristic, and with no prime tested there is no verdict.
`verify_witness` re-checks a witness over any field with `linalg.rank` and
`linalg.matmul`, independently of the search; it also decides whether a lifted
witness is exact over Q.

Subspace bases are `Matrix` values, keyed by their rows of ints in 0..p-1;
images and joins run on such rows, exact at every prime below 2^31.
"""
from __future__ import annotations

from bisect import bisect, bisect_left
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field as dc_field
from functools import cache, lru_cache, partial
from itertools import combinations, product
from operator import mul
from types import MappingProxyType

from . import linalg
from .fields import FieldError, Matrix, PrimeField, Rationals
from .quiver import DimVector, QuiverError, int_vector, theta_pairing
from .rep import Representation, RepresentationError, representation

DEFAULT_BUDGET = 10**7
LATTICE_CACHE_SIZE = 64        # (p, n) lattices kept in the process
LATTICE_MAX_SUBSPACES = 1024   # a lattice with more subspaces is not kept


class BudgetExceededError(RuntimeError):
    def __init__(self, name: str, bound: int, required: int):
        super().__init__(f"budget {name} exceeded: need {required}, bound {bound}")
        self.name = name
        self.bound = bound
        self.required = required


@dataclass(frozen=True)
class SubrepWitness:
    # vertex -> rref basis rows over F_p, a read-only copy of the mapping given
    bases: Mapping[int, Matrix] = dc_field(hash=False)
    beta: DimVector
    theta_value: int | None = None  # theta . beta in a verdict's witness

    def __post_init__(self):
        object.__setattr__(self, "bases", MappingProxyType(dict(self.bases)))


@dataclass
class SemistabilityVerdict:
    semistable: bool
    theta_of_m: int
    witness: SubrepWitness | None
    min_theta: int | None
    budget_used: int
    reason: str | None = None


@dataclass
class StabilityVerdict:
    stable: bool
    semistable: bool
    theta_of_m: int
    witness: SubrepWitness | None
    budget_used: int
    reason: str | None = None


def _all_subspaces(p: int, n: int) -> tuple[tuple[Matrix, tuple[int, ...]], ...]:
    """Every subspace of F_p^n as (rref basis rows, pivot columns)."""
    out: list[tuple[Matrix, tuple[int, ...]]] = [(Matrix((), (0, n)), ())]
    for d in range(1, n + 1):
        for pivots in combinations(range(n), d):
            free_pos = [(i, c) for i in range(d) for c in range(n)
                        if c > pivots[i] and c not in pivots]
            for vals in product(range(p), repeat=len(free_pos)):
                basis = [[0] * n for _ in range(d)]
                for i, c in enumerate(pivots):
                    basis[i][c] = 1
                for (i, c), v in zip(free_pos, vals):
                    basis[i][c] = v
                out.append((Matrix(tuple(map(tuple, basis)), (d, n)), pivots))
    return tuple(out)


def subspace_count(p: int, n: int) -> int:
    total = 1
    for d in range(1, n + 1):
        num = den = 1
        for t in range(d):
            num *= p**n - p**t
            den *= p**d - p**t
        total += num // den
    return total


def verify_witness(m: Representation, w: SubrepWitness) -> bool:
    """Independent re-check over m's field: each basis, coerced into the field,
    has beta_i linearly independent rows of length d_i, and every arrow maps
    the span at its source into the span at its target."""
    fld = m.field
    bases = {}
    for v, beta_v, d_v in zip(m.quiver.vertices(), w.beta, m.dim):
        basis = bases[v] = fld.array(w.bases[v])
        if basis.shape != (beta_v, d_v) or linalg.rank(fld, basis) != beta_v:
            return False
    for a in m.quiver.arrows:
        u_src, u_tgt = bases[a.src], bases[a.tgt]
        if not u_src.shape[0]:
            continue
        images = linalg.matmul(fld, u_src, linalg.transpose(fld, m.matrix(a.id)))
        if linalg.rank(fld, fld.array(u_tgt.rows + images.rows)) != u_tgt.shape[0]:
            return False
    return True


class _Lattice:
    """The subspaces of F_p^n in `_all_subspaces` order, named by their
    positions in it: the position of each rref basis, `prefix` (the position of
    each basis without its last row, an earlier one; -1 for the zero subspace),
    `top` (the last position, F_p^n itself), `dims` (the dimension at each
    position), `starts` (the subspaces of dimension d are the positions
    starts[d] to starts[d + 1] - 1) and the sorted superspace positions of each
    subspace met (`supers`). None of it depends on a representation; `extend`
    joins vectors to a subspace, `first` picks positions by dimension."""

    def __init__(self, p: int, n: int):
        self.p, self.n, self.subspaces = p, n, _all_subspaces(p, n)
        self.position = {b.rows: pos for pos, (b, _) in enumerate(self.subspaces)}
        self.prefix = [self.position[b.rows[:-1]] if b.rows else -1 for b, _ in self.subspaces]
        self.top = len(self.subspaces) - 1  # F_p^n itself
        self.dims = [b.shape[0] for b, _ in self.subspaces]  # nondecreasing
        self.starts = [bisect_left(self.dims, d) for d in range(n + 2)]
        self.supers: dict[int, tuple[int, ...]] = {}

    def extend(self, pos: int, vectors) -> int:
        """Position of the span of subspace `pos` and `vectors`, rows of ints in
        0..p-1 (any iterable), each reduced into the rref basis as it grows.
        A vector outside the span of n - 1 rows completes F_p^n: the top
        position is returned at once, and the remaining vectors are not drawn."""
        p, top = self.p, self.top
        if pos == top:
            return top
        basis, pivots = self.subspaces[pos]
        rows, pivots = list(basis.rows), list(pivots)
        for w in vectors:
            for b, c in zip(rows, pivots):
                if f := w[c]:
                    w = [(x - f * y) % p for x, y in zip(w, b)]
            for lead, x in enumerate(w):
                if x:
                    break
            else:
                continue  # w lies in the span already
            if len(rows) == self.n - 1:
                return top  # w completes a basis of F_p^n
            inv = pow(x, -1, p)
            w = tuple([y * inv % p for y in w])
            rows = [tuple([(x - f * y) % p for x, y in zip(r, w)]) if (f := r[lead]) else r
                    for r in rows]
            k = bisect(pivots, lead)
            rows.insert(k, w)
            pivots.insert(k, lead)
        return self.position[tuple(rows)]

    def first(self, positions: Sequence[int], d: int) -> int | None:
        """The first of the sorted `positions` with dimension d, or None."""
        k = bisect_left(positions, self.starts[d])
        if k < len(positions) and positions[k] < self.starts[d + 1]:
            return positions[k]
        return None

    def superspaces(self, pos: int, lattice: Callable[[int], _Lattice]) -> Sequence[int]:
        """Sorted positions of the subspaces containing subspace `pos`;
        `lattice(k)` gives the lattice of F_p^k."""
        if not pos:
            return range(len(self.subspaces))
        if pos not in self.supers:
            # each superspace is S + W, W a subspace of the non-pivot coordinates:
            # S + W is S + prefix(W) extended by the last row of W
            free = [c for c in range(self.n) if c not in self.subspaces[pos][1]]
            small = lattice(len(free))
            out = [pos]
            for (w, _), pre in zip(small.subspaces[1:], small.prefix[1:]):
                v = [0] * self.n
                for c, x in zip(free, w.rows[-1]):
                    v[c] = x
                out.append(self.extend(out[pre], (v,)))
            self.supers[pos] = tuple(sorted(out))
        return self.supers[pos]


_kept_lattice = lru_cache(maxsize=LATTICE_CACHE_SIZE)(_Lattice)


def _lattice(p: int, n: int) -> _Lattice:
    """The lattice of F_p^n: shared, unless above `LATTICE_MAX_SUBSPACES`."""
    return (_kept_lattice if subspace_count(p, n) <= LATTICE_MAX_SUBSPACES else _Lattice)(p, n)


def _image(source: _Lattice, target: _Lattice, mats: list) -> Callable[[int], int]:
    """The map from the position of a subspace U of the `source` space to the
    position of the span of its images under the arrow matrices `mats` (their
    rows): the image of prefix(U) extended by the images of U's last row, so
    each U costs at most one `extend` of len(mats) vectors. The images of a
    row are formed once (`_arrow_images`) and kept for every later U that
    ends in it. Once the image of prefix(U) is the whole target space, so is
    the image of U. Memoised by position and filled up from the nearest
    memoised prefix; both memos live in the closure, freed with its search."""
    p, top = source.p, target.top
    memo = {0: 0}
    images = cache(partial(_arrow_images, p, mats))  # last row u -> its images

    def image(pos: int) -> int:
        if pos in memo:
            return memo[pos]
        chain = []
        while pos not in memo:
            chain.append(pos)
            pos = source.prefix[pos]
        below = memo[pos]
        for pos in reversed(chain):
            if below != top:
                u = source.subspaces[pos][0].rows[-1]
                below = target.extend(below, images(u))
            memo[pos] = below
        return below

    return image


def _arrow_images(p: int, mats: list, u: tuple[int, ...]) -> tuple[list[int], ...]:
    """The images of the row u under the matrices `mats` (their rows) over F_p."""
    return tuple([sum(map(mul, row, u)) % p for row in mat] for mat in mats)


def check_budget(budget) -> int:
    """`budget` as an int of at least 1; anything else raises `QuiverError`."""
    (budget,) = int_vector((budget,), what="budget")
    if budget < 1:
        raise QuiverError(f"budget must be >= 1, got {budget}")
    return budget


class _Subreps:
    """The subrepresentations of m, iterated in product order; the
    constructor runs the search, a depth-first one over the vertices, vertex 1
    first.

    Subspaces are lattice positions. The candidates at vertex i are the
    superspaces of S, the join of the images of the subspaces chosen at lower
    vertices under arrows j -> i, in their `_all_subspaces` order, less those
    that fail an arrow i -> j with j <= i (loops included): U_j must be a
    superspace of the image of U_i. Inner vertices recurse over their
    candidates; the last vertex's are kept as one block with the positions
    chosen below it. Results therefore come in the order of the product scan
    over `_all_subspaces` lists. The object keeps the lattices, the blocks and
    their total size: `len` builds no witness, and iteration builds each one
    (`witness`) when it is reached. The arrow images are memoised by
    position, and those of each row, for this search only; each lattice of
    F_p^k comes from `_lattice`, kept for later searches.
    """

    def __init__(self, m: Representation):
        lattice = cache(partial(_lattice, m.field.p))  # k -> lattice of F_p^k
        self.lattices = lattices = [lattice(d) for d in m.dim]
        groups: dict[tuple[int, int], list] = {}
        for a in m.quiver.arrows:
            groups.setdefault((a.src - 1, a.tgt - 1), []).append(m.matrix(a.id).rows)
        into = [[] for _ in lattices]  # arrows j -> i, j < i: (j, image of U_j)
        back = [[] for _ in lattices]  # arrows i -> j, j <= i: (j, image of U_i)
        for (src, tgt), mats in groups.items():
            image = _image(lattices[src], lattices[tgt], mats)
            if src < tgt:
                into[tgt].append((src, image))
            else:
                back[src].append((tgt, image))
        blocks: list[tuple[tuple[int, ...], Sequence[int]]] = []
        last = len(lattices) - 1

        def visit(i: int, chosen: list[int]) -> None:
            lat = lattices[i]
            span = 0
            for j, image in into[i]:
                t = image(chosen[j])
                span = lat.extend(span, lat.subspaces[t][0].rows) if span else t
            candidates = lat.superspaces(span, lattice)
            if back[i]:
                candidates = tuple(pos for pos in candidates
                                   if all((chosen[j] if j < i else pos)
                                          in lattices[j].superspaces(image(pos), lattice)
                                          for j, image in back[i]))
            if i < last:
                for pos in candidates:
                    chosen.append(pos)
                    visit(i + 1, chosen)
                    chosen.pop()
            elif candidates:
                blocks.append((tuple(chosen), candidates))

        visit(0, [])
        del visit  # the closure refers to itself: free the search state now, not at a collection
        self.blocks = blocks
        self._count = sum(len(candidates) for _, candidates in blocks)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[SubrepWitness]:
        for chosen, candidates in self.blocks:
            for pos in candidates:
                yield self.witness(chosen, pos)

    def witness(self, chosen: tuple[int, ...], pos: int,
                theta_value: int | None = None) -> SubrepWitness:
        """The subrepresentation with the positions `chosen` at the lower
        vertices and `pos` at the last, carrying `theta_value`."""
        at = list(zip(self.lattices, (*chosen, pos)))
        return SubrepWitness({v: lat.subspaces[q][0] for v, (lat, q) in enumerate(at, 1)},
                             tuple([lat.dims[q] for lat, q in at]), theta_value)


def enumerate_subreps(m: Representation, budget: int = DEFAULT_BUDGET) -> _Subreps:
    """All subrepresentations of m, as per-vertex rref subspace tuples, in a
    lazy iterable in product order; each `SubrepWitness` is built when the
    iteration reaches it, and `len` builds none.

    The budget bounds the number of subspace tuples, the product over vertices
    of `subspace_count(p, d_i)`, whatever the search then visits. It must be an
    integer of at least 1 (`check_budget`), as in every public call that takes
    one, which checks it before any shortcut.
    """
    budget = check_budget(budget)
    if not isinstance(m.field, PrimeField):
        raise RepresentationError("the exhaustive oracle needs a representation over F_p")
    total = 1
    for d in m.dim:
        total *= subspace_count(m.field.p, d)
    if total > budget:
        raise BudgetExceededError("subspace_tuples", budget, total)
    return _Subreps(m)


class WitnessCheckError(RuntimeError):
    """A witness failed its independent re-check: the oracle itself is at fault."""


def _checked(m: Representation, w: SubrepWitness) -> SubrepWitness:
    if not verify_witness(m, w):
        raise WitnessCheckError(f"witness of dimension {w.beta} is not a subrepresentation")
    return w


def _search(m: Representation, theta: Sequence[int], budget: int):
    """(theta(M), count, best, balanced); when theta(M) != 0 the rest is
    (0, None, None). Otherwise one pass over the search's blocks gives the
    number of subrepresentations (the budget used), the minimal one by
    (theta . beta, |beta|, beta), first on ties, and the first proper nonzero
    one with theta . beta = 0, or None; only these are built, each with its
    theta . beta. In a block the lower part of beta is fixed and d, the
    dimension at the last vertex, grows with the position, so the minimal key
    takes d from the first candidate when theta_last >= 0 and from the last
    one otherwise, at the first candidate of that d, and the first theta-zero
    one is the first candidate of the smallest d that gives theta . beta = 0."""
    budget = check_budget(budget)
    theta = int_vector(theta, len(m.dim))
    theta_m = theta_pairing(theta, m.dim)
    if theta_m != 0:
        return theta_m, 0, None, None
    subreps = enumerate_subreps(m, budget=budget)
    lattices, dim_low = subreps.lattices, m.dim[:-1]
    *theta_low, theta_last = theta
    last, n = lattices[-1], lattices[-1].n
    best = balanced = None
    for chosen, candidates in subreps.blocks:
        low = tuple([lat.dims[pos] for lat, pos in zip(lattices, chosen)])
        value = sum(map(mul, theta_low, low))
        d = last.dims[candidates[0] if theta_last >= 0 else candidates[-1]]
        key = (value + theta_last * d, sum(low) + d, (*low, d))
        if best is None or key < best_key:
            best, best_key = (chosen, last.first(candidates, d)), key
        if balanced is None:
            if theta_last:
                d, r = divmod(-value, theta_last)
                ds = (d,) if not r and 0 <= d <= n else ()
            else:
                ds = () if value else range(n + 1)
            for d in ds:
                if (d or any(low)) and (d != n or low != dim_low):
                    if (zero := last.first(candidates, d)) is not None:
                        balanced = (chosen, zero)
                        break
    return (theta_m, len(subreps), subreps.witness(*best, best_key[0]),
            balanced and subreps.witness(*balanced, 0))


def is_semistable(m: Representation, theta: Sequence[int],
                  budget: int = DEFAULT_BUDGET) -> SemistabilityVerdict:
    theta_m, count, best, _ = _search(m, theta, budget)
    if theta_m:
        return SemistabilityVerdict(False, theta_m, None, None, 0, reason="theta(M) != 0")
    if best.theta_value >= 0:
        return SemistabilityVerdict(True, theta_m, None, best.theta_value, count)
    return SemistabilityVerdict(False, theta_m, _checked(m, best), best.theta_value, count)


def is_stable(m: Representation, theta: Sequence[int],
              budget: int = DEFAULT_BUDGET) -> StabilityVerdict:
    """Is m theta-stable? Stability is defined for nonzero representations
    only, so, like `stable_nonempty`, this refuses the zero one."""
    if not any(m.dim):
        raise RepresentationError("is_stable needs a nonzero representation")
    theta_m, count, best, balanced = _search(m, theta, budget)
    if theta_m:
        return StabilityVerdict(False, False, theta_m, None, 0, reason="theta(M) != 0")
    if best.theta_value < 0:
        return StabilityVerdict(False, False, theta_m, _checked(m, best), count,
                                reason="destabilizing subrepresentation")
    if balanced is not None:
        return StabilityVerdict(False, True, theta_m, _checked(m, balanced), count,
                                reason="proper subrepresentation with theta = 0")
    return StabilityVerdict(True, True, theta_m, None, count)


@dataclass
class RationalVerdict:
    verdict: str            # "semistable" | "unstable"
    certainty: str          # "HEURISTIC" | "PROOF"
    theta_of_m: int
    primes_tested: list[int]
    skipped: list[tuple[int, str]] = dc_field(default_factory=list)
    witness_beta: DimVector | None = None
    witness_theta: int | None = None
    witness_prime: int | None = None
    witness_lifted: bool = False


def check_over_rationals(m: Representation, theta: Sequence[int], primes: Sequence[int],
                         budget: int = DEFAULT_BUDGET) -> RationalVerdict:
    """Reduce a rational representation mod each prime and run the oracle.

    A "semistable" answer is heuristic; "unstable" is a proof exactly when the
    witness subspaces lift to an exact subrepresentation over Q. When theta(M)
    = 0 and no prime can be tested (none given, or each divides a denominator),
    there is no verdict: `RepresentationError` names the skipped primes. A
    prime given twice raises `RepresentationError` before any search.
    """
    if not isinstance(m.field, Rationals):
        raise RepresentationError("check_over_rationals needs a representation over Q")
    budget = check_budget(budget)
    primes = list(primes)
    for k, p in enumerate(primes):
        if p in primes[:k]:
            raise RepresentationError(f"prime {p} is given more than once")
    theta = int_vector(theta, len(m.dim))
    theta_m = theta_pairing(theta, m.dim)
    if theta_m != 0:
        return RationalVerdict("unstable", "PROOF", theta_m, [],
                               witness_beta=m.dim, witness_theta=theta_m)
    tested: list[int] = []
    skipped: list[tuple[int, str]] = []
    best: RationalVerdict | None = None
    for p in primes:
        fld = PrimeField(p)  # a non-prime raises here, not as a skipped prime
        try:
            red = representation(m.quiver, fld, m.dim, m.matrices)
        except FieldError:  # a rational entry fails only where p divides its denominator
            skipped.append((p, f"prime {p} divides a denominator"))
            continue
        tested.append(p)
        verdict = is_semistable(red, theta, budget=budget)
        if verdict.semistable:
            continue
        w = verdict.witness
        lifted = verify_witness(m, w)  # over Q: the residues 0..p-1 read as integers
        out = RationalVerdict("unstable", "PROOF" if lifted else "HEURISTIC",
                              theta_m, tested, skipped, w.beta, w.theta_value, p, lifted)
        if lifted:
            return out
        best = out
    if not tested:
        why = "; ".join(msg for _, msg in skipped) or "no primes given"
        raise RepresentationError(f"no prime could be tested ({why})")
    if best is not None:
        return best
    return RationalVerdict("semistable", "HEURISTIC", theta_m, tested, skipped)
