import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from quivermod import (GenericExtTable, NotStableError, PrimeField, QQ,
                       QuiverError, euler_form, ext_space, generic_ext, hom_space,
                       generic_subdimvectors, is_semistable, is_stable,
                       local_model_dimension, local_quiver, moduli_dimension,
                       quiver, random_representation, representation,
                       semistable_nonempty, stable_nonempty)
from quivermod.moduli import CyclicQuiverError, LocalQuiverData
from quivermod.quiver import validate_quiver


def rep_k3(k3, field, m):
    return representation(k3, field, (1, 1),
                          {"x": [[m[0]]], "y": [[m[1]]], "z": [[m[2]]]})


def test_generic_ext_examples(k3):
    t = GenericExtTable(k3)
    assert t.ext((1, 0), (0, 1)) == 3
    assert t.ext((1, 1), (0, 0)) == 0
    assert t.ext((0, 0), (2, 2)) == 0
    # min over independent general pairs: hom is generically 0, euler = -1
    assert t.ext((1, 1), (1, 1)) == 1
    assert t.ext((1, 0), (1, 1)) == 2


def test_generic_ext_memoized(k3):
    t = GenericExtTable(k3)
    t.ext((2, 2), (2, 2))
    assert set(t._subs) == set(product(range(3), repeat=2))
    filled = dict(t._subs)
    assert t.ext((2, 2), (2, 2)) == 4
    assert t._subs == filled


def test_generic_ext_cyclic_rejected():
    loop = quiver(1, [("l", 1, 1)])
    with pytest.raises(CyclicQuiverError):
        GenericExtTable(loop)


@pytest.mark.parametrize("call", [semistable_nonempty, stable_nonempty, moduli_dimension])
def test_cyclic_quiver_rejected_before_the_theta_shortcut(k3, call):
    """theta(alpha) != 0 would answer at once; a cyclic quiver is refused
    first, with no table or with a table of another quiver."""
    two_cycle = quiver(2, [("a", 1, 2), ("b", 2, 1)])
    for table in (None, GenericExtTable(k3)):
        with pytest.raises(CyclicQuiverError):
            call(two_cycle, (1, 1), (1, 1), table=table)


class ReferenceTable:
    """The Schofield recursion with ext memoized per pair only: generic
    subvectors are recomputed on every call and the Euler form comes from
    `euler_form`."""

    def __init__(self, q):
        self.quiver = q
        self.memo = {}

    def ext(self, alpha, beta):
        if sum(alpha) == 0 or sum(beta) == 0:
            return 0
        key = (alpha, beta)
        if key not in self.memo:
            best = 0
            for sub in self.generic_subdimvectors(beta):
                quotient = tuple(b - s for b, s in zip(beta, sub))
                best = max(best, -euler_form(self.quiver, alpha, quotient))
            self.memo[key] = best
        return self.memo[key]

    def generic_subdimvectors(self, alpha):
        return sorted(beta for beta in product(*(range(a + 1) for a in alpha))
                      if self.ext(beta, tuple(a - b for a, b in zip(alpha, beta))) == 0)


@pytest.mark.parametrize("arrows, top", [
    ([("x", 1, 2), ("y", 1, 2), ("z", 1, 2)], (4, 4)),
    ([("a", 1, 2), ("b", 2, 3), ("c", 1, 3)], (2, 2, 2)),
    ([("x", 1, 2), ("y", 1, 2)], (3, 3)),
    ([("a", 1, 2), ("b", 2, 3)], (2, 2, 2)),
    ([], (3, 2)),
    ([("a", 1, 4), ("b", 2, 4), ("c", 3, 4)], (1, 1, 1, 2)),
    ([("a", 1, 2), ("b", 2, 3)], (3, 3, 3)),
    ([("a", 1, 4), ("b", 2, 4), ("c", 3, 4)], (2, 2, 2, 3)),
], ids=["K3", "Q3", "K2", "A3", "arrowless", "star", "A3-333", "star-2223"])
def test_table_matches_reference_recursion(arrows, top):
    q = quiver(len(top), arrows)
    table, ref = GenericExtTable(q), ReferenceTable(q)
    for total in product(*(range(a + 1) for a in top)):
        assert table.generic_subdimvectors(total) == ref.generic_subdimvectors(total)
        for beta in product(*(range(a + 1) for a in total)):
            gamma = tuple(a - b for a, b in zip(total, beta))
            assert table.ext(beta, gamma) == ref.ext(beta, gamma), (beta, gamma)
    assert table._subs == {gamma: ref.generic_subdimvectors(gamma)
                           for gamma in product(*(range(a + 1) for a in top))}


@st.composite
def acyclic_boxes(draw, max_box=40):
    """A quiver on 2-4 vertices whose arrows follow a random topological
    order, so they run both up and down the numbering (parallel ones allowed),
    a top whose box holds at most `max_box` dimension vectors, and a smaller
    top below it."""
    n = draw(st.integers(2, 4))
    order = draw(st.permutations(range(1, n + 1)))
    ends = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    arrows = draw(st.lists(st.sampled_from(ends), max_size=6))
    room, top = max_box, []
    for _ in range(n):
        top.append(draw(st.integers(0, min(5, room - 1))))
        room //= top[-1] + 1
    top = tuple(draw(st.permutations(top)))
    small = tuple(draw(st.integers(0, t)) for t in top)
    q = quiver(n, [(f"a{k}", i, j) for k, (i, j) in enumerate(arrows)])
    return q, top, small


@settings(max_examples=40, deadline=None)
@given(acyclic_boxes())
def test_table_matches_reference_on_random_quivers(case):
    q, top, small = case
    small_first, large_first, ref = GenericExtTable(q), GenericExtTable(q), ReferenceTable(q)
    small_first.generic_subdimvectors(small)
    small_first.generic_subdimvectors(top)
    large_first.generic_subdimvectors(top)
    large_first.generic_subdimvectors(small)
    box = list(product(*(range(t + 1) for t in top)))
    for gamma in box:
        expected = ref.generic_subdimvectors(gamma)
        assert small_first._subs[gamma] == large_first._subs[gamma] == expected, gamma
        # product order: 0 first and gamma last, as `stable_nonempty` reads it
        assert expected[0] == (0,) * len(gamma) and expected[-1] == gamma
    for alpha in box:
        for beta in box:
            expected = ref.ext(alpha, beta)
            assert small_first.ext(alpha, beta) == large_first.ext(alpha, beta) == expected, \
                (alpha, beta)


@settings(max_examples=40, deadline=None)
@given(acyclic_boxes(), st.randoms(use_true_random=False))
def test_relabelling_vertices_permutes_the_table(case, rng):
    """Renumber the vertices by a permutation pi: the generic subvectors and
    ext of the renumbered quiver are those of the original, moved by pi.
    Relabelling alone cannot tell a quiver from its opposite, whose table
    permutes the same way, so ext(alpha, beta) >= -<alpha, beta> (the generic
    hom is <alpha, beta> + ext >= 0) ties both tables to the arrows' direction."""
    q, top, _ = case
    n = q.vertex_count
    pi = list(range(n))
    rng.shuffle(pi)

    def move(v):
        moved = [0] * n
        for i, x in enumerate(v):
            moved[pi[i]] = x
        return tuple(moved)

    moved_q = quiver(n, [(a.id, pi[a.src - 1] + 1, pi[a.tgt - 1] + 1) for a in q.arrows])
    table, moved_table = GenericExtTable(q), GenericExtTable(moved_q)
    box = list(product(*(range(t + 1) for t in top)))
    for gamma in box:
        assert (sorted(map(move, table.generic_subdimvectors(gamma)))
                == moved_table.generic_subdimvectors(move(gamma))), gamma
    for alpha in box:
        for beta in box:
            e = table.ext(alpha, beta)
            assert moved_table.ext(move(alpha), move(beta)) == e, (alpha, beta)
            assert e >= -euler_form(q, alpha, beta), (alpha, beta)


def test_large_tables_pinned():
    """sha256 of the whole `_subs` dict and of the sorted dual lists at boxes
    where dual lists reach ~90 entries, where a subvector test that stops
    early or accepts late would show. The dual list of gamma holds w(gamma - s)
    = E (gamma - s) for its generic subvectors s != gamma with a negative
    entry, E the `euler_matrix`: the quotient forms that can reject a subvector."""
    cases = [
        (quiver(2, [("x", 1, 2), ("y", 1, 2), ("z", 1, 2)]), (20, 20),
         "6659430b7215e8421c58c947710c8e939dec0a6487536cc04de6944118548dc9",
         "1ba9dd577afdaf4e537f4661af31f4b8956acc39c0ab3ec1e09d1da5abac216b"),
        (quiver(3, [("a", 1, 2), ("b", 2, 3), ("c", 1, 3)]), (6, 6, 6),
         "31cb27ce5ffbcead5236b0a69783d24c8501bc07cd104660d6f376ee00a6b669",
         "1a5b1020b873ae08cbf61ce30c0d91a5c2d2433246d213cd5b0528d6762763ef"),
    ]
    for q, top, subs_digest, duals_digest in cases:
        t = GenericExtTable(q)
        t.generic_subdimvectors(top)

        def w(v):
            return tuple(sum(e * x for e, x in zip(row, v)) for row in q.euler_matrix)

        dual_lists = {gamma: [d for d in (w(tuple(g - x for g, x in zip(gamma, s)))
                                          for s in subs[:-1]) if min(d) < 0]
                      for gamma, subs in t._subs.items()}
        subs = repr(sorted(t._subs.items()))
        duals = repr(sorted((gamma, sorted(ws)) for gamma, ws in dual_lists.items()))
        assert hashlib.sha256(subs.encode()).hexdigest() == subs_digest, top
        assert hashlib.sha256(duals.encode()).hexdigest() == duals_digest, top


@pytest.mark.parametrize("arrows, top, digest", [
    # <beta, v> spans -7500..1250: one byte per field is too narrow
    ([(f"a{i}", 1, 2) for i in range(12)], (25, 25),
     "b99b2062b8eb77c0a61918c58f390f4d962d3524807f78cf35cc244956585fd1"),
    ([("a", 1, 2), ("b", 1, 2), ("c", 1, 2), ("d", 2, 3), ("e", 2, 3), ("f", 1, 3),
      ("g", 4, 1), ("h", 4, 1), ("i", 4, 3)], (4, 4, 4, 4),
     "2cd755ca41b67fc8c95112373441dd4a871f5b8bbb8d60d1abf3016c95e8c3fa"),
], ids=["12-arrow-Kronecker", "four-vertex"])
def test_field_width_pinned(arrows, top, digest):
    """sha256 of the whole `_subs` dict where the pairings <beta, v> on the
    box need more than one byte per packed field, or mix signs across four
    coordinates: a field too narrow for them changes the subvectors."""
    t = GenericExtTable(quiver(len(top), arrows))
    t.generic_subdimvectors(top)
    assert hashlib.sha256(repr(sorted(t._subs.items())).encode()).hexdigest() == digest


def test_incremental_fill_keeps_earlier_lists(k3):
    t = GenericExtTable(k3)
    t.generic_subdimvectors((4, 4))
    first = dict(t._subs)
    t.generic_subdimvectors((9, 9))
    assert set(t._subs) == set(product(range(10), repeat=2))
    assert all(t._subs[gamma] == subs for gamma, subs in first.items())
    subs = dict(t._subs)
    t._fill((9, 9))
    assert t._subs == subs


@pytest.mark.parametrize("arrows, top", [
    ([("x", 1, 2), ("y", 1, 2), ("z", 1, 2)], (4, 4)),
    ([("a", 1, 2), ("b", 2, 3)], (3, 3, 3)),
], ids=["K3", "A3"])
def test_fill_order_does_not_matter(arrows, top):
    q = quiver(len(top), arrows)
    half = tuple(a // 2 for a in top)
    boxes = list(product(*(range(a + 1) for a in top)))
    small_first, large_first, ext_first = (GenericExtTable(q) for _ in range(3))
    small_first.generic_subdimvectors(half)
    small_first.generic_subdimvectors(top)
    large_first.generic_subdimvectors(top)
    large_first.generic_subdimvectors(half)
    for beta in boxes:
        ext_first.ext(beta, beta)
    assert small_first._subs == large_first._subs == ext_first._subs
    for alpha in boxes:
        for beta in boxes:
            answers = {t.ext(alpha, beta) for t in (small_first, large_first, ext_first)}
            assert len(answers) == 1, (alpha, beta)


@pytest.mark.parametrize("bad", [(1,), (1, 1, 1), (1, -1), (-1, 0)])
def test_table_validates_public_arguments(k3, bad):
    t = GenericExtTable(k3)
    with pytest.raises(QuiverError):
        t.ext(bad, (1, 1))
    with pytest.raises(QuiverError):
        t.ext((1, 1), bad)
    with pytest.raises(QuiverError):
        t.generic_subdimvectors(bad)


@pytest.mark.parametrize("call", [
    lambda q, t: stable_nonempty(q, (2, 2), (-1, 1), table=t),
    lambda q, t: moduli_dimension(q, (2, 2), (-1, 1), table=t),
    lambda q, t: generic_ext(q, (1, 0), (0, 1), table=t),
    lambda q, t: generic_subdimvectors(q, (1, 1), table=t),
    lambda q, t: semistable_nonempty(q, (2, 1), (-1, 2), table=t),
], ids=["stable_nonempty", "moduli_dimension", "generic_ext", "generic_subdimvectors",
        "semistable_nonempty"])
def test_table_of_another_quiver_is_refused(a2, k3, call):
    """A K3 table used to answer for K3: stne on A2 at (2, 2) gave True, dim -3
    and ext((1,0), (0,1)) 3, where A2's own table gives False, None and 1."""
    with pytest.raises(QuiverError, match="different quiver"):
        call(a2, GenericExtTable(k3))
    # a table built for an equal quiver is accepted
    assert call(a2, GenericExtTable(quiver(2, [("a", 1, 2)]))) == call(a2, None)


def test_generic_subs_returns_a_copy(k3):
    t = GenericExtTable(k3)
    subs = t.generic_subdimvectors((1, 1))
    subs.clear()
    assert t.generic_subdimvectors((1, 1)) == [(0, 0), (0, 1), (1, 1)]
    assert t.ext((1, 0), (1, 1)) == 2


def test_generic_subs_examples(k3, arrowfree2):
    assert generic_subdimvectors(k3, (1, 1)) == [(0, 0), (0, 1), (1, 1)]
    free = generic_subdimvectors(arrowfree2, (2, 1))
    assert free == sorted(product(range(3), range(2)))
    assert generic_subdimvectors(k3, (0, 0)) == [(0, 0)]


def test_generic_subs_closure(k3):
    t = GenericExtTable(k3)
    for alpha in [(1, 1), (2, 2), (2, 1)]:
        subs = t.generic_subdimvectors(alpha)
        assert (0, 0) in subs and alpha in subs
        for beta in subs:
            quot = tuple(a - b for a, b in zip(alpha, beta))
            assert t.ext(beta, quot) == 0


def test_generic_ext_sampling_consistency(k3, a2):
    rng = random.Random(101)
    f5 = PrimeField(5)
    for q in (k3, a2):
        t = GenericExtTable(q)
        for alpha in [(1, 1), (2, 1), (1, 2)]:
            for beta in [(1, 1), (2, 1)]:
                g = t.ext(alpha, beta)
                sampled = min(ext_space(random_representation(q, f5, alpha, rng),
                                        random_representation(q, f5, beta, rng)).dim
                              for _ in range(200))
                assert sampled >= g
                assert sampled == g


def test_semistable_nonempty_examples(k3):
    for n in range(1, 5):
        assert semistable_nonempty(k3, (n, n), (-1, 1))
    assert not semistable_nonempty(k3, (2, 1), (-1, 1))
    assert semistable_nonempty(k3, (0, 0), (-1, 1))


def test_stable_nonempty_examples(k3, a2, arrowfree2):
    assert stable_nonempty(k3, (1, 1), (-1, 1))
    assert stable_nonempty(a2, (1, 1), (-1, 1))
    assert not stable_nonempty(arrowfree2, (1, 1), (-1, 1))
    with pytest.raises(QuiverError):
        stable_nonempty(k3, (0, 0), (-1, 1))


def test_stable_implies_semistable_nonempty(k3, a2):
    for q in (k3, a2):
        for alpha in product(range(3), repeat=2):
            if sum(alpha) == 0:
                continue
            for theta in [(-1, 1), (1, -1), (-2, 1)]:
                if stable_nonempty(q, alpha, theta):
                    assert semistable_nonempty(q, alpha, theta)


def test_nonemptiness_matches_exhaustive_oracle(k3, a2):
    # Exhaustive search over all F_2 representations at desk scale.
    f2 = PrimeField(2)
    for q in (k3, a2):
        for alpha in product(range(3), repeat=2):
            if not 0 < sum(alpha) <= 3:
                continue
            for theta in [(-1, 1), (-2, 1)]:
                predicted = semistable_nonempty(q, alpha, theta)
                cells = [(a.id, r, c) for a in q.arrows
                         for r in range(alpha[a.tgt - 1])
                         for c in range(alpha[a.src - 1])]
                found = False
                for vals in product(range(2), repeat=len(cells)):
                    mats = {}
                    for (aid, r, c), v in zip(cells, vals):
                        arrow = q.arrow_map[aid]
                        mats.setdefault(aid, [[0] * alpha[arrow.src - 1]
                                              for _ in range(alpha[arrow.tgt - 1])])[r][c] = v
                    m = representation(q, f2, alpha, mats)
                    if is_semistable(m, theta).semistable:
                        found = True
                        break
                assert found == predicted, (q.labels, alpha, theta)


def test_moduli_dimension(k3):
    assert moduli_dimension(k3, (1, 1), (-1, 1)) == 2
    for n in range(1, 5):
        assert moduli_dimension(k3, (n, n), (-1, 1)) == n * n + 1
    assert moduli_dimension(k3, (2, 1), (-1, 1)) is None


def test_moduli_dimension_rigid_case(a2):
    # <(1,1),(1,1)> = 1 on A2: a real Schur root, zero-dimensional moduli
    assert moduli_dimension(a2, (1, 1), (-1, 1)) == 0


def test_local_quiver_single_stable(k3):
    f5 = PrimeField(5)
    m = rep_k3(k3, f5, (1, 0, 0))
    data = local_quiver([(m, 1)], (-1, 1))
    assert data.num_classes == 1
    assert data.arrow_counts == ((2,),)
    assert data.multiplicities == (1,)
    assert data.verified
    assert local_model_dimension(data) == 2 == moduli_dimension(k3, (1, 1), (-1, 1))


def test_local_quiver_two_stables(k3):
    f5 = PrimeField(5)
    m = rep_k3(k3, f5, (1, 0, 0))
    n = rep_k3(k3, f5, (0, 1, 0))
    data = local_quiver([(m, 1), (n, 1)], (-1, 1))
    assert data.arrow_counts == ((2, 1), (1, 2))
    assert local_model_dimension(data) == 5 == moduli_dimension(k3, (2, 2), (-1, 1))


def test_local_quiver_rejects_non_stable(k3):
    f5 = PrimeField(5)
    z = rep_k3(k3, f5, (0, 0, 0))
    with pytest.raises(NotStableError):
        local_quiver([(z, 1)], (-1, 1))
    m = rep_k3(k3, f5, (1, 0, 0))
    with pytest.raises(NotStableError):
        local_quiver([(m, 1), (m, 1)], (-1, 1))  # isomorphic summands
    with pytest.raises(NotStableError, match="at least one"):
        local_quiver([], (-1, 1))
    with pytest.raises(NotStableError, match=">= 1"):
        local_quiver([(m, 0)], (-1, 1))


def _stable_summands(q, theta, dims, rng, count):
    """Up to `count` random theta-stable representations over F_5, pairwise
    non-isomorphic, of dimension vectors drawn from `dims`."""
    f5, found = PrimeField(5), []
    for _ in range(40 * count):
        m = random_representation(q, f5, rng.choice(dims), rng)
        if is_stable(m, theta).stable and all(hom_space(n, m).dim == 0 for n in found):
            found.append(m)
            if len(found) == count:
                break
    return found


@pytest.mark.parametrize("arrows, theta, dims", [
    ([("x", 1, 2), ("y", 1, 2), ("z", 1, 2)], (-1, 1), [(1, 1), (2, 2)]),
    ([("l", 1, 1)], (0,), [(1,)]),
], ids=["K3", "one-loop"])
def test_local_quiver_counts_are_ext_dimensions(arrows, theta, dims):
    """The arrow counts, read off the Euler form, are the dimensions of
    Ext^1(M_i, M_j) that `ext_space` computes, loops included, and `to_json`
    writes the arrows of `data.quiver`."""
    q = quiver(len(theta), arrows)
    for seed in range(6):
        reps = _stable_summands(q, theta, dims, random.Random(seed), 3)
        assert len(reps) >= 2
        data = local_quiver([(m, 1) for m in reps], theta)
        assert data.arrow_counts == tuple(tuple(ext_space(m, n).dim for n in reps) for m in reps)
        assert any(a.src == a.tgt for a in data.quiver.arrows)
        assert validate_quiver(data.to_json()) == data.quiver


def test_local_quiver_assert_stable_flag(k3):
    m = rep_k3(k3, QQ, (1, 0, 0))
    with pytest.raises(NotStableError):
        local_quiver([(m, 1)], (-1, 1))
    data = local_quiver([(m, 1)], (-1, 1), assert_stable=True)
    assert not data.verified


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(1, 4).flatmap(lambda l: st.tuples(
    st.lists(st.lists(st.integers(0, 3), min_size=l, max_size=l), min_size=l, max_size=l),
    st.lists(st.integers(1, 5), min_size=l, max_size=l))))
def test_local_model_dimension_is_one_minus_the_local_euler_form(case):
    """The dimension, 1 - <e, e> on the local quiver, equals
    1 - sum e_i^2 + sum c_ij e_i e_j read off the arrow counts c_ij, loops
    included, and `to_json` describes that quiver."""
    counts, mults = case
    data = LocalQuiverData(tuple(map(tuple, counts)), tuple(mults),
                           tuple((1,) for _ in mults), True)
    e = data.multiplicities
    assert local_model_dimension(data) == 1 - sum(x * x for x in e) + sum(
        c * e[i] * e[j] for i, row in enumerate(counts) for j, c in enumerate(row))
    assert validate_quiver(data.to_json()) == data.quiver


def test_local_model_dimension_empty():
    with pytest.raises(ValueError):
        local_model_dimension(LocalQuiverData((), (), (), True))


def test_local_quiver_json(k3):
    f5 = PrimeField(5)
    m = rep_k3(k3, f5, (1, 0, 0))
    doc = local_quiver([(m, 2)], (-1, 1)).to_json()
    assert doc["beta_y"] == [2]
    assert len(doc["arrows"]) == 2  # two loops at the single vertex
    assert all(a["src"] == a["tgt"] == 1 for a in doc["arrows"])
