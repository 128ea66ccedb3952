import operator

import pytest
from hypothesis import example, given, settings, strategies as st

from quivermod import (QQ, Arrow, Path, Quiver, QuiverError, compose, direct_sum,
                       enumerate_dimvectors, enumerate_paths, euler_form, generic_ext, quiver,
                       representation, theta_pairing, validate_quiver)
from quivermod.moduli import CyclicQuiverError
from quivermod.quiver import _is_acyclic, check_path


def test_validate_a2():
    q = validate_quiver({"vertices": 2, "arrows": [{"id": "a", "src": 1, "tgt": 2}]})
    assert q.vertex_count == 2 and q.acyclic


def test_validate_self_loop_cyclic():
    q = validate_quiver({"vertices": 1, "arrows": [{"id": "l", "src": 1, "tgt": 1}]})
    assert not q.acyclic


small_quivers = st.integers(1, 5).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.tuples(st.integers(1, k), st.integers(1, k)), max_size=8)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(small_quivers)
@example((1, [(1, 1)]))  # a loop
@example((3, [(1, 2), (2, 1)]))  # a 2-cycle and an isolated vertex
@example((2, [(1, 2), (1, 2), (1, 2)]))  # parallel arrows
@example((4, [(1, 2), (2, 3), (3, 4), (4, 2), (1, 3)]))
@example((5, []))
def test_is_acyclic_matches_path_oracle(case):
    """With k vertices, a path of length k repeats a vertex, so q has an
    oriented cycle iff it has a path of length k."""
    k, ends = case
    q = quiver(k, [(f"a{i}", src, tgt) for i, (src, tgt) in enumerate(ends)])
    has_long_path = any(p.length == k for p in enumerate_paths(q, k))
    assert q.acyclic == _is_acyclic(q.arrows) == (not has_long_path)


def test_validate_out_of_range():
    with pytest.raises(QuiverError):
        validate_quiver({"vertices": 2, "arrows": [{"id": "a", "src": 1, "tgt": 3}]})


def test_validate_duplicate_id():
    with pytest.raises(QuiverError):
        quiver(2, [("a", 1, 2), ("a", 1, 2)])


@pytest.mark.parametrize("build", [
    lambda: quiver(0, []),
    lambda: quiver(2, [], ["v1"]),
    lambda: quiver(2, [], ["v1", "v1"]),
    lambda: quiver(2, [], 5),
    lambda: quiver(2, [], [[1], [2]]),
    lambda: validate_quiver([{"vertices": 1}]),
    lambda: validate_quiver({"arrows": []}),
    lambda: validate_quiver({"vertices": 1, "arrows": [{"id": "a"}]}),
    lambda: validate_quiver({"vertices": 2, "labels": "ab"}),
    lambda: validate_quiver({"vertices": 2, "labels": b"ab"}),
    lambda: quiver(2, [], "ab"),
    lambda: quiver(2, [], [1, 2]),
    lambda: validate_quiver({"vertices": 2, "labels": [1, None]}),
    lambda: validate_quiver({"vertices": 2, "arrows": [{"id": None, "src": 1, "tgt": 2}]}),
    lambda: validate_quiver({"vertices": 2, "arrows": [{"id": ["x"], "src": 1, "tgt": 2}]}),
    lambda: validate_quiver({"vertices": 2, "arrows": [{"id": 1, "src": 1, "tgt": 2}]}),
], ids=["no-vertices", "too-few-labels", "repeated-label", "labels-not-a-list",
        "unhashable-labels", "not-a-mapping", "no-vertex-count", "arrow-without-ends",
        "labels-a-string", "labels-bytes", "labels-a-string-to-quiver", "label-an-int",
        "labels-not-strings", "id-none", "id-a-list", "id-an-int"])
def test_malformed_quiver_input_is_refused(build):
    """A string of labels used to be read one character per label; labels
    that are not strings used to be accepted, and arrow ids were turned into
    strings, so `{"id": null}` named an arrow "None"."""
    with pytest.raises(QuiverError):
        build()


@pytest.mark.parametrize("arrows", [[["a", 1, 2]], [("a", 1, 2)], ["a"], "a", 5])
def test_arrows_not_given_as_objects_name_the_expected_form(arrows):
    """Arrows given as lists used to be refused with "list indices must be
    integers or slices, not str"."""
    with pytest.raises(QuiverError, match='"arrows" must be a list of {"id", "src", "tgt"}'):
        validate_quiver({"vertices": 2, "arrows": arrows})


LOOP = (Arrow("l", 1, 1),)


def test_quiver_built_directly_works_out_acyclic():
    """`acyclic` used to be a constructor field: `Quiver(1, LOOP, ("v1",), True)`
    was accepted, so generic_ext answered for the loop quiver and an
    unbounded enumerate_paths ran out of memory."""
    q = Quiver(1, LOOP, ("v1",))
    assert not q.acyclic and Quiver(2, (Arrow("a", 1, 2),), ("v1", "v2")).acyclic
    with pytest.raises(CyclicQuiverError):
        generic_ext(q, (1,), (1,))
    with pytest.raises(QuiverError):
        enumerate_paths(q)
    assert len(enumerate_paths(q, 2)) == 3
    with pytest.raises(TypeError):
        Quiver(1, LOOP, ("v1",), True)


@pytest.mark.parametrize("args", [
    (2, (Arrow("a", 1, 3),), ("v1", "v2")),
    (2, (Arrow("a", 0, 1),), ("v1", "v2")),
    (2, (Arrow("a", 1, 1.0),), ("v1", "v2")),
    (2, (Arrow("a", 1, 2), Arrow("a", 2, 1)), ("v1", "v2")),
    (2, (), ("v1",)),
    (2, (), ("v1", "v2", "v3")),
    (2, (), ("v1", "v1")),
    (0, (), ()),
    (-1, (), ()),
    (2.0, (), ("v1", "v2")),
    (True, (), ("v1",)),
    (1, (("a", 1, 1),), ("v1",)),
    (2, (Arrow("a", True, 2),), ("v1", "v2")),
    (2, (Arrow(1, 1, 2),), ("v1", "v2")),
], ids=["end-past-the-last", "end-zero", "end-a-float", "duplicate-id", "too-few-labels",
        "too-many-labels", "repeated-label", "zero-vertices", "negative-vertices",
        "float-vertex-count", "bool-vertex-count", "arrow-a-tuple", "end-a-bool",
        "id-not-a-str"])
def test_quiver_built_directly_is_checked(args):
    """The checks of `quiver` used to be skipped by a direct construction; a
    bool vertex count used to be accepted and an arrow given as a tuple
    raised a bare AttributeError."""
    with pytest.raises(QuiverError):
        Quiver(*args)


def test_quiver_parts_must_be_tuples():
    """A list of arrows or of labels used to be accepted: the frozen quiver was
    unhashable and unequal to the same quiver built by `quiver`, so `direct_sum`
    refused representations over the two as living over different quivers."""
    for args in [(2, [Arrow("a", 1, 2)], ("v1", "v2")), (2, (Arrow("a", 1, 2),), ["v1", "v2"]),
                 (1, [], ["v1"])]:
        with pytest.raises(QuiverError, match="tuples"):
            Quiver(*args)
    q = Quiver(2, (Arrow("a", 1, 2),), ("v1", "v2"))
    assert q == quiver(2, [("a", 1, 2)]) and hash(q) == hash(quiver(2, [("a", 1, 2)]))
    m = representation(q, QQ, (1, 1), {"a": [[1]]})
    n = representation(quiver(2, [("a", 1, 2)]), QQ, (1, 1), {"a": [[2]]})
    assert direct_sum(m, n).matrix("a").rows == ((1, 0), (0, 2))


def test_validate_quiver_passes_a_quiver_through(k3):
    assert validate_quiver(k3) is k3
    assert quiver(2, [("a", 1, 2)]) == Quiver(2, (Arrow("a", 1, 2),), ("v1", "v2"))


def test_paths_a2(a2):
    assert [str(p) for p in enumerate_paths(a2)] == ["e1", "e2", "a"]


def test_paths_single_vertex():
    q = quiver(1, [])
    assert [str(p) for p in enumerate_paths(q)] == ["e1"]


def test_paths_k3_count(k3):
    assert len(enumerate_paths(k3)) == 5


def test_paths_cyclic_needs_bound():
    q = quiver(1, [("l", 1, 1)])
    with pytest.raises(QuiverError):
        enumerate_paths(q)
    assert len(enumerate_paths(q, max_len=3)) == 4


def test_paths_deterministic(a3):
    assert enumerate_paths(a3) == enumerate_paths(a3)
    assert [str(p) for p in enumerate_paths(a3)] == ["e1", "e2", "e3", "a", "b", "b*a"]


def test_check_path(a3):
    good = Path(1, 3, ("a", "b"))
    assert check_path(a3, good) is good and check_path(a3, Path(3, 3))
    for bad in [Path(1, 3, ("b", "a")), Path(1, 2, ("c",)), Path(1, 3, ("a",)),
                Path(1, 2, ()), Path(0, 0, ()), Path(4, 4, ())]:
        with pytest.raises(QuiverError):
            check_path(a3, bad)


def test_path_composition(a3):
    a = enumerate_paths(a3)[3]
    b = enumerate_paths(a3)[4]
    ba = compose(b, a)  # apply a, then b
    assert (ba.source, ba.target, ba.arrows) == (1, 3, ("a", "b"))
    with pytest.raises(QuiverError):
        compose(a, b)


def test_euler_examples(a2, k3, arrowfree2):
    assert euler_form(arrowfree2, (1, 2), (3, 4)) == 11
    assert euler_form(k3, (1, 1), (1, 1)) == -1
    assert euler_form(a2, (1, 1), (1, 1)) == 1


def test_euler_length_mismatch(k3):
    with pytest.raises(QuiverError):
        euler_form(k3, (1,), (1, 1))


def test_theta_examples():
    assert theta_pairing((-1, 1), (2, 3)) == 1
    assert theta_pairing((5, -7), (0, 0)) == 0
    for n in range(5):
        assert theta_pairing((-1, 1), (n, n)) == 0
    with pytest.raises(QuiverError):
        theta_pairing((1,), (1, 2))


def test_dimvec_examples(k3):
    assert enumerate_dimvectors(k3, 2, (-1, 1)) == [(1, 1)]
    assert enumerate_dimvectors(k3, 3, (-1, 1)) == []
    assert enumerate_dimvectors(k3, 0, (7, -3)) == [(0, 0)]


def test_dimvecs_sorted(a3):
    vecs = enumerate_dimvectors(a3, 4, (1, -1, 0))
    assert vecs == sorted(vecs)
    assert all(sum(v) == 4 and theta_pairing((1, -1, 0), v) == 0 for v in vecs)


small_vec = st.tuples(*([st.integers(-20, 20)] * 2))


@given(small_vec, small_vec, small_vec)
def test_euler_bilinear(a, b, c):
    q = quiver(2, [("x", 1, 2), ("y", 1, 2), ("z", 1, 2)])
    asum = tuple(x + y for x, y in zip(a, b))
    assert euler_form(q, asum, c) == euler_form(q, a, c) + euler_form(q, b, c)
    csum = tuple(x + y for x, y in zip(b, c))
    assert euler_form(q, a, csum) == euler_form(q, a, b) + euler_form(q, a, c)


@given(small_vec, small_vec, small_vec)
def test_theta_linear(t, a, b):
    asum = tuple(x + y for x, y in zip(a, b))
    assert theta_pairing(t, asum) == theta_pairing(t, a) + theta_pairing(t, b)
    assert theta_pairing(a, b) == theta_pairing(b, a)


vec5 = st.lists(st.integers(-9, 9), min_size=5, max_size=5)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(small_quivers, vec5, vec5)
@example((1, [(1, 1), (1, 1)]), [2, 0, 0, 0, 0], [-3, 0, 0, 0, 0])  # two loops
@example((3, [(1, 2), (2, 1), (2, 2), (1, 2)]), [1, -2, 3, 0, 0], [4, 5, -6, 0, 0])  # 2-cycle, loop
def test_euler_matrix_counts_arrows(case, a, b):
    """E_ij = delta_ij - #arrows i -> j, and <a, b> = a . (E b) equals the sum
    formula sum a_i b_i - sum over arrows i -> j of a_i b_j."""
    k, ends = case
    q = quiver(k, [(f"a{t}", s, e) for t, (s, e) in enumerate(ends)])
    want = tuple(tuple((1 if i == j else 0) - ends.count((i, j)) for j in q.vertices())
                 for i in q.vertices())
    assert q.euler_matrix == want and q.euler_matrix is q.euler_matrix
    a, b = a[:k], b[:k]
    e_b = [sum(map(operator.mul, row, b)) for row in want]
    assert euler_form(q, a, b) == sum(map(operator.mul, a, e_b)) == (
        sum(map(operator.mul, a, b)) - sum(a[s - 1] * b[e - 1] for s, e in ends))


@given(small_vec, small_vec)
def test_arrowfree_is_dot_product(a, b):
    q = quiver(2, [])
    assert euler_form(q, a, b) == sum(x * y for x, y in zip(a, b))
