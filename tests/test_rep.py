import random
from fractions import Fraction

import numpy as np
import pytest

from quivermod import (QQ, FieldError, PrimeField, RepresentationError, act, direct_sum,
                       euler_form, evaluate_path, ext_space, group_element,
                       hom_space, quiver, random_group_element,
                       random_representation, representation,
                       representation_from_json, theta_pairing,
                       zero_representation)
from quivermod import linalg
from quivermod.quiver import Path, enumerate_paths
from quivermod.fields import Matrix
from quivermod.rep import GroupElement, Representation, compose_group


def rep_k3(k3, field, m):
    return representation(k3, field, (1, 1),
                          {"x": [[m[0]]], "y": [[m[1]]], "z": [[m[2]]]})


def test_evaluate_trivial_path(k3):
    m = zero_representation(k3, QQ, (2, 1))
    out = evaluate_path(m, Path(1, 1))
    assert out.shape == (2, 2)
    assert out.tolist() == [[1, 0], [0, 1]]


def test_evaluate_single_arrow(a2):
    m = representation(a2, QQ, (1, 1), {"a": [[3]]})
    out = evaluate_path(m, Path(1, 2, ("a",)))
    assert out.tolist() == [[3]]
    assert out is m.matrix("a")  # a one-arrow path is the arrow's own (immutable) matrix


def test_evaluate_composite(a3):
    m = representation(a3, QQ, (1, 2, 1), {"a": [[2], [3]], "b": [[1, 4]]})
    out = evaluate_path(m, Path(1, 3, ("a", "b")))
    assert out.shape == (1, 1)
    assert out.tolist() == [[2 * 1 + 3 * 4]]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_evaluate_long_paths_is_the_matmul_chain(field):
    """Paths of length 3 and 4 through a loop and a 2-cycle evaluate to the
    right-to-left `matmul` product of their arrows' matrices."""
    q = quiver(2, [("l", 1, 1), ("a", 1, 2), ("b", 2, 1)])
    rng, dim = random.Random(4), (2, 3)
    m = representation(q, field, dim, {
        a.id: [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim[a.src - 1])]
               for _ in range(dim[a.tgt - 1])] for a in q.arrows})
    paths = [p for p in enumerate_paths(q, 4) if p.length >= 3]
    assert {p.length for p in paths} == {3, 4}
    for p in paths:
        expected = m.matrix(p.arrows[0])
        for aid in p.arrows[1:]:
            expected = linalg.matmul(field, m.matrix(aid), expected)
        assert evaluate_path(m, p) == expected


def test_evaluate_foreign_path(a2, k3):
    m = zero_representation(a2, QQ, (1, 1))
    with pytest.raises(RepresentationError):
        evaluate_path(m, Path(1, 2, ("x",)))


def test_path_functoriality(a3):
    rng = random.Random(3)
    m = random_representation(a3, PrimeField(7), (2, 3, 2), rng)
    a = Path(1, 2, ("a",))
    b = Path(2, 3, ("b",))
    ba = Path(1, 3, ("a", "b"))
    import quivermod.linalg as linalg
    lhs = evaluate_path(m, ba)
    rhs = linalg.matmul(m.field, evaluate_path(m, b), evaluate_path(m, a))
    assert linalg.equal(m.field, lhs, rhs)


def test_direct_sum(k3):
    m = rep_k3(k3, QQ, (1, 0, 0))
    z = zero_representation(k3, QQ, (0, 0))
    s = direct_sum(m, z)
    assert s.dim == m.dim
    n = zero_representation(k3, QQ, (2, 0))
    assert direct_sum(
        representation(k3, QQ, (1, 1), {}), n).dim == (3, 1)
    both = direct_sum(m, rep_k3(k3, QQ, (0, 1, 0)))
    assert theta_pairing((-1, 1), both.dim) == 0


def test_direct_sum_mismatch(a2, k3):
    with pytest.raises(RepresentationError):
        direct_sum(zero_representation(a2, QQ, (1, 1)),
                   zero_representation(k3, QQ, (1, 1)))
    with pytest.raises(RepresentationError):
        direct_sum(zero_representation(k3, QQ, (1, 1)),
                   zero_representation(k3, PrimeField(3), (1, 1)))


def test_act_identity(k3):
    m = rep_k3(k3, QQ, (1, 2, 3))
    g = group_element(QQ, [[[1]], [[1]]])
    out = act(g, m)
    assert all(out.matrix(a) == m.matrix(a) for a in m.matrices)


def test_act_example(k3):
    m = rep_k3(k3, QQ, (1, 0, 0))
    g = group_element(QQ, [[[2]], [[3]]])
    out = act(g, m)
    assert out.matrix("x").tolist() == [[Fraction(3, 2)]]
    assert out.matrix("y").tolist() == [[0]]


def test_act_composition(k3):
    rng = random.Random(5)
    f5 = PrimeField(5)
    m = random_representation(k3, f5, (2, 2), rng)
    g = random_group_element(f5, (2, 2), rng)
    h = random_group_element(f5, (2, 2), rng)
    import quivermod.linalg as linalg
    lhs = act(g, act(h, m))
    rhs = act(compose_group(g, h), m)
    assert all(linalg.equal(f5, lhs.matrix(a), rhs.matrix(a)) for a in lhs.matrices)


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(2**31 - 1)],
                         ids=["Q", "F5", "F2^31-1"])
def test_act_matches_coerced_representation(field):
    """`act` keeps the products as they are: coercing them again through
    `representation` gives the same dimension vector and matrices, entry types
    included, also at zero-dimensional vertices."""
    q = quiver(3, [("a", 1, 2), ("b", 2, 3), ("c", 3, 1), ("l", 2, 2), ("d", 1, 3)])
    rng = random.Random(3)
    for dim in ((2, 3, 1), (0, 2, 1), (2, 0, 0), (1, 0, 2), (0, 0, 0)):
        m = random_representation(q, field, dim, rng)
        out = act(random_group_element(field, dim, rng), m)
        ref = representation(q, field, dim, out.matrices)
        assert (out.quiver, out.field, out.dim) == (ref.quiver, ref.field, ref.dim)
        assert out.matrices == ref.matrices
        assert all(type(x) is type(y) for a in q.arrows
                   for r, s in zip(out.matrix(a.id), ref.matrix(a.id)) for x, y in zip(r, s))


def test_act_checks_its_group_element(k3):
    m = rep_k3(k3, QQ, (1, 0, 0))
    with pytest.raises(RepresentationError, match="field mismatch"):
        act(group_element(PrimeField(5), [[[1]], [[1]]]), m)
    for blocks in ([[[1]]], [[[1]], [[1, 0], [0, 1]]], [[[1]], [[1]], [[1]]]):
        with pytest.raises(RepresentationError, match="do not match"):
            act(group_element(QQ, blocks), m)


def test_singular_group_element_rejected():
    with pytest.raises(RepresentationError):
        group_element(QQ, [[[0]]])


def test_group_element_built_directly_is_validated():
    """A `GroupElement` built without `group_element` is checked as well: a
    singular or non-square block used to be accepted, after which chi_theta
    returned 0 and act raised a bare ZeroDivisionError."""
    one = Matrix(((1,),), (1, 1))
    for blocks in [(Matrix(((0,),), (1, 1)), one),
                   (one, Matrix(((1, 0),), (1, 2))),
                   (one, Matrix(((1, 2), (2, 4)), (2, 2))),
                   ([[1]],)]:
        with pytest.raises(RepresentationError):
            GroupElement(QQ, blocks)
    g = GroupElement(PrimeField(5), [Matrix(((2,),), (1, 1)), Matrix((), (0, 0))])
    assert g.mats == (Matrix(((2,),), (1, 1)), Matrix((), (0, 0)))
    assert g.dets == (2, 1) and g.inverses == (Matrix(((3,),), (1, 1)), Matrix((), (0, 0)))


def test_group_element_takes_known_blocks_by_keyword_only(a2):
    """The trusted (dets, inverses) argument used to be positional: over F_5,
    blocks [[2]] and [[3]] claimed to have determinants 1, 1 and identity
    inverses were accepted unchecked, after which act mapped M_a = 1 to 3
    instead of 4 and chi_theta(g, (-1, 1)) gave 1 instead of 4."""
    from quivermod.localization import chi_theta
    f5, one = PrimeField(5), Matrix(((1,),), (1, 1))
    blocks = (Matrix(((2,),), (1, 1)), Matrix(((3,),), (1, 1)))
    with pytest.raises(TypeError):
        GroupElement(f5, blocks, ((1, 1), (one, one)))
    g = GroupElement(f5, blocks)
    assert act(g, representation(a2, f5, (1, 1), {"a": [[1]]})).matrix("a").rows == ((4,),)
    assert chi_theta(g, (-1, 1)) == 4


def test_compose_group_checks_its_factors():
    """Different vertex counts used to be truncated by zip, and blocks of
    different sizes raised a bare ValueError from matmul."""
    rng = random.Random(2)
    g = random_group_element(QQ, (1, 2), rng)
    with pytest.raises(RepresentationError):
        compose_group(g, random_group_element(QQ, (1, 2, 1), rng))
    with pytest.raises(RepresentationError):
        compose_group(random_group_element(QQ, (1, 2, 1), rng), g)
    with pytest.raises(RepresentationError):
        compose_group(g, random_group_element(QQ, (2, 2), rng))
    with pytest.raises(RepresentationError):
        compose_group(g, random_group_element(PrimeField(5), (1, 2), rng))


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(2**31 - 1)],
                         ids=["Q", "F5", "F2^31-1"])
def test_group_element_determinants_and_inverses(field):
    """dets[i] is det(g_i) and inverses[i] is g_i^-1, for random elements, for
    elements built from blocks, and for products, zero-sized blocks included."""
    import quivermod.linalg as linalg
    rng = random.Random(11)
    for _ in range(20):
        dim = [rng.randint(0, 4) for _ in range(3)]
        g = random_group_element(field, dim, rng)
        h = random_group_element(field, dim, rng)
        for x in (g, group_element(field, g.mats), compose_group(g, h)):
            assert len(x.dets) == len(x.inverses) == len(x.mats) == 3
            for gi, d, inverse in zip(x.mats, x.dets, x.inverses):
                n = gi.shape[0]
                assert d == linalg.det(field, gi) and type(d) is type(linalg.det(field, gi))
                assert inverse == linalg.inv(field, gi)
                assert linalg.equal(field, linalg.matmul(field, inverse, gi), field.identity(n))
                assert linalg.equal(field, linalg.matmul(field, gi, inverse), field.identity(n))


def test_group_blocks_are_eliminated_once(monkeypatch):
    """Building an element eliminates each kept block exactly once; the other
    eliminations of random_group_element are of singular draws it discards."""
    import quivermod.linalg as linalg
    calls = []
    det_inv = linalg._det_inv

    def spy(fld, rows):
        out = det_inv(fld, rows)
        calls.append((linalg._matrix(fld, rows, len(rows)), out[1] is not None))
        return out

    monkeypatch.setattr(linalg, "_det_inv", spy)
    for fld in (QQ, PrimeField(2), PrimeField(5)):
        calls.clear()
        g = random_group_element(fld, (3, 0, 2, 1), random.Random(4))
        # the invertible eliminations are the kept blocks, once each, in order
        assert [block for block, invertible in calls if invertible] == list(g.mats)
        calls.clear()
        group_element(fld, g.mats)
        assert [block for block, _ in calls] == list(g.mats)


def test_hom_examples(a2):
    m = representation(a2, QQ, (1, 1), {"a": [[1]]})
    assert hom_space(m, m).dim == 1
    zero_map = representation(a2, QQ, (1, 1), {"a": [[0]]})
    assert hom_space(zero_map, zero_map).dim == 2
    z = zero_representation(a2, QQ, (0, 0))
    assert hom_space(m, z).dim == 0


def test_representation_matrices_are_read_only(k2):
    """A frozen representation's matrices cannot be swapped after it was
    built, nor through the mapping it was built from: a 1 x 3 matrix put in
    used to reach `_hom_system` and fail there with an IndexError."""
    f5 = PrimeField(5)
    m = representation(k2, f5, (1, 1), {"x": [[1]], "y": [[2]]})
    with pytest.raises(TypeError):
        m.matrices["x"] = f5.array([[1, 2, 3]])
    given = dict(m.matrices)
    direct = Representation(k2, f5, (1, 1), given)
    given["x"] = f5.array([[1, 2, 3]])
    assert direct.matrices == m.matrices and direct.matrix("x").tolist() == [[1]]
    assert ext_space(m, m).dim == 1 and hom_space(m, direct).dim == 1


def test_hom_space_is_hashable_and_read_only(k2):
    f5 = PrimeField(5)
    m = representation(k2, f5, (1, 1), {"x": [[1]], "y": [[2]]})
    hom = hom_space(m, m)
    assert hash(hom) == hash(hom_space(m, m)) and hom == hom_space(m, m)
    with pytest.raises(TypeError):
        hom.basis[0][1] = f5.array([[0]])
    assert [dict(b) for b in hom.basis] == [{1: f5.array([[1]]), 2: f5.array([[1]])}]


def test_hom_basis_are_intertwiners(k3):
    rng = random.Random(9)
    f5 = PrimeField(5)
    m = random_representation(k3, f5, (2, 2), rng)
    n = random_representation(k3, f5, (2, 1), rng)
    import quivermod.linalg as linalg
    hom = hom_space(m, n)
    for maps in hom.basis:
        for a in k3.arrows:
            lhs = linalg.matmul(f5, maps[a.tgt], m.matrix(a.id))
            rhs = linalg.matmul(f5, n.matrix(a.id), maps[a.src])
            assert linalg.equal(f5, lhs, rhs)


def test_ext_examples(k3):
    m = rep_k3(k3, QQ, (1, 0, 0))
    assert ext_space(m, m).dim == 2
    z = zero_representation(k3, QQ, (1, 1))
    assert ext_space(z, z).dim == 3


def test_ext_rigid_case(a2):
    m = representation(a2, QQ, (1, 1), {"a": [[1]]})
    assert euler_form(a2, m.dim, m.dim) == hom_space(m, m).dim
    assert ext_space(m, m).dim == 0


CYCLIC_QUIVERS = {
    "Jordan": (1, [("l", 1, 1)]),
    "2-cycle": (2, [("a", 1, 2), ("b", 2, 1)]),
    "loop and arrow": (2, [("l", 1, 1), ("a", 1, 2)]),
}


@pytest.mark.parametrize("name", sorted(CYCLIC_QUIVERS))
@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_euler_identity_cyclic(name, field):
    # path algebras are hereditary, so hom - ext = <alpha, beta> with cycles too
    k, arrows = CYCLIC_QUIVERS[name]
    q = quiver(k, arrows)
    rng = random.Random(f"{name}/{field.name}")
    for _ in range(8):
        dm = tuple(rng.randint(0, 3) for _ in range(k))
        dn = tuple(rng.randint(0, 3) for _ in range(k))
        for m, n in ((random_representation(q, field, dm, rng),
                      random_representation(q, field, dn, rng)),
                     (zero_representation(q, field, dm), zero_representation(q, field, dn))):
            assert hom_space(m, n).dim - ext_space(m, n).dim == euler_form(q, dm, dn)


def test_ext_jordan_examples():
    jordan = quiver(1, [("l", 1, 1)])
    nilpotent = representation(jordan, QQ, (2,), {"l": [[0, 1], [0, 0]]})
    assert hom_space(nilpotent, nilpotent).dim == ext_space(nilpotent, nilpotent).dim == 2
    s0 = representation(jordan, QQ, (1,), {"l": [[0]]})
    s1 = representation(jordan, QQ, (1,), {"l": [[1]]})
    assert ext_space(s0, s0).dim == 1 and ext_space(s0, s1).dim == 0


def test_euler_identity_random(k3, a3):
    rng = random.Random(17)
    for q in (k3, a3):
        for field in (QQ, PrimeField(5)):
            for _ in range(10):
                dm = tuple(rng.randint(0, 3) for _ in range(q.vertex_count))
                dn = tuple(rng.randint(0, 3) for _ in range(q.vertex_count))
                m = random_representation(q, field, dm, rng)
                n = random_representation(q, field, dn, rng)
                assert (hom_space(m, n).dim - ext_space(m, n).dim
                        == euler_form(q, dm, dn))


def test_hom_additive_in_direct_sum(k3):
    rng = random.Random(23)
    f3 = PrimeField(3)
    m = random_representation(k3, f3, (1, 1), rng)
    m2 = random_representation(k3, f3, (2, 1), rng)
    n = random_representation(k3, f3, (1, 2), rng)
    assert (hom_space(direct_sum(m, m2), n).dim
            == hom_space(m, n).dim + hom_space(m2, n).dim)


def test_act_preserves_hom_ext_dims(k3):
    rng = random.Random(29)
    f5 = PrimeField(5)
    m = random_representation(k3, f5, (2, 1), rng)
    n = random_representation(k3, f5, (1, 2), rng)
    g = random_group_element(f5, (2, 1), rng)
    h = random_group_element(f5, (1, 2), rng)
    assert hom_space(act(g, m), act(h, n)).dim == hom_space(m, n).dim
    assert ext_space(act(g, m), act(h, n)).dim == ext_space(m, n).dim


def test_serialization_round_trip(k3):
    m = representation(k3, QQ, (1, 1),
                       {"x": [["1/2"]], "y": [["-3"]], "z": [["0"]]})
    doc = m.to_json()
    assert doc["matrices"]["x"] == [["1/2"]]
    back = representation_from_json(doc)
    assert back.dim == m.dim
    assert back.matrix("x").tolist() == [[Fraction(1, 2)]]

    f3 = PrimeField(3)
    n = representation(k3, f3, (1, 1), {"x": [[2]], "y": [[0]], "z": [[1]]})
    back = representation_from_json(n.to_json())
    assert back.field == f3 and back.matrix("x").tolist() == [[2]]


@pytest.mark.parametrize("key", ["quiver", "field", "dim"])
def test_representation_from_json_names_a_missing_key(k3, key):
    """A missing key used to escape as a bare `KeyError`; "quiver" may be
    left out when the quiver is passed."""
    doc = rep_k3(k3, QQ, (1, 0, 0)).to_json()
    del doc[key]
    with pytest.raises(RepresentationError, match=f"no '{key}'"):
        representation_from_json(doc)
    if key == "quiver":
        assert representation_from_json(doc, k3).matrix("x").tolist() == [[1]]
    else:
        with pytest.raises(RepresentationError, match=f"no '{key}'"):
            representation_from_json(doc, k3)


def test_int64_arrays_over_rationals_are_coerced(a2):
    # int64 arrays over Q become Fractions, so the products cannot wrap
    g = group_element(QQ, [np.array([[1]]), np.array([[2**62]])])
    m = representation(a2, QQ, (1, 1), {"a": np.array([[4]])})
    assert m.matrix("a").tolist() == [[4]] and type(m.matrix("a").rows[0][0]) is Fraction
    assert act(g, m).matrix("a").tolist() == [[2**64]]


def test_object_and_float_arrays_are_coerced(a2):
    f5 = PrimeField(5)
    half = representation(a2, f5, (1, 1), {"a": np.array([[Fraction(1, 2)]], dtype=object)})
    assert half.matrix("a").tolist() == [[3]] and type(half.matrix("a").rows[0][0]) is int
    assert representation(a2, f5, (1, 1), {"a": np.array([[-7]])}).matrix("a").tolist() == [[3]]
    with pytest.raises(FieldError):
        representation(a2, QQ, (1, 1), {"a": np.array([[0.5]])})
    with pytest.raises(FieldError):
        group_element(f5, [np.array([[1.0]]), [[1]]])


def assert_elements(field, a):
    """`a` has the rows its shape claims, of plain ints in 0..p-1 over F_p and of
    `Fraction`s over Q."""
    assert len(a.rows) == a.shape[0] and all(len(row) == a.shape[1] for row in a.rows)
    for row in a.rows:
        for x in row:
            if isinstance(field, PrimeField):
                assert type(x) is int and 0 <= x < field.p
            else:
                assert type(x) is Fraction


FIELDS = [QQ, PrimeField(5), PrimeField(2**31 - 1)]
FIELD_IDS = ["Q", "F5", "F2^31-1"]


def test_field_array_shapes():
    for field in FIELDS + [PrimeField(7)]:
        assert field.array(np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)
        assert field.array(np.zeros((2, 0), dtype=object)).shape == (2, 0)
        assert field.array([[], []]).shape == (2, 0)
        assert field.array([]).shape == (0, 0)
        for bad in ([[1], [1, 2]], np.array([1, 2]), 3, [3], [["1/0"]], [[0.5]], [[True]]):
            with pytest.raises(FieldError):
                field.array(bad)
        # entries of every integer type but bool, fractions and strings become
        # field elements
        data = [[np.int64(-7), 2**40, np.uint8(3)], [Fraction(1, 2), "-3/4", 0]]
        for a in (field.array(data), field.array(np.array(data, dtype=object)),
                  field.zeros(2, 3), field.zeros(0, 2), field.zeros(2, 0), field.identity(3)):
            assert_elements(field, a)
            assert field.array(a) == a
        assert field.array(data).tolist() == [[field.coerce(x) for x in row] for row in data]
        # a matrix without columns keeps its shape through tolist(); one without
        # rows reads back as [], whose column count `representation` restores
        assert field.array(field.zeros(3, 0).tolist()).shape == (3, 0)
        assert field.zeros(0, 3).tolist() == []


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_zero_row_round_trip(field, k3):
    two_cycle = quiver(2, [("a", 1, 2), ("b", 2, 1)])
    for q, dim in ((k3, (2, 0)), (two_cycle, (0, 2)), (two_cycle, (2, 0))):
        m = random_representation(q, field, dim, random.Random(1))
        assert all(m.matrix(a.id).shape == (dim[a.tgt - 1], dim[a.src - 1]) for a in q.arrows)
        lists = {a: x.tolist() for a, x in m.matrices.items()}
        for back in (representation_from_json(m.to_json()), representation(q, field, dim, lists)):
            assert back.dim == dim and back.field == field
            assert all(back.matrix(a) == m.matrix(a) for a in m.matrices)
            assert back.to_json() == m.to_json()


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_operations_keep_element_types(field, k3):
    """Results of act, inv, matmul, evaluate_sigma and hom_space bases hold the
    field's own elements: `Fraction`s over Q (never ints), plain ints over F_p."""
    import quivermod.linalg as linalg
    from quivermod import check_localized_point, evaluate_sigma, make_sigma
    rng = random.Random(3)
    m = random_representation(k3, field, (2, 2), rng)
    g = random_group_element(field, (2, 2), rng)
    moved = act(g, m)
    for a in k3.arrows:
        assert_elements(field, m.matrix(a.id))
        assert_elements(field, moved.matrix(a.id))
    for gi in g.mats:
        assert_elements(field, gi)
        assert_elements(field, linalg.inv(field, gi))
        assert_elements(field, linalg.matmul(field, gi, gi))
    sigma = make_sigma(k3, (-1, 1), 2, seed=1)
    assert_elements(field, evaluate_sigma(sigma, m))
    for path in (Path(1, 2, ("x",)), Path(1, 1)):
        assert_elements(field, evaluate_path(m, path))
    point = check_localized_point([sigma], m)
    for inverse in point.inverses or []:
        assert_elements(field, inverse)
    hom = hom_space(m, m)
    assert hom.dim >= 1
    for maps in hom.basis:
        for f in maps.values():
            assert f.shape == (2, 2)
            assert_elements(field, f)


def test_bad_shape_rejected(k3):
    with pytest.raises(RepresentationError):
        representation(k3, QQ, (1, 1), {"x": [[1, 2]]})
    with pytest.raises(RepresentationError):
        representation(k3, QQ, (1,), {})


# --- the Hom/Ext^1 system against the kron-built reference ---------------------

def _kron_reference(m, n):
    """Hom and Ext^1 from the system assembled of kron blocks in ndarrays: (dim,
    basis, cokernel), the basis maps as ndarrays."""
    import quivermod.linalg as linalg
    fld = m.field
    modular = isinstance(fld, PrimeField)
    dtype = np.int64 if modular else object

    def normalize(a):
        return a % fld.p if modular else a

    def np_matrix(a):
        return np.array(a.tolist(), dtype=dtype).reshape(a.shape)

    def kron(a, b):
        out = np.kron(a, b)
        return normalize(out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]))

    k = m.quiver.vertex_count
    sizes = [n.dim[i] * m.dim[i] for i in range(k)]
    off = [0]
    for s in sizes:
        off.append(off[-1] + s)
    labels = [(a.id, r, c) for a in m.quiver.arrows
              for r in range(n.dim[a.tgt - 1]) for c in range(m.dim[a.src - 1])]
    d = np_matrix(fld.zeros(len(labels), off[-1]))
    r0 = 0
    for a in m.quiver.arrows:
        i, j = a.src - 1, a.tgt - 1
        rows = n.dim[j] * m.dim[i]
        if rows:
            if sizes[j]:  # vec(f_j M_a) = (I_{n_j} kron M_a^T) vec(f_j)
                d[r0:r0 + rows, off[j]:off[j + 1]] += kron(np_matrix(fld.identity(n.dim[j])),
                                                           np_matrix(m.matrix(a.id)).T)
            if sizes[i]:  # vec(N_a f_i) = (N_a kron I_{m_i}) vec(f_i)
                d[r0:r0 + rows, off[i]:off[i + 1]] -= kron(np_matrix(n.matrix(a.id)),
                                                           np_matrix(fld.identity(m.dim[i])))
        r0 += rows
    d = normalize(d)
    basis = [{i + 1: np.array(v[off[i]:off[i + 1]], dtype=dtype).reshape(n.dim[i], m.dim[i])
              for i in range(k)}
             for v in linalg.nullspace(fld, fld.array(d))]
    pivots = set(linalg.rref(fld, fld.array(d.T))[1]) if d.shape[1] else set()
    coker = tuple(lab for t, lab in enumerate(labels) if t not in pivots)
    return len(basis), basis, coker


REFERENCE_QUIVERS = {
    "K3": (2, [("x", 1, 2), ("y", 1, 2), ("z", 1, 2)]),
    "Jordan": (1, [("l", 1, 1)]),
    "2-cycle": (2, [("a", 1, 2), ("b", 2, 1)]),
    "back arrow and loop": (2, [("a", 1, 2), ("b", 2, 1), ("l", 2, 2)]),
    "arrowless": (2, []),
}


def _random_rep(q, field, dim, rng):
    """Random matrices; over Q with proper fractions among the entries."""
    if field is QQ:
        mats = {a.id: [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                        for _ in range(dim[a.src - 1])] for _ in range(dim[a.tgt - 1])]
                for a in q.arrows}
        return representation(q, field, dim, mats)
    return random_representation(q, field, dim, rng)


@pytest.mark.parametrize("name", sorted(REFERENCE_QUIVERS))
@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(5), PrimeField(2**31 - 1), QQ],
                         ids=["F2", "F5", "F2^31-1", "Q"])
def test_hom_ext_match_kron_reference(name, field):
    k, arrows = REFERENCE_QUIVERS[name]
    q = quiver(k, arrows)
    rng = random.Random(f"{name}/{field.name}")
    dims = [(0,) * k, (1,) * k, (2,) + (0,) * (k - 1), (0,) * (k - 1) + (3,)]
    dims += [tuple(rng.randint(0, 3) for _ in range(k)) for _ in range(4)]
    pairs = []
    for dm, dn in zip(dims, dims[1:] + dims[:1]):
        pairs.append((_random_rep(q, field, dm, rng), _random_rep(q, field, dn, rng)))
        pairs.append((zero_representation(q, field, dm), _random_rep(q, field, dn, rng)))
        pairs.append((_random_rep(q, field, dm, rng), _random_rep(q, field, dm, rng)))
    m = _random_rep(q, field, dims[-1], rng)
    pairs.append((m, m))
    for m, n in pairs:
        dim, basis, coker = _kron_reference(m, n)
        hom, ext = hom_space(m, n), ext_space(m, n)
        assert hom.dim == dim == len(hom.basis)
        for got, want in zip(hom.basis, basis):
            assert sorted(got) == sorted(want)
            for v in want:
                assert got[v].shape == want[v].shape
                assert got[v].tolist() == want[v].tolist()
                assert_elements(field, got[v])
        assert ext.cokernel == coker and ext.dim == len(coker)


def _fraction_reference(m, n):
    """Hom basis and Ext^1 cokernel from the system written as rows of
    `Fraction`s: the basis by `linalg.nullspace`; the cokernel labels are the
    rows that `linalg.rank` finds dependent on the rows before them, the rows
    that are not pivots of the transposed system."""
    fld = m.field
    off = [0]
    for mi, ni in zip(m.dim, n.dim):
        off.append(off[-1] + ni * mi)
    rows, labels = [], []
    for a in m.quiver.arrows:
        i, j = a.src - 1, a.tgt - 1
        ma, na = m.matrix(a.id).rows, n.matrix(a.id).rows
        for r in range(n.dim[j]):
            for c in range(m.dim[i]):
                row = [Fraction(0)] * off[-1]
                for t in range(m.dim[j]):
                    row[off[j] + r * m.dim[j] + t] += Fraction(ma[t][c])
                for s in range(n.dim[i]):
                    row[off[i] + s * m.dim[i] + c] -= Fraction(na[r][s])
                rows.append(tuple(fld.coerce(x) for x in row))
                labels.append((a.id, r, c))

    def matrix(rs):
        return Matrix(tuple(rs), (len(rs), off[-1]))

    basis = tuple({i + 1: Matrix(tuple(tuple(v[off[i] + r * m.dim[i]:off[i] + (r + 1) * m.dim[i]])
                                       for r in range(n.dim[i])), (n.dim[i], m.dim[i]))
                   for i in range(m.quiver.vertex_count)}
                  for v in linalg.nullspace(fld, matrix(rows)))
    coker = tuple(lab for t, lab in enumerate(labels)
                  if linalg.rank(fld, matrix(rows[:t + 1])) == linalg.rank(fld, matrix(rows[:t])))
    return basis, coker


# a 2-cycle (a, b), a loop (l) and a vertex 3 that the dimension vectors below
# often leave at 0
SYSTEM_QUIVER = quiver(3, [("a", 1, 2), ("b", 2, 1), ("l", 2, 2), ("c", 1, 3)])


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(2**31 - 1)],
                         ids=["Q", "F2", "F2^31-1"])
def test_hom_ext_match_fraction_reference(field):
    """The integer rows `_hom_system` writes, each arrow over its own scale,
    give the Hom basis and Ext^1 cokernel of the system written in `Fraction`s;
    over Q each arrow's entries have their own denominator."""
    rng = random.Random(f"system/{field.name}")
    dens = {"a": 2, "b": 3, "l": 7, "c": 5}

    def rep(dim):
        if field is QQ:
            return representation(SYSTEM_QUIVER, field, dim, {
                a.id: [[Fraction(rng.randint(-5, 5), dens[a.id]) for _ in range(dim[a.src - 1])]
                       for _ in range(dim[a.tgt - 1])] for a in SYSTEM_QUIVER.arrows})
        return random_representation(SYSTEM_QUIVER, field, dim, rng)

    dims = [(2, 1, 0), (1, 2, 0), (0, 2, 1), (2, 2, 1), (1, 1, 0), (0, 0, 0), (3, 2, 0)]
    pairs = [(rep(dm), rep(dn)) for dm in dims for dn in dims]
    m = rep((2, 2, 0))
    pairs.append((m, m))
    for m, n in pairs:
        basis, coker = _fraction_reference(m, n)
        hom, ext = hom_space(m, n), ext_space(m, n)
        assert hom.basis == basis and hom.dim == len(basis)
        assert ext.cokernel == coker and ext.dim == len(coker)


def test_hom_system_encodes_each_arrow_matrix_once(monkeypatch):
    """`_hom_system` encodes each arrow's two matrices once (`Field.ints`), and
    `hom_space` and `ext_space` pass its rows on without encoding them again."""
    for field in (QQ, PrimeField(5)):
        rng = random.Random(3)
        m = random_representation(SYSTEM_QUIVER, field, (2, 2, 1), rng)
        n = random_representation(SYSTEM_QUIVER, field, (1, 2, 1), rng)
        calls = []
        real = type(field).ints
        monkeypatch.setattr(type(field), "ints", lambda self, xs: calls.append(1) or real(self, xs))
        for space in (hom_space, ext_space):
            calls.clear()
            space(m, n)
            assert len(calls) == 2 * len(SYSTEM_QUIVER.arrows)
        monkeypatch.undo()
