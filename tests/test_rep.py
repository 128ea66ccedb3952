import random
from fractions import Fraction

import numpy as np
import pytest

from quivermod import (QQ, FieldError, PrimeField, RepresentationError, act, direct_sum,
                       euler_form, evaluate_path, ext_space, group_element,
                       hom_space, quiver, random_group_element,
                       random_representation, representation,
                       representation_from_json, theta_pairing, trivial_path,
                       zero_representation)
from quivermod.quiver import Path
from quivermod.rep import compose_group


def rep_k3(k3, field, m):
    return representation(k3, field, (1, 1),
                          {"x": [[m[0]]], "y": [[m[1]]], "z": [[m[2]]]})


def test_evaluate_trivial_path(k3):
    m = zero_representation(k3, QQ, (2, 1))
    out = evaluate_path(m, trivial_path(1))
    assert out.shape == (2, 2)
    assert out[0, 0] == 1 and out[0, 1] == 0 and out[1, 1] == 1


def test_evaluate_single_arrow(a2):
    m = representation(a2, QQ, (1, 1), {"a": [[3]]})
    out = evaluate_path(m, Path(1, 2, ("a",)))
    assert out[0, 0] == 3


def test_evaluate_composite(a3):
    m = representation(a3, QQ, (1, 2, 1), {"a": [[2], [3]], "b": [[1, 4]]})
    out = evaluate_path(m, Path(1, 3, ("a", "b")))
    assert out.shape == (1, 1)
    assert out[0, 0] == 2 * 1 + 3 * 4


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
    assert all((out.matrix(a) == m.matrix(a)).all() for a in m.matrices)


def test_act_example(k3):
    m = rep_k3(k3, QQ, (1, 0, 0))
    g = group_element(QQ, [[[2]], [[3]]])
    out = act(g, m)
    assert out.matrix("x")[0, 0] == Fraction(3, 2)
    assert out.matrix("y")[0, 0] == 0


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


def test_singular_group_element_rejected():
    with pytest.raises(RepresentationError):
        group_element(QQ, [[[0]]])


def test_hom_examples(a2):
    m = representation(a2, QQ, (1, 1), {"a": [[1]]})
    assert hom_space(m, m).dim == 1
    zero_map = representation(a2, QQ, (1, 1), {"a": [[0]]})
    assert hom_space(zero_map, zero_map).dim == 2
    z = zero_representation(a2, QQ, (0, 0))
    assert hom_space(m, z).dim == 0


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
    assert back.matrix("x")[0, 0] == Fraction(1, 2)

    f3 = PrimeField(3)
    n = representation(k3, f3, (1, 1), {"x": [[2]], "y": [[0]], "z": [[1]]})
    back = representation_from_json(n.to_json())
    assert back.field == f3 and back.matrix("x")[0, 0] == 2


def test_int64_arrays_over_rationals_are_coerced(a2):
    # int64 arrays over Q become Fractions, so the products cannot wrap
    g = group_element(QQ, [np.array([[1]]), np.array([[2**62]])])
    m = representation(a2, QQ, (1, 1), {"a": np.array([[4]])})
    assert isinstance(m.matrix("a")[0, 0], Fraction)
    assert act(g, m).matrix("a")[0, 0] == 2**64


def test_object_and_float_arrays_are_coerced(a2):
    f5 = PrimeField(5)
    half = representation(a2, f5, (1, 1), {"a": np.array([[Fraction(1, 2)]], dtype=object)})
    assert half.matrix("a").dtype == np.int64 and half.matrix("a")[0, 0] == 3
    assert representation(a2, f5, (1, 1), {"a": np.array([[-7]])}).matrix("a")[0, 0] == 3
    with pytest.raises(FieldError):
        representation(a2, QQ, (1, 1), {"a": np.array([[0.5]])})
    with pytest.raises(FieldError):
        group_element(f5, [np.array([[1.0]]), [[1]]])


def test_field_array_shapes():
    for field in (QQ, PrimeField(7)):
        assert field.array(np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)
        assert field.array(np.zeros((2, 0), dtype=object)).shape == (2, 0)
        assert field.array([[], []]).shape == (2, 0)
        assert field.array([]).shape == (0, 0)
        for bad in ([[1], [1, 2]], np.array([1, 2]), 3, [3], [["1/0"]]):
            with pytest.raises(FieldError):
                field.array(bad)


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(2**31 - 1)],
                         ids=["Q", "F5", "F2^31-1"])
def test_zero_row_round_trip(field, k3):
    two_cycle = quiver(2, [("a", 1, 2), ("b", 2, 1)])
    for q, dim in ((k3, (2, 0)), (two_cycle, (0, 2)), (two_cycle, (2, 0))):
        m = random_representation(q, field, dim, random.Random(1))
        back = representation_from_json(m.to_json())
        assert back.dim == dim and back.field == field
        assert all(back.matrix(a).shape == m.matrix(a).shape for a in m.matrices)
        assert back.to_json() == m.to_json()


def test_bad_shape_rejected(k3):
    with pytest.raises(RepresentationError):
        representation(k3, QQ, (1, 1), {"x": [[1, 2]]})
    with pytest.raises(RepresentationError):
        representation(k3, QQ, (1,), {})


# --- the Hom/Ext^1 system against the kron-built reference ---------------------

def _kron_reference(m, n):
    """Hom and Ext^1 from the system assembled of kron blocks: (dim, basis, cokernel)."""
    import quivermod.linalg as linalg
    fld = m.field

    def kron(a, b):
        out = np.kron(a, b)
        return fld.normalize(out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]))

    k = m.quiver.vertex_count
    sizes = [n.dim[i] * m.dim[i] for i in range(k)]
    off = [0]
    for s in sizes:
        off.append(off[-1] + s)
    labels = [(a.id, r, c) for a in m.quiver.arrows
              for r in range(n.dim[a.tgt - 1]) for c in range(m.dim[a.src - 1])]
    d = fld.zeros(len(labels), off[-1])
    r0 = 0
    for a in m.quiver.arrows:
        i, j = a.src - 1, a.tgt - 1
        rows = n.dim[j] * m.dim[i]
        if rows:
            if sizes[j]:  # vec(f_j M_a) = (I_{n_j} kron M_a^T) vec(f_j)
                d[r0:r0 + rows, off[j]:off[j + 1]] += kron(fld.identity(n.dim[j]),
                                                           m.matrix(a.id).T)
            if sizes[i]:  # vec(N_a f_i) = (N_a kron I_{m_i}) vec(f_i)
                d[r0:r0 + rows, off[i]:off[i + 1]] -= kron(n.matrix(a.id),
                                                           fld.identity(m.dim[i]))
        r0 += rows
    d = fld.normalize(d)
    basis = [{i + 1: v[off[i]:off[i + 1]].reshape(n.dim[i], m.dim[i]) for i in range(k)}
             for v in linalg.nullspace(fld, d)]
    pivots = set(linalg.rref(fld, d.T)[1]) if d.shape[1] else set()
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
                assert got[v].dtype == want[v].dtype and got[v].shape == want[v].shape
                assert got[v].tolist() == want[v].tolist()
                assert [type(x) for x in got[v].flat] == [type(x) for x in want[v].flat]
        assert ext.cokernel == coker and ext.dim == len(coker)
