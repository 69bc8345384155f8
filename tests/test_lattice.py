from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from halflattice.fock import fock_element
from halflattice.lattice import LatticeConfig, LatticeVector, WeightModule, dir_name
from halflattice.vertex import module_operator_context


def test_pairing_on_basis():
    cfg = LatticeConfig(nu=2, k=1)
    assert cfg.pairing(cfg.c_basis(1), cfg.d_basis(1)) == 1
    assert cfg.pairing(cfg.c_basis(1), cfg.d_basis(2)) == 0
    assert cfg.pairing(cfg.c_basis(1), cfg.c_basis(2)) == 0
    assert cfg.pairing(cfg.d_basis(1), cfg.d_basis(2)) == 0


def test_pairing_k_scaling():
    cfg = LatticeConfig(nu=3, k=5)
    for i in range(1, 4):
        for j in range(1, 4):
            assert cfg.pairing(cfg.c_basis(i), cfg.d_basis(j)) == (5 if i == j else 0)


def test_pairing_hyperbolic_square():
    # (c1 + d1, c1 + d1) expands to 2k by bilinearity
    cfg = LatticeConfig(nu=2, k=1)
    v = cfg.c_basis(1) + cfg.d_basis(1)
    assert cfg.pairing(v, v) == 2


def test_pairing_rank_mismatch():
    cfg = LatticeConfig(nu=2, k=1)
    other = LatticeConfig(nu=3, k=1)
    with pytest.raises(ValueError):
        cfg.pairing(cfg.c_basis(1), other.c_basis(1))


coords = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=3), min_size=2, max_size=2
)


@given(coords, coords, coords, coords, st.fractions(min_value=-5, max_value=5, max_denominator=2))
def test_pairing_symmetric_bilinear(c1, d1, c2, d2, scalar):
    cfg = LatticeConfig(nu=2, k=2)
    u = cfg.vector(c=c1, d=d1)
    v = cfg.vector(c=c2, d=d2)
    assert cfg.pairing(u, v) == cfg.pairing(v, u)
    assert cfg.pairing(scalar * u, v) == scalar * cfg.pairing(u, v)
    w = cfg.vector(c=d2, d=c1)
    assert cfg.pairing(u + w, v) == cfg.pairing(u, v) + cfg.pairing(w, v)


def dense_pairing(cfg, u, v):
    """Oracle: the bilinear formula over every coordinate, k times
    sum_i (u.c_i v.d_i + u.d_i v.c_i)."""
    total = sum(a * b for a, b in zip(u.c, v.d)) + sum(a * b for a, b in zip(u.d, v.c))
    return cfg.k * total


sparse_coords = st.lists(
    st.one_of(st.just(0), st.integers(-4, 4),
              st.fractions(min_value=-3, max_value=3, max_denominator=4)),
    min_size=3, max_size=3,
)


@given(sparse_coords, sparse_coords, sparse_coords, sparse_coords, st.sampled_from([1, 2, -1, -3]))
def test_support_and_sparse_pairing_match_the_dense_coordinates(c1, d1, c2, d2, k):
    cfg = LatticeConfig(nu=3, k=k)
    u, v = cfg.vector(c=c1, d=d1), cfg.vector(c=c2, d=d2)
    for vec, coords in ((u, c1 + d1), (v, c2 + d2)):
        assert vec.support == tuple((i, a) for i, a in enumerate(coords) if a != 0)
        assert all(type(a) is int or a.denominator > 1 for _, a in vec.support)
    got = cfg.pairing(u, v)
    assert got == dense_pairing(cfg, u, v)
    assert type(got) is int or got.denominator > 1


@given(sparse_coords, sparse_coords, sparse_coords, sparse_coords,
       st.one_of(st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=3)))
def test_vector_arithmetic_matches_the_coordinate_tuples(c1, d1, c2, d2, q):
    # the core's +, -, negation and scalar products against coordinate-wise
    # arithmetic; a sum holds its terms in the order the summands bring
    # them, and support still lists them in direction order
    cfg = LatticeConfig(nu=3, k=1)
    x, y = tuple(c1 + d1), tuple(c2 + d2)
    u, v = cfg.vector(c=c1, d=d1), cfg.vector(c=c2, d=d2)
    backwards = LatticeVector(3, dict(reversed(list(enumerate(y)))))
    assert backwards == v
    cases = [
        (u + v, [a + b for a, b in zip(x, y)]),
        (v + u, [a + b for a, b in zip(x, y)]),
        (backwards + u, [a + b for a, b in zip(x, y)]),
        (u - v, [a - b for a, b in zip(x, y)]),
        (-u, [-a for a in x]),
        (q * u, [q * a for a in x]),
        (u * q, [q * a for a in x]),
        (backwards, y),
    ]
    for vec, coords in cases:
        assert vec.c + vec.d == tuple(coords) and vec.nu == 3
        assert vec.support == tuple((i, a) for i, a in enumerate(coords) if a != 0)
        assert all(type(a) is int or a.denominator > 1 for _, a in vec.support)
    assert (cfg.d_basis(2) + cfg.c_basis(1)).support == ((0, 1), (4, 1))


def test_vectors_print_and_check_directions_through_the_core():
    cfg = LatticeConfig(nu=2, k=1)
    v = cfg.vector(c=[1, 0], d=[2, Fraction(-1, 2)])
    assert str(v) == repr(v) == "c1 + 2*d1 - 1/2*d2"
    assert str(cfg.zero()) == "0" and str(cfg.dir_vector(2) - cfg.c_basis(2)) == "-c2 + d1"
    with pytest.raises(ValueError, match="direction index 4 out of range 0..3"):
        cfg.dir_vector(4)
    assert hash(v) == hash(LatticeVector(2, {3: Fraction(-1, 2), 2: 2, 0: Fraction(2, 2)}))


def test_charge_lattice_is_isotropic():
    cfg = LatticeConfig(nu=3, k=2)
    charges = [cfg.from_charge(t) for t in [(1, 0, 0), (2, -1, 3), (0, 5, -2)]]
    for a in charges:
        for b in charges:
            assert cfg.pairing(a, b) == 0


def test_fractional_dual_pairs_integrally():
    cfg = LatticeConfig(nu=2, k=3)
    lam = cfg.vector(d=[Fraction(1, 3), Fraction(-2, 3)])
    module_operator_context(lam, WeightModule(cfg))  # accepts lam as a module weight
    for charge in [(1, 0), (0, 1), (4, -7)]:
        value = cfg.pairing(cfg.from_charge(charge), lam)
        assert value.denominator == 1


def test_vector_pads_only_an_omitted_family():
    cfg = LatticeConfig(nu=3, k=1)
    with pytest.raises(ValueError, match="c must have 3 coordinates, got 1"):
        cfg.vector(c=[1])
    with pytest.raises(ValueError, match="d must have 3 coordinates, got 2"):
        cfg.vector(d=[2, 5])
    with pytest.raises(ValueError, match="c must have 3 coordinates, got 0"):
        cfg.vector(c=[])
    v = cfg.vector(d=[2, 5, 0])
    assert v.c == (0, 0, 0) and v.d == (2, 5, 0)
    assert cfg.vector() == cfg.zero() == cfg.vector(c=[0] * 3, d=[0] * 3)


def test_config_validation():
    with pytest.raises(ValueError):
        LatticeConfig(nu=0, k=1)
    with pytest.raises(ValueError):
        LatticeConfig(nu=2, k=0)


@pytest.mark.parametrize("nu, k", [(2, Fraction(1, 2)), (1.0, 1), (2, 1.0), (Fraction(3, 2), 1)])
def test_config_rejects_non_integers(nu, k):
    with pytest.raises(TypeError):
        LatticeConfig(nu, k)


def test_config_normalizes_whole_fractions():
    cfg = LatticeConfig(Fraction(2), Fraction(-3))
    assert cfg == LatticeConfig(2, -3) and type(cfg.nu) is int and type(cfg.k) is int


def test_direction_indexing():
    cfg = LatticeConfig(nu=2, k=4)
    assert dir_name(0, 2) == "c1" and dir_name(3, 2) == "d2"
    # one spelling: a vector's terms and a Fock factor read the same rule
    assert [str(cfg.dir_vector(i)) for i in range(4)] == ["c1", "c2", "d1", "d2"]
    assert str(fock_element(2, [(0, 1), (3, 3)])) == "d2(-3)c1(-1)"
    assert cfg.dir_vector(1) == cfg.c_basis(2)
    assert cfg.dir_vector(2) == cfg.d_basis(1)


@pytest.mark.parametrize("i", [1.0, 1.5, Fraction(1, 2), "1"])
def test_basis_indices_must_be_integers(i):
    cfg = LatticeConfig(nu=2, k=1)
    for basis in (cfg.c_basis, cfg.d_basis):
        with pytest.raises(TypeError, match="expected an integer"):
            basis(i)
    assert cfg.c_basis(Fraction(2)) == cfg.c_basis(2) and cfg.d_basis(True) == cfg.d_basis(1)
    with pytest.raises(ValueError, match="basis index 3 out of range 1..2"):
        cfg.c_basis(3)
