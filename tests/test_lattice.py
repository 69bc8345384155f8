from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from halflattice.lattice import LatticeConfig, WeightModule
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
    assert cfg.dir_name(0) == "c1" and cfg.dir_name(3) == "d2"
    assert cfg.dir_vector(1) == cfg.c_basis(2)
    assert cfg.dir_vector(2) == cfg.d_basis(1)
    assert cfg.dir_pairing(0, 2) == 4
    assert cfg.dir_pairing(2, 0) == 4
    assert cfg.dir_pairing(0, 3) == 0
    assert cfg.dir_pairing(0, 1) == 0
