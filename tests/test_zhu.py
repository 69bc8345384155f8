import itertools
import random

import pytest

from halflattice.assoc import AElement
from halflattice.fock import VElement, charge_element, fock_element, vacuum
from halflattice.lattice import LatticeConfig
from halflattice.laurent import LaurentRing
from halflattice.probes import rand_a_element, rand_velement
from halflattice.zhu import (
    circ_general,
    o_action_on_v0,
    zhu_embed,
    zhu_iso_cases,
    zhu_reduce,
    zhu_star,
)

CFG = LatticeConfig(nu=2, k=1)
CFGK = LatticeConfig(nu=2, k=2)


def test_star_of_charges():
    e1, e2 = charge_element(2, (1, 0)), charge_element(2, (0, 1))
    assert zhu_star(CFG, e1, e2) == charge_element(2, (1, 1))


def test_unit_acts_trivially():
    v = fock_element(2, [(2, 2)], (1, 0))
    assert zhu_star(CFG, vacuum(2), v) == v
    assert circ_general(CFG, vacuum(2), v, 0).is_zero()


def test_degree_operator_star_expansion():
    # two-term expansion: mode at depth one plus the pairing with the charge
    for cfg in (CFG, CFGK):
        d1 = fock_element(2, [(2, 1)])
        e1 = charge_element(2, (1, 0))
        got = zhu_star(cfg, d1, e1)
        assert got == fock_element(2, [(2, 1)], (1, 0)) + cfg.k * e1


def test_circle_product_of_charges():
    for a, b in itertools.product([(1, 0), (0, 1), (-1, 1), (2, -1)], repeat=2):
        got = circ_general(CFG, charge_element(2, a), charge_element(2, b), 0)
        total = tuple(x + y for x, y in zip(a, b))
        want = VElement(2, {})
        for i, m in enumerate(a):
            if m:
                want = want + m * fock_element(2, [(i, 1)], total)
        assert got == want


def test_reduce_examples():
    assert zhu_reduce(CFG, fock_element(2, [(2, 2)], (1, 0))) == AElement(
        2, {((1, 0), (1, 0)): -1}
    )
    assert zhu_reduce(CFG, fock_element(2, [(0, 1), (2, 1)])).is_zero()
    e1 = charge_element(2, (1, 0))
    assert zhu_reduce(CFG, e1) == AElement(2, {((1, 0), (0, 0)): 1})


def test_products_and_reductions_refuse_another_rank():
    # a product's and a reduction's keys are built by the package, so the
    # rank is checked once up front, for the zero element too
    a2, a3 = AElement.monomial(2, charge=(1, 0)), AElement.monomial(3, dexp=(1, 0, 0))
    for x, y in [(a2, a3), (a3, a2), (AElement(2, {}), AElement(3, {}))]:
        with pytest.raises(ValueError, match="shape mismatch: "):
            x.mul(y, CFG)
    for v in [fock_element(3, [(3, 1)]), VElement(3, {})]:
        with pytest.raises(ValueError, match="rank 3, the lattice 2"):
            zhu_reduce(CFG, v)
    assert a2.mul(a2, CFG) == AElement(2, {((2, 0), (0, 0)): 1})


def test_reduce_depth_sign():
    # a depth-m mode contributes (-1)^(m-1) at depth one
    for m in range(1, 5):
        got = zhu_reduce(CFG, fock_element(2, [(3, m)]))
        assert got == AElement(2, {((0, 0), (0, 1)): (-1) ** (m - 1)})


def test_straightening_relation_in_the_quotient():
    for cfg in (CFG, CFGK):
        d1 = fock_element(2, [(2, 1)])
        e1 = charge_element(2, (1, 0))
        diff = zhu_star(cfg, d1, e1) - zhu_star(cfg, e1, d1)
        assert zhu_reduce(cfg, diff) == AElement(2, {((1, 0), (0, 0)): cfg.k})


def test_ideal_membership():
    rng = random.Random(43)
    for _ in range(50):
        u = rand_velement(rng, CFG, max_weight=3)
        v = rand_velement(rng, CFG, max_weight=3)
        assert zhu_reduce(CFG, circ_general(CFG, u, v, 0)).is_zero()


def test_deep_ideal_membership():
    rng = random.Random(47)
    for _ in range(10):
        u = rand_velement(rng, CFG, max_weight=2)
        v = rand_velement(rng, CFG, max_weight=2)
        for n in range(0, 4):
            assert zhu_reduce(CFG, circ_general(CFG, u, v, n)).is_zero()
    with pytest.raises(ValueError):
        circ_general(CFG, vacuum(2), vacuum(2), -1)


def test_embedding_multiplicativity():
    rng = random.Random(53)
    pairs = [
        (rand_a_element(rng, CFG, d_degree=3, charge_bound=3),
         rand_a_element(rng, CFG, d_degree=3, charge_bound=3))
        for _ in range(30)
    ]
    failures = [(where, res) for where, res in zhu_iso_cases(CFG, pairs) if res]
    assert not failures, failures[:1]


def test_star_associativity_in_the_quotient():
    rng = random.Random(59)
    for _ in range(10):
        u = rand_velement(rng, CFG, n_terms=1, max_weight=2)
        v = rand_velement(rng, CFG, n_terms=1, max_weight=2)
        w = rand_velement(rng, CFG, n_terms=1, max_weight=2)
        lhs = zhu_reduce(CFG, zhu_star(CFG, zhu_star(CFG, u, v), w))
        rhs = zhu_reduce(CFG, zhu_star(CFG, u, zhu_star(CFG, v, w)))
        assert lhs == rhs


def test_bottom_level_action_examples():
    ring = LaurentRing(2, 2)
    p = ring.monomial((3, 1))
    d1 = zhu_embed(AElement.monomial(2, dexp=(1, 0)))
    assert o_action_on_v0(CFG, d1, p) == 3 * p
    e1 = zhu_embed(AElement.monomial(2, charge=(1, 0)))
    assert o_action_on_v0(CFG, e1, p) == ring.variable(1) * p
    one = zhu_embed(AElement.monomial(2))
    assert o_action_on_v0(CFG, one, p) == p


def test_bottom_level_action_scales_with_k():
    # the degree operator's zero mode carries the pairing constant
    ring = LaurentRing(2, 2)
    p = ring.monomial((3, 1))
    d1 = zhu_embed(AElement.monomial(2, dexp=(1, 0)))
    assert o_action_on_v0(CFGK, d1, p) == 6 * p


def test_bottom_level_action_respects_products():
    rng = random.Random(61)
    ring = LaurentRing(2, 2)
    for _ in range(15):
        a = rand_a_element(rng, CFG, d_degree=2, charge_bound=2)
        b = rand_a_element(rng, CFG, d_degree=2, charge_bound=2)
        p = ring.monomial((rng.randint(-2, 2), rng.randint(-2, 2)))
        composed = o_action_on_v0(CFG, zhu_embed(a), o_action_on_v0(CFG, zhu_embed(b), p))
        assert composed == o_action_on_v0(CFG, zhu_embed(a.mul(b, CFG)), p)


def test_bottom_level_injectivity_probe():
    rng = random.Random(67)
    ring = LaurentRing(2, 2)
    grid = [ring.monomial(e) for e in itertools.product(range(4), repeat=2)]
    for _ in range(15):
        a = rand_a_element(rng, CFG, d_degree=3, charge_bound=2)
        if a.is_zero():
            continue
        v = zhu_embed(a)
        assert any(not o_action_on_v0(CFG, v, p).is_zero() for p in grid)


def test_o_action_requires_normal_form():
    ring = LaurentRing(2, 2)
    with pytest.raises(ValueError):
        o_action_on_v0(CFG, fock_element(2, [(0, 1)]), ring.one())  # c-direction factor
    with pytest.raises(ValueError):
        o_action_on_v0(CFG, fock_element(2, [(2, 2)]), ring.one())  # depth two
