import itertools
import random

import pytest

from halflattice.assoc import AElement, BElement, act_on_module
from halflattice.fock import ModuleElement, VElement, charge_element, fock_element, vacuum
from halflattice.lattice import LatticeConfig
from halflattice.probes import rand_a_element, rand_velement
from halflattice.suites import _module_contexts
from halflattice.vertex import adjoint_context
from halflattice.zhu import (
    circ_general,
    zero_mode,
    zhu_embed,
    zhu_iso_cases,
    zhu_reduce,
    zhu_star,
)

CFG = LatticeConfig(nu=2, k=1)
CFGK = LatticeConfig(nu=2, k=2)
ADJ, ADJK = adjoint_context(CFG), adjoint_context(CFGK)


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
    # and a product refuses a lattice of another rank than its factors'
    for x, cfg in [(a2, LatticeConfig(3, 5)), (a2, LatticeConfig(1, 1)),
                   (AElement(2, {}), LatticeConfig(1, 1))]:
        with pytest.raises(ValueError, match=f"rank 2, the lattice {cfg.nu}"):
            x.mul(x, cfg)


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
    p = charge_element(2, (3, 1))
    d1 = zhu_embed(AElement.monomial(2, dexp=(1, 0)))
    assert zero_mode(d1, p, ADJ) == 3 * p
    e1 = zhu_embed(AElement.monomial(2, charge=(1, 0)))
    assert zero_mode(e1, p, ADJ) == charge_element(2, (4, 1))
    one = zhu_embed(AElement.monomial(2))
    assert zero_mode(one, p, ADJ) == p


def test_bottom_level_action_scales_with_k():
    # the degree operator's zero mode carries the pairing constant
    p = charge_element(2, (3, 1))
    d1 = zhu_embed(AElement.monomial(2, dexp=(1, 0)))
    assert zero_mode(d1, p, ADJK) == 6 * p


def test_bottom_level_action_respects_products():
    rng = random.Random(61)
    for _ in range(15):
        a = rand_a_element(rng, CFG, d_degree=2, charge_bound=2)
        b = rand_a_element(rng, CFG, d_degree=2, charge_bound=2)
        p = charge_element(2, (rng.randint(-2, 2), rng.randint(-2, 2)))
        composed = zero_mode(zhu_embed(a), zero_mode(zhu_embed(b), p, ADJ), ADJ)
        assert composed == zero_mode(zhu_embed(a.mul(b, CFG)), p, ADJ)


def test_bottom_level_injectivity_probe():
    rng = random.Random(67)
    grid = [charge_element(2, e) for e in itertools.product(range(4), repeat=2)]
    for _ in range(15):
        a = rand_a_element(rng, CFG, d_degree=3, charge_bound=2)
        if a.is_zero():
            continue
        v = zhu_embed(a)
        assert any(not zero_mode(v, p, ADJ).is_zero() for p in grid)


# -- Zhu's theorem as an oracle: o(v) through the engine on a top level --------


ORACLE_LATTICES = [LatticeConfig(*nk) for nk in [(1, 1), (2, 1), (2, 2), (2, -1), (3, 1)]]


def charge_left(a: AElement) -> BElement:
    """A normal form as a word of the free algebra, its charge left of its
    d's: the d's act first."""
    return BElement({
        (("e", charge),) + tuple(("d", i + 1) for i, e in enumerate(dexp) for _ in range(e)): c
        for (charge, dexp), c in a.terms.items()
    })


def test_zero_modes_act_as_the_straightened_algebra():
    # o(zhu_embed(a)) w = a w on a context's vacuum states, in the adjoint
    # and both module kinds at lam = d_1, d_2; products act as composites
    rng = random.Random(71)
    nonzero = cases = 0
    for cfg in ORACLE_LATTICES:
        contexts = [adjoint_context(cfg)] + [
            ctx for i in range(1, min(cfg.nu, 2) + 1)
            for _, ctx in _module_contexts(cfg, [cfg.d_basis(i)])]
        draws = [rand_a_element(rng, cfg, d_degree=2, charge_bound=2) for _ in range(6)]
        for ctx in contexts:
            for label in ctx.handle.probe_labels()[:3]:
                w = ctx.state_of_label(label)
                module_state = ModuleElement(ctx.handle, {((), label): 1})
                for a, b in zip(draws, draws[1:]):
                    got = zero_mode(zhu_embed(a), w, ctx)
                    assert got.terms == act_on_module(charge_left(a), module_state).terms
                    ob = zero_mode(zhu_embed(b), w, ctx)
                    assert zero_mode(zhu_embed(a), ob, ctx) == zero_mode(
                        zhu_embed(a.mul(b, cfg)), w, ctx)
                    cases += 1
                    nonzero += bool(got)
    assert nonzero > cases // 2, (nonzero, cases)


def test_zero_modes_see_the_reduction_and_kill_the_ideal():
    # on the adjoint's charge states, a top level: o(v) depends only on the
    # class of v, and every residue product circ(u, v, n) acts as zero; not so
    # in a weight context at lam != 0, whose Fock-weight-0 states are no top level
    rng = random.Random(79)
    nonzero = circles = 0
    for cfg in [LatticeConfig(1, 1), LatticeConfig(2, 1), LatticeConfig(2, -1)]:
        ctx = adjoint_context(cfg)
        states = [charge_element(cfg.nu, b) for b in itertools.product(range(-1, 2), repeat=cfg.nu)]
        for _ in range(5):
            u = rand_velement(rng, cfg, max_weight=2)
            v = rand_velement(rng, cfg, max_weight=2)
            reduced = zhu_embed(zhu_reduce(cfg, v))
            ideal = [circ_general(cfg, u, v, n) for n in (0, 1)]
            circles += sum(map(bool, ideal))
            for w in states:
                got = zero_mode(v, w, ctx)
                assert got == zero_mode(reduced, w, ctx)
                nonzero += bool(got)
                for x in ideal:
                    assert zero_mode(x, w, ctx).is_zero()
    assert nonzero and circles
