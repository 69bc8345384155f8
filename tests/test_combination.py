"""Values stay exact: an int where integral, a Fraction only for a proper
denominator, and never a float.

``int / int`` is a float in Python, so every site that divides coefficients
must build ``Fraction(a, b)``.  Each test below feeds integer-valued data
into one such site, where the quotient is a proper fraction, and checks
every value that comes out.
"""

from fractions import Fraction

import pytest

from halflattice.assoc import OmegaSpec, WeightModule, decompose_potential, simplicity_witness
from halflattice.bridge import charge_sector
from halflattice.combination import rational
from halflattice.fock import VElement, charge_element, fock_element, vacuum
from halflattice.lattice import LatticeConfig
from halflattice.laurent import LaurentRing
from halflattice.linalg import nullspace
from halflattice.vertex import module_operator_context
from halflattice.zhu import zhu_star


def exact(values) -> bool:
    return all(type(c) in (int, Fraction) for c in values)


def canonical(values) -> bool:
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in values)


def test_rational_normalizes_and_rejects_floats():
    assert type(rational(Fraction(6, 3))) is int and rational(Fraction(6, 3)) == 2
    assert rational(Fraction(1, 2)) == Fraction(1, 2) and type(rational(True)) is int
    for bad in (0.5, 0.0, 2.0, "1/2", None):
        with pytest.raises(TypeError):
            rational(bad)
    with pytest.raises(TypeError):
        VElement(2, {((), (0, 0)): 0.5})
    with pytest.raises(TypeError):
        VElement(2, {((), (0, 0)): 0.0})
    with pytest.raises(TypeError):
        vacuum(2) * 0.5
    with pytest.raises(TypeError):
        vacuum(2)._make({((), (0, 0)): 2.0})


def test_charge_sector_with_a_proper_fraction_ratio():
    # d_1 has eigenvalue 1/2 on the point (1/2, 0); the state's coefficient 2
    # makes the image coefficient the integer 1, so the ratio is 1 / 2
    cfg = LatticeConfig(nu=2, k=1)
    handle = WeightModule(cfg, [Fraction(1, 2), 0])
    ctx = module_operator_context(cfg, cfg.zero(), handle)
    w = 2 * ctx.state_of_label(handle.base_label())
    assert exact(w.terms.values()) and type(next(iter(w.terms.values()))) is int
    ratio = charge_sector(cfg.d_basis(1), w, ctx)
    assert ratio == Fraction(1, 2) and type(ratio) is Fraction
    sector = charge_sector(cfg.d_basis(2), w, ctx)
    assert sector == 0 and type(sector) is int


def test_potential_decomposition_divides_exactly():
    # P = t1^2 t2^2 / 2 has integer derivatives t1^2 t2^2, so each candidate
    # coefficient is 1 / 2
    ring = LaurentRing(2, 2)
    f = ring.monomial([2, 2])
    assert exact(f.terms.values())
    P, parts = decompose_potential(OmegaSpec(2, 3, (f, f), ()))
    assert P == ring.monomial([2, 2], Fraction(1, 2)) and all(p.is_zero() for p in parts)
    assert canonical(P.terms.values()) and exact(P.terms.values())


def test_nullspace_divides_exactly():
    vecs = nullspace([{0: 2, 1: 3}], 2)
    assert vecs == [(Fraction(-3, 2), 1)]
    assert exact(x for vec in vecs for x in vec)


def test_witness_difference_step_divides_exactly():
    # 1 / a_1 with a_1 = 3 scales the translation of the difference operator
    spec = OmegaSpec(1, 1, (), (3,))
    witness = simplicity_witness(spec, spec.ring.variable(1))
    for step in witness.steps:
        assert canonical(step.element.terms.values())
    assert witness.replay(spec.ring.variable(1)) == spec.ring.constant(witness.result)
    assert exact([witness.result])


def test_zhu_star_on_integer_states():
    # the creation dressing divides by its level (Newton's identity), so
    # integer-valued states give proper fractions here
    cfg = LatticeConfig(nu=2, k=1)
    u = charge_element(2, (2, 0)) + fock_element(2, [(3, 1)], (1, 1), 3)
    v = fock_element(2, [(2, 3)], (0, 1))
    got = zhu_star(cfg, u, v)
    assert canonical(got.terms.values())
    assert got.terms[(((0, 3),), (2, 1))] == Fraction(-4, 3)
    assert got.terms[(((2, 3),), (2, 1))] == 1
