"""Values stay exact: an int where integral, a Fraction only for a proper
denominator, and never a float.

``int / int`` is a float in Python, so every site that divides coefficients
must build ``Fraction(a, b)``.  Each test below feeds integer-valued data
into one such site, where the quotient is a proper fraction, and checks
every value that comes out.
"""

from fractions import Fraction

import pytest

from halflattice.assoc import (
    AElement,
    OmegaSpec,
    WeightModule,
    decompose_potential,
    gen_d,
    gen_e,
    omega_e_act,
    simplicity_witness,
)
from halflattice.bridge import charge_sector, z_operator
from halflattice.combination import integer, rational
from halflattice.fock import VElement, charge_element, fock_element, fock_word, vacuum
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
    # the sparse rows of nullspace and the shift constants of a function
    # module take the same values: a float is not read as its binary expansion
    with pytest.raises(TypeError):
        nullspace([{0: 0.1, 1: 1}], 2)
    with pytest.raises(TypeError):
        nullspace([{0: 1, 1: 0.0}], 2)
    with pytest.raises(TypeError):
        OmegaSpec(1, 1, (), (0.1,))


def test_integer_passes_ints_and_whole_fractions():
    assert integer(3) == 3 and type(integer(Fraction(6, 3))) is int and integer(Fraction(6, 3)) == 2
    assert type(integer(True)) is int
    for bad in (1.0, 1.9, Fraction(1, 2), "1", None):
        with pytest.raises(TypeError):
            integer(bad)
    # a whole Fraction in a key is the same key as its int
    assert charge_element(2, (Fraction(2), 0)) == charge_element(2, (2, 0))
    assert list(charge_element(2, (Fraction(2), 0)).terms) == [((), (2, 0))]
    assert type(next(iter(charge_element(2, (Fraction(2), 0)).terms))[1][0]) is int


def _weight_state():
    cfg = LatticeConfig(nu=2, k=1)
    ctx = module_operator_context(cfg, cfg.zero(), WeightModule(cfg))
    return ctx.state_of_label((0, 0)), ctx


# one site family each: a float or a proper fraction in a key used to be
# truncated by int(), so e^{1.9 c1 - 0.5 c2} printed as e^{c1}
@pytest.mark.parametrize("build", [
    pytest.param(lambda: fock_word([(0, 1.7)]), id="fock-word"),
    pytest.param(lambda: charge_element(2, [1.9, -0.5]), id="fock-charge"),
    pytest.param(lambda: fock_element(1, [(0, 1)], [Fraction(1, 2)]), id="fock-element"),
    pytest.param(lambda: VElement(Fraction(3, 2), {}), id="fock-rank"),
    pytest.param(lambda: gen_e([1.5, 0]), id="assoc-translation"),
    pytest.param(lambda: gen_d(1.0), id="assoc-degree-index"),
    pytest.param(lambda: AElement(1, {((1,), (0.5,)): 1}), id="assoc-normal-form"),
    pytest.param(lambda: z_operator((0.5, 0), 0, *_weight_state()), id="bridge-charge"),
    pytest.param(lambda: LatticeConfig(2, 1).from_charge([0.5, 0]), id="lattice-charge"),
    pytest.param(lambda: LaurentRing(2, 1).monomial([1.2, 0]), id="laurent-exponents"),
])
def test_integer_keys_reject_floats_and_proper_fractions(build):
    with pytest.raises(TypeError):
        build()


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


def test_translation_by_a_negative_charge_divides_exactly():
    # e_{-c_1} on an integer-valued spec (a_1 = 2) scales by a_1^(-1) = 1/2
    spec = OmegaSpec(1, 1, (), (Fraction(2),))
    assert spec.a == (2,) and type(spec.a[0]) is int
    got = omega_e_act(spec, (-1,), spec.ring.one())
    assert got == spec.ring.constant(Fraction(1, 2))
    assert canonical(got.terms.values())
    got = omega_e_act(spec, (-2,), spec.ring.variable(1))
    assert canonical(got.terms.values()) and Fraction(1, 4) in got.terms.values()


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
