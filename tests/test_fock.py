from fractions import Fraction

import pytest

from halflattice.assoc import WeightModule
from halflattice.fock import (
    ModuleElement,
    VElement,
    charge_element,
    fock_element,
    fock_weight,
    fock_word,
    homogeneous_components,
    vacuum,
)
from halflattice.lattice import LatticeConfig
from halflattice.vertex import (
    adjoint_context,
    apply_heisenberg_mode,
    module_operator_context,
    y_coefficient,
)


def test_fock_word_canonical_order():
    # sorted by descending mode, then direction index
    word = fock_word([(3, 1), (0, 2), (1, 2)])
    assert word == ((0, 2), (1, 2), (3, 1))
    assert fock_word([(0, 1), (0, 1)]) == ((0, 1), (0, 1))


def test_fock_word_validation():
    with pytest.raises(ValueError):
        fock_word([(0, 0)])
    with pytest.raises(ValueError):
        fock_word([(-1, 2)])


def test_fock_weight():
    assert fock_weight(()) == 0
    assert fock_weight(fock_word([(0, 2), (3, 1)])) == 3


def test_weight_examples():
    assert list(homogeneous_components(vacuum(2))) == [0]
    assert list(homogeneous_components(charge_element(2, (1, 0)))) == [0]
    assert list(homogeneous_components(fock_element(2, [(0, 2), (2, 1)], (0, 1)))) == [3]


def test_weight_inhomogeneous_marker():
    v = vacuum(2) + fock_element(2, [(0, 1)])
    assert list(homogeneous_components(v)) == [0, 1]
    assert homogeneous_components(VElement(2, {})) == {}


def test_homogeneous_components():
    v = vacuum(2) + 2 * fock_element(2, [(0, 1)]) + fock_element(2, [(1, 1)])
    parts = homogeneous_components(v)
    assert sorted(parts) == [0, 1]
    assert parts[0] == vacuum(2)
    assert sum(parts.values(), VElement(2, {})) == v


def test_velement_invariants():
    with pytest.raises(ValueError):
        VElement(2, {((), (1,)): Fraction(1)})  # short charge
    with pytest.raises(ValueError):
        VElement(2, {(((4, 1),), (0, 0)): Fraction(1)})  # direction out of range


def test_constructors_canonicalize_words():
    # a word in any factor order is the same key as its canonical form
    assert VElement(1, {(((0, 1), (1, 2)), (0,)): 1}) == fock_element(1, [(0, 1), (1, 2)])
    assert list(VElement(1, {(((0, 1), (1, 2)), (0,)): 1}).terms) == [(((1, 2), (0, 1)), (0,))]
    lab = (0,)
    assert ModuleElement({(((0, 1), (1, 2)), lab): 1}) == ModuleElement({(((1, 2), (0, 1)), lab): 1})
    # keys that coincide once canonical are merged, and cancel to zero
    x = VElement(2, {(((0, 1), (2, 1)), (0, 0)): 1, (((2, 1), (0, 1)), (0, 0)): Fraction(-2, 2)})
    assert x.is_zero()
    m = ModuleElement({(((0, 1), (1, 2)), lab): Fraction(1, 2), (((1, 2), (0, 1)), lab): 3})
    assert m.terms == {(((1, 2), (0, 1)), lab): Fraction(7, 2)}


@pytest.mark.parametrize("word", [((-1, 1),), ((0, 0),), ((0, 1), (1, -2))],
                         ids=["negative-direction", "zero-mode", "negative-mode"])
def test_constructors_reject_invalid_factors(word):
    with pytest.raises(ValueError):
        VElement(1, {(word, (0,)): 1})
    with pytest.raises(ValueError):
        ModuleElement({(word, (0,)): 1})


def test_linear_combination_arithmetic():
    a = charge_element(2, (1, 0))
    b = charge_element(2, (0, 1))
    assert (a + b) - a == b
    assert (2 * a) * Fraction(1, 2) == a
    assert (a - a).is_zero()
    assert a != b
    assert hash(a) == hash(charge_element(2, (1, 0)))


def canonical(values) -> bool:
    """Every value is an int exactly when it is integral, else a proper Fraction."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in values)


def test_trusted_results_drop_zeros_and_hold_canonical_values():
    # every way of building a combination keeps the Combination invariants:
    # no zeros, an int for each integral value and a Fraction only for a
    # proper denominator
    x = VElement(2, {(((0, 1),), (1, 0)): Fraction(3, 2), ((), (0, 1)): Fraction(4, 2),
                     ((), (1, 1)): 0, ((), (2, 0)): Fraction(0)})
    assert x.terms == {(((0, 1),), (1, 0)): Fraction(3, 2), ((), (0, 1)): 2}
    assert type(x.terms[((), (0, 1))]) is int and canonical(x.terms.values())
    y = fock_element(2, [(0, 1)], (1, 0), Fraction(1, 2)) + charge_element(2, (0, 1), 3)
    total, diff, neg = x + y, x - y, -x
    assert total.terms == {(((0, 1),), (1, 0)): 2, ((), (0, 1)): 5}
    assert diff.terms == {(((0, 1),), (1, 0)): 1, ((), (0, 1)): -1}
    assert neg.nu == 2 and neg + x == VElement(2, {})
    for scalar in (2, Fraction(2, 3), Fraction(6, 3), True):
        assert canonical((x * scalar).terms.values()) and canonical((scalar * x).terms.values())
    assert (x * Fraction(2, 3)).terms == {(((0, 1),), (1, 0)): 1, ((), (0, 1)): Fraction(4, 3)}
    zero = x * 0
    assert zero.is_zero() and zero.nu == 2 and zero == VElement(2, {})
    for c in (total, diff, neg, zero):
        assert canonical(c.terms.values())
    made = x._make({((), (0, 0)): Fraction(4, 2), (((0, 1),), (1, 0)): 0,
                    (((2, 1),), (0, 0)): Fraction(0), ((), (1, 0)): Fraction(-1, 3)})
    assert made.terms == {((), (0, 0)): 2, ((), (1, 0)): Fraction(-1, 3)}
    assert canonical(made.terms.values()) and made.nu == 2
    assert made == VElement(2, {((), (0, 0)): 2, ((), (1, 0)): Fraction(-1, 3)})
    assert hash(x._make({((), (0, 0)): Fraction(2)})) == hash(2 * vacuum(2))
    # the engine's results: the field of x on a target, and a Heisenberg mode
    cfg = LatticeConfig(nu=2, k=2)
    ctx = adjoint_context(cfg)
    w = fock_element(2, [(2, 1), (3, 2)], (0, 1), Fraction(1, 3)) + charge_element(2, (1, 0), 2)
    for n in range(-4, 3):
        got = y_coefficient(x, n, w, ctx)
        assert canonical(got.terms.values()), n
    for dir_ in range(cfg.ndirs):
        for n in range(-2, 3):
            h = Fraction(1, 2) * cfg.dir_vector(dir_)
            got = apply_heisenberg_mode(h, n, w, ctx)
            assert canonical(got.terms.values()), (dir_, n)
    assert any(type(c) is int for c in y_coefficient(x, -2, w, ctx).terms.values())


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        vacuum(2) + vacuum(3)


def test_charges_print_unit_entries_as_signs():
    assert str(charge_element(2, (1, -1))) == "e^{c1-c2}"
    assert str(charge_element(2, (-1, 0))) == "e^{-c1}"
    assert str(charge_element(2, (-2, 3))) == "e^{-2c1+3c2}"


def test_module_state():
    # a creation mode on the unit state of an opaque label
    cfg = LatticeConfig(nu=1, k=1)
    ctx = module_operator_context(cfg, cfg.zero(), WeightModule(cfg))
    w = ctx.state_of_label(("x",))
    s = Fraction(1, 3) * apply_heisenberg_mode(cfg.dir_vector(0), -2, w, ctx)
    ((word, label),) = s.terms
    assert word == ((0, 2),) and label == ("x",)
    assert s.terms[(word, label)] == Fraction(1, 3)


def test_module_state_labels_print_as_rationals():
    # each label coordinate prints with str, as the weight-module errors do
    cfg = LatticeConfig(nu=2, k=1)
    handle = WeightModule(cfg, [Fraction(1, 2), 0])
    ctx = module_operator_context(cfg, cfg.zero(), handle)
    w = ctx.state_of_label(handle.base_label())
    assert str(w) == "w[(1/2, 0)]"
    s = apply_heisenberg_mode(cfg.dir_vector(2), -1, w, ctx)
    assert str(s) == "h2(-1)w[(1/2, 0)]"
    assert "Fraction" not in str(2 * w + s)
