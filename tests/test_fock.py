from fractions import Fraction

import pytest

from halflattice.assoc import AElement
from halflattice.fock import (
    DIRECTION_LIMIT,
    ModuleElement,
    VElement,
    charge_element,
    decode,
    encode,
    fock_element,
    fock_weight,
    fock_word,
    homogeneous_components,
    vacuum,
)
from halflattice.lattice import LatticeConfig, WeightModule
from halflattice.zhu import zhu_embed
from halflattice.vertex import (
    adjoint_context,
    apply_heisenberg_mode,
    module_operator_context,
    y_coefficient,
)


def test_fock_word_canonical_order():
    # sorted by descending mode, then direction index
    word = fock_word([(3, 1), (0, 2), (1, 2)], 2)
    assert word == (encode(0, 2), encode(1, 2), encode(3, 1))
    assert fock_word([(0, 1), (0, 1)], 1) == (encode(0, 1), encode(0, 1))


def test_fock_word_validation():
    with pytest.raises(ValueError):
        fock_word([(0, 0)], 1)
    with pytest.raises(ValueError):
        fock_word([(-1, 2)], 1)
    # a direction past the rank, and one past the code limit at a rank that
    # reaches it
    with pytest.raises(ValueError, match="direction index 4 out of range for nu=2"):
        fock_word([(0, 1), (4, 1)], 2)
    with pytest.raises(ValueError, match=f"direction index {DIRECTION_LIMIT} must lie in"):
        fock_word([(DIRECTION_LIMIT, 1)], DIRECTION_LIMIT)


# -- the factor code -----------------------------------------------------------------

TOP = DIRECTION_LIMIT - 1  # the largest direction a code holds
W1 = WeightModule(LatticeConfig(nu=1, k=1))  # the module of the rank-1 module states
BOX = [(dir_, mode) for dir_ in (0, 1, 2, 3, TOP - 1, TOP) for mode in (1, 2, 3, 5, 1000)]


def test_factor_codes_round_trip_and_sort_canonically():
    codes = [encode(dir_, mode) for dir_, mode in BOX]
    assert [decode(code) for code in codes] == BOX
    assert len(set(codes)) == len(BOX)
    # the codes' natural order is the canonical order: descending mode, then
    # ascending direction
    canonical = sorted(BOX, key=lambda pair: (-pair[1], pair[0]))
    assert [decode(code) for code in sorted(codes)] == canonical
    word = fock_word(BOX, DIRECTION_LIMIT // 2)
    assert word == tuple(sorted(codes)) == tuple(encode(*pair) for pair in canonical)
    assert fock_weight(word) == sum(mode for _, mode in BOX)


def test_constructors_take_pairs_up_to_the_code_limit():
    # the largest direction is accepted and kept; the next one is rejected
    # with an error that names it, for both element types
    nu = DIRECTION_LIMIT // 2
    zero = (0,) * nu
    v = VElement(nu, {(((TOP, 2), (0, 1)), zero): 1})
    assert list(v.terms) == [((encode(TOP, 2), encode(0, 1)), zero)]
    m = ModuleElement(WeightModule(LatticeConfig(nu, 1)), {(((TOP, 1), (0, 1)), zero): 1})
    assert [tuple(map(decode, word)) for word, _ in m.terms] == [((0, 1), (TOP, 1))]
    wide = (0,) * (nu + 1)  # a rank whose directions run past the code limit
    with pytest.raises(ValueError, match=f"direction index {DIRECTION_LIMIT} must lie in"):
        VElement(nu + 1, {(((DIRECTION_LIMIT, 1),), wide): 1})
    with pytest.raises(ValueError, match=f"direction index {DIRECTION_LIMIT} must lie in"):
        ModuleElement(WeightModule(LatticeConfig(nu + 1, 1)), {(((DIRECTION_LIMIT, 1),), wide): 1})
    # a word the package builds past the constructors meets the same check
    wide_d = AElement.monomial(nu + 1, dexp=(0,) * nu + (1,))
    with pytest.raises(ValueError, match=f"direction index {DIRECTION_LIMIT} "):
        zhu_embed(wide_d)


def test_public_constructors_reject_coded_factors():
    # a word of codes is the package's own; the public constructors take
    # (direction, mode) pairs only
    word = fock_word([(0, 1)], 1)
    with pytest.raises(TypeError):
        fock_word(word, 1)
    with pytest.raises(TypeError):
        VElement(1, {(word, (0,)): 1})
    with pytest.raises(TypeError):
        ModuleElement(W1, {(word, (0,)): 1})
    with pytest.raises(TypeError):
        fock_element(1, word)


def test_printing_follows_the_decoded_pairs():
    # The terms print in the natural order of their pair keys, the empty
    # word first, which orders them differently from their codes.
    v = (fock_element(2, [(0, 1)], (1, 0)) + 2 * fock_element(2, [(3, 2)])
         + Fraction(1, 2) * fock_element(2, [(1, 1), (2, 3)], (0, -1))
         + charge_element(2, (1, 1), -1))
    assert str(v) == "-e^{c1+c2} + c1(-1)e^{c1} + 1/2*d1(-3)c2(-1)e^{-c2} + 2*d2(-2)"
    assert sorted(v.terms) != [key for key, _ in v.sorted_terms()]
    assert sorted(v.terms, key=repr) != [key for key, _ in v.sorted_terms()]
    m = ModuleElement(W1, {(((0, 1),), (0,)): 1, (((1, 2),), (1,)): -3,
                           (((1, 1), (0, 1)), (0,)): Fraction(2, 3)})
    assert str(m) == "c1(-1)w[(0)] + 2/3*c1(-1)d1(-1)w[(0)] - 3*d1(-2)w[(1)]"
    assert sorted(m.terms) != [key for key, _ in m.sorted_terms()]
    assert sorted(m.terms, key=repr) != [key for key, _ in m.sorted_terms()]


def test_module_states_print_their_labels_in_numeric_order():
    # -3/2 before -1/2, and -2 before -1 in the second coordinate, though
    # their texts sort the other way
    handle = WeightModule(LatticeConfig(nu=2, k=1), [Fraction(1, 2), 0])
    m = ModuleElement(handle, {((), (Fraction(3, 2), -1)): 1, ((), (Fraction(-1, 2), 1)): 1,
                               ((), (Fraction(3, 2), -2)): Fraction(5, 2),
                               ((), (Fraction(-3, 2), 2)): -9})
    assert str(m) == "-9*w[(-3/2, 2)] + w[(-1/2, 1)] + 5/2*w[(3/2, -2)] + w[(3/2, -1)]"


def test_fock_weight():
    assert fock_weight(()) == 0
    assert fock_weight(fock_word([(0, 2), (3, 1)], 2)) == 3


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
    assert list(VElement(1, {(((0, 1), (1, 2)), (0,)): 1}).terms) == [((encode(1, 2), encode(0, 1)), (0,))]
    lab = (0,)
    assert (ModuleElement(W1, {(((0, 1), (1, 2)), lab): 1})
            == ModuleElement(W1, {(((1, 2), (0, 1)), lab): 1}))
    # keys that coincide once canonical are merged, and cancel to zero
    x = VElement(2, {(((0, 1), (2, 1)), (0, 0)): 1, (((2, 1), (0, 1)), (0, 0)): Fraction(-2, 2)})
    assert x.is_zero()
    m = ModuleElement(W1, {(((0, 1), (1, 2)), lab): Fraction(1, 2), (((1, 2), (0, 1)), lab): 3})
    assert m.terms == {((encode(1, 2), encode(0, 1)), lab): Fraction(7, 2)}


@pytest.mark.parametrize("word", [((-1, 1),), ((0, 0),), ((0, 1), (1, -2))],
                         ids=["negative-direction", "zero-mode", "negative-mode"])
def test_constructors_reject_invalid_factors(word):
    with pytest.raises(ValueError):
        VElement(1, {(word, (0,)): 1})
    with pytest.raises(ValueError):
        ModuleElement(W1, {(word, (0,)): 1})


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
    c1 = (encode(0, 1),)  # the coded word c1(-1)
    assert x.terms == {(c1, (1, 0)): Fraction(3, 2), ((), (0, 1)): 2}
    assert type(x.terms[((), (0, 1))]) is int and canonical(x.terms.values())
    y = fock_element(2, [(0, 1)], (1, 0), Fraction(1, 2)) + charge_element(2, (0, 1), 3)
    total, diff, neg = x + y, x - y, -x
    assert total.terms == {(c1, (1, 0)): 2, ((), (0, 1)): 5}
    assert diff.terms == {(c1, (1, 0)): 1, ((), (0, 1)): -1}
    assert neg.nu == 2 and neg + x == VElement(2, {})
    for scalar in (2, Fraction(2, 3), Fraction(6, 3), True):
        assert canonical((x * scalar).terms.values()) and canonical((scalar * x).terms.values())
    assert (x * Fraction(2, 3)).terms == {(c1, (1, 0)): 1, ((), (0, 1)): Fraction(4, 3)}
    zero = x * 0
    assert zero.is_zero() and zero.nu == 2 and zero == VElement(2, {})
    for c in (total, diff, neg, zero):
        assert canonical(c.terms.values())
    made = x._make({((), (0, 0)): Fraction(4, 2), (c1, (1, 0)): 0,
                    ((encode(2, 1),), (0, 0)): Fraction(0), ((), (1, 0)): Fraction(-1, 3)})
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
    # a creation mode on the unit state of a label, which the module checks:
    # a label that is no point of the module is refused
    cfg = LatticeConfig(nu=1, k=1)
    ctx = module_operator_context(cfg.zero(), WeightModule(cfg))
    w = ctx.state_of_label((Fraction(2, 2),))
    s = Fraction(1, 3) * apply_heisenberg_mode(cfg.dir_vector(0), -2, w, ctx)
    ((word, label),) = s.terms
    assert word == (encode(0, 2),) and label == (1,) and type(label[0]) is int
    assert s.terms[(word, label)] == Fraction(1, 3) and s.shape is ctx.handle
    for bad, error in [(("x",), TypeError), ((0, 0), ValueError), ((Fraction(1, 2),), ValueError)]:
        with pytest.raises(error):
            ctx.state_of_label(bad)


def test_module_state_labels_print_as_rationals():
    # each label coordinate prints with str, as the weight-module errors do,
    # and a factor by its name at the module's rank: direction 2 is d1
    cfg = LatticeConfig(nu=2, k=1)
    handle = WeightModule(cfg, [Fraction(1, 2), 0])
    ctx = module_operator_context(cfg.zero(), handle)
    w = ctx.state_of_label(handle.base_label())
    assert str(w) == "w[(1/2, 0)]"
    s = apply_heisenberg_mode(cfg.dir_vector(2), -1, w, ctx)
    assert str(s) == "d1(-1)w[(1/2, 0)]"
    assert "Fraction" not in str(2 * w + s)
