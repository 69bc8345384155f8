"""Values stay exact: an int where integral, a Fraction only for a proper
denominator, and never a float.

``int / int`` is a float in Python, so every site that divides coefficients
must build ``Fraction(a, b)``.  Each test below feeds integer-valued data
into one such site, where the quotient is a proper fraction, and checks
every value that comes out.  The integer form's functions are checked
against plain ``Fraction`` arithmetic on drawn data.  The combination core
is checked once for each of its six subclasses, and module states once for
each kind of module: the public constructor refuses a bad key whatever its
coefficient and adds up keys that coincide once checked, and the trusted
builder keeps the class and the shape.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, strategies as st

from halflattice.assoc import (
    AElement,
    BElement,
    OmegaSpec,
    act_on_omega_module,
    decompose_potential,
    gen_d,
    gen_e,
    simplicity_witness,
)
from halflattice.bridge import charge_sector, z_operator
from halflattice.combination import (
    accumulate,
    add_scaled,
    divided,
    integer,
    numerators,
    rational,
    reduce,
)
from halflattice.fock import (
    ModuleElement,
    VElement,
    charge_element,
    encode,
    fock_element,
    fock_word,
    vacuum,
)
from halflattice.lattice import LatticeConfig, LatticeVector, WeightModule
from halflattice.laurent import CutoffError, LaurentPoly, LaurentRing
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


@pytest.mark.parametrize("build", [
    pytest.param(lambda: LaurentRing(2, 1.5), id="ring-count"),
    pytest.param(lambda: LatticeConfig(1.0, 1), id="lattice-rank"),
    pytest.param(lambda: LaurentRing(2, 1).monomial([1.0, 0]), id="laurent-exponent"),
    pytest.param(lambda: integer("2"), id="string"),
])
def test_non_integer_key_entries_say_an_integer_was_expected(build):
    # a float or a string is not a rational either, but the entry asks for
    # an integer, so the message must not speak of coefficients
    with pytest.raises(TypeError, match="expected an integer"):
        build()


# -- the combination core: one constructor, one shape -----------------------------

# For each subclass: its public constructor at one shape, two raw keys that
# coincide once checked (Fock words in two factor orders, whole Fractions)
# and their checked form, the bad keys with the error each raises, and the
# constructor at another shape (None when the class has only the shape None).
# A module state's shape is its module, which checks its labels and gives the
# rank of its words: a point outside the weight module's coset, a label of the
# wrong length, a negative exponent of a polynomial-only variable, and a
# direction past 2 nu are refused.  A lattice vector's keys are its directions
# 0..2nu-1, so 2nu and -1 are out of range and a float or a string is no
# direction; its shape is the rank, and adding across ranks reads
# "shape mismatch: 2 vs 3".
HALF = (Fraction(1, 2), 0)
WEIGHT = WeightModule(LatticeConfig(2, 1), HALF)
OMEGA = OmegaSpec(2, 2, (LaurentRing(2, 1).variable(1),), (2,))
CORE_CASES = [
    pytest.param(
        lambda terms: VElement(2, terms),
        (((2, 1), (0, 2)), (1, 0)), (((0, 2), (2, 1)), (Fraction(1), 0)),
        ((encode(0, 2), encode(2, 1)), (1, 0)),
        [((((0, 1),), (1,)), ValueError), ((((4, 1),), (0, 0)), ValueError),
         ((((0, 1.0),), (0, 0)), TypeError), ((((0, 0),), (0, 0)), ValueError)],
        lambda terms: VElement(3, terms), id="VElement"),
    pytest.param(
        lambda terms: ModuleElement(WEIGHT, terms),
        (((1, 1), (0, 2)), (Fraction(3, 2), 0)),
        (((0, 2), (Fraction(1), 1)), (Fraction(3, 2), Fraction(0))),
        ((encode(0, 2), encode(1, 1)), (Fraction(3, 2), 0)),
        [((((0, 0),), HALF), ValueError), (((0,), HALF), TypeError),
         ((((0, Fraction(1, 2)),), HALF), TypeError), (((), (1, 0)), ValueError),
         (((), (Fraction(1, 2),)), ValueError), (((), (0.5, 0)), TypeError),
         ((((5, 1),), HALF), ValueError)],
        lambda terms: ModuleElement(OMEGA, terms), id="ModuleElement"),
    pytest.param(
        lambda terms: ModuleElement(OMEGA, terms),
        (((1, 1),), (-1, 2)), (((Fraction(1), 1),), (Fraction(-1), Fraction(4, 2))),
        ((encode(1, 1),), (-1, 2)),
        [(((), (0, -1)), CutoffError), (((), (0,)), ValueError), (((), (0, 1.0)), TypeError),
         ((((4, 1),), (0, 0)), ValueError)],
        lambda terms: ModuleElement(WEIGHT, terms), id="ModuleElement-omega"),
    pytest.param(
        BElement,
        (("d", Fraction(2)), ("e", (1, 0))), (("d", 2), ("e", (Fraction(1), 0))),
        (("d", 2), ("e", (1, 0))),
        [((("x", 1),), ValueError), ((("d", 1.0),), TypeError),
         ((("e", (0.5, 0)),), TypeError)],
        None, id="BElement"),
    pytest.param(
        lambda terms: AElement(2, terms),
        ((1, 0), (2, 0)), ((Fraction(1), 0), (Fraction(4, 2), 0)), ((1, 0), (2, 0)),
        [(((1, 0), (-1, 0)), ValueError), (((1,), (0, 0)), ValueError),
         (((0.5, 0), (0, 0)), TypeError)],
        lambda terms: AElement(3, terms), id="AElement"),
    pytest.param(
        lambda terms: LaurentPoly(LaurentRing(2, 1), terms),
        (Fraction(-2), 1), (-2, Fraction(3, 3)), (-2, 1),
        [((1, -1), ValueError), ((1.0, 0), TypeError), ((1,), ValueError)],
        lambda terms: LaurentPoly(LaurentRing(2, 2), terms), id="LaurentPoly"),
    pytest.param(
        lambda terms: LatticeVector(2, terms),
        Fraction(1), 1, 1,
        [(4, ValueError), (-1, ValueError), (1.0, TypeError), ("x", TypeError)],
        lambda terms: LatticeVector(3, terms), id="LatticeVector"),
]


@pytest.mark.parametrize("build, raw, twin, key, bad_keys, build_other", CORE_CASES)
def test_the_core_checks_adds_and_keeps_the_shape(build, raw, twin, key, bad_keys, build_other):
    # a bad key is refused whatever its coefficient, zero included
    for bad, error in bad_keys:
        for coeff in (0, 1):
            with pytest.raises(error):
                build({bad: coeff})
    # keys that coincide once checked are one term in checked form, their
    # coefficients added (a whole Fraction is already the same dict key)
    given = {raw: 2, twin: Fraction(1, 2)}
    x = build(given)
    assert x.terms == {key: sum(given.values())} and repr(list(x.terms)) == repr([key])
    assert build({raw: 3}) == build({twin: 3}) == 3 * x._make({key: 1})
    # the trusted builder keeps the class and the shape
    made = x._make({key: 3})
    assert type(made) is type(x) and made.shape == x.shape and made == build({raw: 3})
    assert repr(x) == str(x) and repr(made) == str(made)
    if build_other is None:
        assert x.shape is None
        return
    # adding across shapes is refused with the text the shapes print
    other = build_other({})
    with pytest.raises(ValueError) as err:
        x + other
    assert str(err.value) == f"shape mismatch: {x.shape} vs {other.shape}"
    assert x != other and x._make(x.terms) == x


def test_states_of_equal_weight_modules_add():
    # two contexts built from equal modules share one shape; another base
    # point is another shape
    cfg = LatticeConfig(2, 1)
    first, second = (module_operator_context(cfg.zero(), WeightModule(cfg, HALF))
                     for _ in range(2))
    assert first.handle is not second.handle and first.handle == second.handle
    assert hash(first.handle) == hash(second.handle)
    total = first.state_of_label(HALF) + second.state_of_label(HALF)
    assert total == 2 * first.state_of_label(HALF) and total.shape == second.handle
    other = module_operator_context(cfg.zero(), WeightModule(cfg, (Fraction(3, 2), 0)))
    assert other.handle != first.handle
    with pytest.raises(ValueError) as err:
        first.state_of_label(HALF) + other.state_of_label(HALF)
    assert str(err.value) == f"shape mismatch: {first.handle} vs {other.handle}"


def _weight_state():
    cfg = LatticeConfig(nu=2, k=1)
    ctx = module_operator_context(cfg.zero(), WeightModule(cfg))
    return ctx.state_of_label((0, 0)), ctx


# one site family each: a float or a proper fraction in a key used to be
# truncated by int(), so e^{1.9 c1 - 0.5 c2} printed as e^{c1}
@pytest.mark.parametrize("build", [
    pytest.param(lambda: fock_word([(0, 1.7)], 1), id="fock-word"),
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
    ctx = module_operator_context(cfg.zero(), handle)
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
    got = act_on_omega_module(BElement.e((-1,)), spec.ring.one(), spec)
    assert got == spec.ring.constant(Fraction(1, 2))
    assert canonical(got.terms.values())
    got = act_on_omega_module(BElement.e((-2,)), spec.ring.variable(1), spec)
    assert canonical(got.terms.values()) and Fraction(1, 4) in got.terms.values()


def test_zhu_star_on_integer_states():
    # the creation dressing divides by its level (Newton's identity), so
    # integer-valued states give proper fractions here
    cfg = LatticeConfig(nu=2, k=1)
    u = charge_element(2, (2, 0)) + fock_element(2, [(3, 1)], (1, 1), 3)
    v = fock_element(2, [(2, 3)], (0, 1))
    got = zhu_star(cfg, u, v)
    assert canonical(got.terms.values())
    assert got.terms[((encode(0, 3),), (2, 1))] == Fraction(-4, 3)
    assert got.terms[((encode(2, 3),), (2, 1))] == 1


# -- the integer form against Fraction arithmetic ------------------------------------

KEYS = st.integers(0, 6)
INT_VALUES = st.dictionaries(KEYS, st.integers(-9, 9).filter(bool), max_size=5)
# st.fractions draws whole Fractions too, which a label action can return
MIXED_VALUES = st.dictionaries(
    KEYS, st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6)).filter(bool),
    max_size=5)
SCALARS = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=4),
                    st.just(Fraction(1, 1)))
NUMERATORS = st.dictionaries(KEYS, st.integers(-30, 30), max_size=5)


@example({})
@given(st.one_of(INT_VALUES, MIXED_VALUES))
def test_numerators_are_the_values_times_their_lcm(values):
    nums, d = numerators(values)
    assert d == lcm(*(Fraction(c).denominator for c in values.values()))
    assert all(type(x) is int for x in nums.values())
    assert [(t, Fraction(x, d)) for t, x in nums.items()] == list(values.items())
    if all(type(c) is int for c in values.values()):
        assert nums is values and d == 1


@example([(3, {0: Fraction(1, 2), 1: 2}), (-2, {1: 3})])
@example([(Fraction(2, 3), {0: 1}), (Fraction(-1, 6), {0: Fraction(1, 4), 2: 5})])
@example([(Fraction(1, 1), {0: Fraction(1, 2)}), (Fraction(1, 1), {0: Fraction(-1, 2)})])
@given(st.lists(st.tuples(SCALARS, MIXED_VALUES), max_size=4))
def test_add_scaled_sums_like_fractions(steps):
    out, den, want, lcm_seen = {}, 1, {}, 1
    for c, values in steps:
        den = add_scaled(out, den, c, numerators(values))
        for t, x in values.items():
            accumulate(want, t, Fraction(c) * x)
        lcm_seen = lcm(lcm_seen, numerators(values)[1] * Fraction(c).denominator)
        assert den == lcm_seen
        assert all(type(x) is int for x in out.values())
        assert [(t, Fraction(x, den)) for t, x in out.items()] == list(want.items())


@example({}, 6)
@example({0: 4, 1: -6}, 1)
@given(NUMERATORS, st.integers(1, 12))
def test_reduce_keeps_the_values_in_lowest_terms(nums, den):
    got = dict(nums)
    d = reduce(got, den)
    assert list(got) == list(nums)
    assert [Fraction(x, d) for x in got.values()] == [Fraction(x, den) for x in nums.values()]
    if den == 1:
        assert (got, d) == (nums, 1)
    else:
        assert gcd(d, *got.values()) == 1
    if not nums:
        assert d == 1


@example({0: 4, 1: 3}, 2)
@given(NUMERATORS, st.integers(1, 12))
def test_divided_gives_whole_values_as_ints(nums, den):
    got = divided(nums, den)
    assert list(got) == list(nums)
    for t, x in nums.items():
        assert got[t] == Fraction(x, den)
        assert type(got[t]) is (int if x % den == 0 else Fraction)
    assert (got is nums) == (den == 1)
