from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from halflattice.laurent import CutoffError, LaurentPoly, LaurentRing

R21 = LaurentRing(nvars=2, nlaurent=1)  # t1 Laurent, t2 polynomial
R20 = LaurentRing(nvars=2, nlaurent=0)  # both polynomial
R22 = LaurentRing(nvars=2, nlaurent=2)  # both Laurent


def poly_strategy(ring):
    def exp(j):
        if j < ring.nlaurent:
            return st.integers(min_value=-3, max_value=3)
        return st.integers(min_value=0, max_value=3)

    term = st.tuples(
        st.tuples(*(exp(j) for j in range(ring.nvars))),
        st.fractions(min_value=-9, max_value=9, max_denominator=3),
    )
    return st.lists(term, max_size=4).map(
        lambda items: sum(
            (ring.monomial(e, c) for e, c in items), start=ring.zero()
        )
    )


def test_shift_linear_example():
    # t1 -> t1 - 1 in a polynomial ring
    r = LaurentRing(1, 0)
    assert r.variable(1).shift(1, 1) == r.variable(1) - 1


def test_shift_square_example():
    # (t2 - 3)^2 expands to t2^2 - 6 t2 + 9
    t2 = R20.variable(2)
    assert (t2**2).shift(2, 3) == t2**2 - 6 * t2 + 9


def test_shift_constant_invariant():
    c = R20.constant(5)
    for j in (1, 2):
        for m in (-2, 0, 3):
            assert c.shift(j, m) == c


def test_shift_negative_is_inverse():
    f = R20.variable(1) ** 3 + 2 * R20.variable(1) * R20.variable(2)
    assert f.shift(1, 2).shift(1, -2) == f


@settings(max_examples=60)
@given(poly_strategy(R20), st.integers(-3, 3), st.integers(-3, 3))
def test_shift_composes_additively(f, a, b):
    assert f.shift(1, a).shift(1, b) == f.shift(1, a + b)
    assert f.shift(1, 0) == f


def test_shift_rejected_on_laurent_variable():
    with pytest.raises(CutoffError):
        R21.variable(1).shift(1, 1)


def test_degree_derivation_monomial_eigenvector():
    for m in range(-3, 4):
        mono = R22.monomial((m, 0))
        assert mono.degree_derivation(1) == m * mono


def test_degree_derivation_ignores_other_variables():
    assert R21.variable(2).degree_derivation(1).is_zero()


def test_degree_derivation_mixed_example():
    f = R22.monomial((-2, 1))
    assert f.degree_derivation(1) == -2 * f


@settings(max_examples=60)
@given(poly_strategy(R21), poly_strategy(R21))
def test_degree_derivation_is_a_derivation(f, g):
    lhs = (f * g).degree_derivation(1)
    rhs = f.degree_derivation(1) * g + f * g.degree_derivation(1)
    assert lhs == rhs


@settings(max_examples=60)
@given(poly_strategy(R22))
def test_degree_derivations_commute(f):
    assert f.degree_derivation(1).degree_derivation(2) == f.degree_derivation(2).degree_derivation(1)


@settings(max_examples=40)
@given(poly_strategy(R21), poly_strategy(R21), poly_strategy(R21))
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def test_degrees_with_zero_convention():
    zero = R21.zero()
    assert zero.deg_plus(1) == 0 and zero.deg_minus(1) == 0
    f = R21.monomial((-2, 0)) + R21.monomial((3, 1))
    assert f.deg_plus(1) == 3 and f.deg_minus(1) == -2
    assert f.deg_plus(2) == 1 and f.deg_minus(2) == 0


def test_cutoff_enforced():
    with pytest.raises(CutoffError):
        R21.monomial((0, -1))
    R21.monomial((-5, 0))  # Laurent side is fine


def test_constructor_checks_its_keys():
    # a negative exponent of a polynomial variable and a key of the wrong
    # length are refused; a whole Fraction exponent is stored as an int
    with pytest.raises(CutoffError):
        LaurentPoly(R21, {(0, -1): 1, (1, 2): 2})
    with pytest.raises(ValueError, match="2 entries"):
        LaurentPoly(R21, {(0, 1): 1, (1, 2, 3): 2})
    f = LaurentPoly(R21, {(Fraction(-1), 2): Fraction(4, 2)})
    assert f == R21.monomial((-1, 2), 2) and type(next(iter(f.terms))[0]) is int


def test_no_zero_terms_stored():
    f = R21.monomial((1, 0)) - R21.monomial((1, 0))
    assert f.is_zero() and not f.sorted_terms()


def test_constant_helpers():
    assert R20.constant(Fraction(3, 2)).constant_value() == Fraction(3, 2)
    assert not (R20.variable(1) + 1).is_constant()
    assert R20.zero().is_constant()


def test_power():
    t1 = R21.variable(1)
    assert t1**0 == R21.one()
    assert (2 * t1) ** 3 == 8 * t1 * t1 * t1
    with pytest.raises(ValueError):
        (t1 + 1) ** -1


def test_max_variable():
    assert R21.zero().max_variable() == 0
    assert R21.monomial((2, 0)).max_variable() == 1
    assert (R21.variable(1) + R21.variable(2)).max_variable() == 2


def test_string_is_deterministic():
    f = R22.monomial((1, -1), 3) - R22.one()
    assert str(f) == "-1 + 3*t1*t2^-1"


@pytest.mark.parametrize("nvars, nlaurent", [(2, 1.5), (2.0, 1), (2, Fraction(1, 2)), (1.0, 0)])
def test_ring_rejects_non_integer_counts(nvars, nlaurent):
    with pytest.raises(TypeError):
        LaurentRing(nvars, nlaurent)


def test_ring_is_an_immutable_value():
    ring, again = LaurentRing(3, 1), LaurentRing(nvars=3, nlaurent=1)
    assert ring == again and hash(ring) == hash(again) and ring is not again
    assert ring != LaurentRing(3, 2) and ring != (3, 1)
    assert repr(ring) == str(ring) == "LaurentRing(nvars=3, nlaurent=1)"
    with pytest.raises(AttributeError):
        ring.nvars = 4
    for args, message in (((-1, 0), "nvars must be nonnegative"),
                          ((2, 3), "nlaurent must lie in 0..nvars"),
                          ((2, -1), "nlaurent must lie in 0..nvars")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            LaurentRing(*args)


def test_ring_normalizes_whole_fractions():
    ring = LaurentRing(Fraction(2), Fraction(1))
    assert ring == LaurentRing(2, 1) and type(ring.nvars) is int and type(ring.nlaurent) is int
    assert hash(ring) == hash(LaurentRing(2, 1))


def test_variable_indices_are_checked_by_the_ring():
    # t_j is 1-based: an index outside 1..nvars neither wraps nor defaults
    f = R21.monomial([1, 3])
    assert R21.variable(2) == R21.monomial([0, 1]) and f.deg_plus(2) == f.deg_minus(2) == 3
    for j in (0, 3, -1):
        with pytest.raises(ValueError, match=f"variable index {j} out of range 1..2"):
            R21.variable(j)
        for read in (f.deg_plus, f.deg_minus, f.degree_derivation, R21.zero().deg_plus):
            with pytest.raises(ValueError, match=f"variable index {j} out of range 1..2"):
                read(j)
        with pytest.raises(ValueError, match=f"variable index {j} out of range 1..2"):
            f.shift(j, 1)


@pytest.mark.parametrize("j", [1.0, 1.5, Fraction(3, 2), "1"])
def test_variable_indices_must_be_integers(j):
    # a float or a proper fraction neither reads t1 nor fails on a tuple
    # index; a whole Fraction and a bool are integers, as in every key entry
    f = R21.monomial([1, 3])
    for read in (R21.variable, f.deg_plus, f.deg_minus, f.degree_derivation):
        with pytest.raises(TypeError, match="expected an integer"):
            read(j)
    with pytest.raises(TypeError, match="expected an integer"):
        f.shift(j, 1)
    assert R21.variable(Fraction(2)) == R21.variable(2) and R21.variable(True) == R21.variable(1)
