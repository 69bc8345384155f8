import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from halflattice.assoc import BElement, OmegaSpec, gen_d, gen_e
from halflattice.fock import ModuleElement, charge_element, fock_element, pair_key
from halflattice.lattice import LatticeConfig, WeightModule
from halflattice.laurent import LaurentRing
from halflattice.probes import (
    rand_charge,
    rand_fraction,
    rand_laurent,
    rand_module_element,
    rand_velement,
)
from halflattice.serialize import (
    SchemaError,
    b_element_from_data,
    b_element_to_data,
    laurent_from_data,
    laurent_to_data,
    omega_spec_from_data,
    velement_from_data,
    velement_to_data,
    w_handle_from_data,
    weight_vector_from_data,
    weight_vector_to_data,
)

CFG = LatticeConfig(nu=2, k=1)


def test_velement_json_lists_terms_by_their_decoded_pairs():
    # pinned from when words held (direction, mode) pairs: terms sort by
    # (pairs, charge), an order their codes do not share
    v = (fock_element(2, [(0, 1)], (1, 0)) + 2 * fock_element(2, [(3, 2)])
         + Fraction(1, 2) * fock_element(2, [(1, 1), (2, 3)], (0, -1))
         + charge_element(2, (1, 1), -1))
    assert json.dumps(velement_to_data(v)) == (
        '{"terms": [{"coeff": "-1", "fock": [], "charge": [1, 1]}, '
        '{"coeff": "1", "fock": [[0, 1]], "charge": [1, 0]}, '
        '{"coeff": "1/2", "fock": [[2, 3], [1, 1]], "charge": [0, -1]}, '
        '{"coeff": "2", "fock": [[3, 2]], "charge": [0, 0]}]}')
    assert [pair_key(key) for key in sorted(v.terms)] != sorted(map(pair_key, v.terms))


def _b_element(rng):
    """A BElement of four drawn words of up to two generators, d_j up to j = 12."""
    def word():
        return tuple(gen_e(rand_charge(rng, 2)) if rng.random() < 0.5 else gen_d(rng.randint(1, 12))
                     for _ in range(rng.randint(0, 2)))
    return BElement({word(): rand_fraction(rng, nonzero=True) for _ in range(4)})


HALF = WeightModule(CFG, [Fraction(1, 2), 0])

# (draw, the writer's records): a state of the weight module at the empty word
WRITERS = {
    "velement": (lambda rng: rand_velement(rng, CFG, n_terms=4),
                 lambda x: velement_to_data(x)["terms"]),
    "weight-vector": (lambda rng: rand_module_element(rng, HALF, n_terms=4, max_weight=0),
                      weight_vector_to_data),
    "laurent": (lambda rng: rand_laurent(rng, LaurentRing(2, 1), n_terms=4), laurent_to_data),
    "b-element": (_b_element, lambda x: b_element_to_data(x)["words"]),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_text_and_json_share_the_one_term_order(name):
    # the writer's records, and the printed terms, are those of the one-term
    # combinations taken in sorted_terms order
    draw, records = WRITERS[name]
    rng = random.Random(11)
    for _ in range(20):
        x = draw(rng)
        singles = [x._make({key: c}) for key, c in x.sorted_terms()]
        assert records(x) == [rec for one in singles for rec in records(one)]
        assert str(x) == " + ".join(map(str, singles)).replace("+ -", "- ")


def test_parse_single_charge_term():
    doc = {"terms": [{"coeff": "1", "fock": [], "charge": [1, 0]}]}
    assert velement_from_data(doc, CFG) == charge_element(2, (1, 0))


def test_parse_fraction_coefficient_and_direction():
    # direction index 2 is the first d-direction when nu = 2
    doc = {"terms": [{"coeff": "1/2", "fock": [[2, 1]], "charge": [0, 0]}]}
    got = velement_from_data(doc, CFG)
    assert got == Fraction(1, 2) * fock_element(2, [(2, 1)])


def test_charge_length_mismatch_is_named():
    doc = {"terms": [{"coeff": "1", "fock": [], "charge": [1, 0, 0]}]}
    with pytest.raises(SchemaError) as err:
        velement_from_data(doc, CFG)
    assert "charge" in str(err.value)


def test_direction_out_of_range_is_named():
    doc = {"terms": [{"coeff": "1", "fock": [[7, 1]], "charge": [0, 0]}]}
    with pytest.raises(SchemaError) as err:
        velement_from_data(doc, CFG)
    assert "direction" in str(err.value)


def test_bad_rational():
    doc = {"terms": [{"coeff": "1/0", "fock": [], "charge": [0, 0]}]}
    with pytest.raises(SchemaError):
        velement_from_data(doc, CFG)


def test_velement_roundtrip():
    rng = random.Random(3)
    for _ in range(10):
        v = rand_velement(rng, CFG, n_terms=3, max_weight=4)
        assert velement_from_data(velement_to_data(v), CFG) == v


def test_laurent_roundtrip():
    ring = LaurentRing(2, 1)
    f = ring.monomial((-2, 1), Fraction(3, 4)) + ring.one()
    assert laurent_from_data(laurent_to_data(f), ring) == f


def test_laurent_cutoff_violation_reported():
    ring = LaurentRing(2, 1)
    with pytest.raises(SchemaError):
        laurent_from_data([{"coeff": "1", "exponents": [0, -1]}], ring)


COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def accepted(parse, coeff) -> bool:
    """Whether the record that parse builds at this coefficient is accepted."""
    try:
        parse(coeff)
    except SchemaError:
        return False
    return True


# In each parser the keys of a record are checked whatever its coefficient,
# so a zero record is refused exactly where a nonzero one is.

@given(st.lists(st.integers(-2, 2), min_size=2, max_size=2), COEFFS)
def test_a_zero_coefficient_does_not_decide_whether_a_record_parses(exponents, coeff):
    # t2 is polynomial-only: a negative exponent there is refused
    def parse(c):
        return laurent_from_data([{"coeff": str(c), "exponents": exponents}], LaurentRing(2, 1))

    assert accepted(parse, 0) == accepted(parse, coeff) == (exponents[1] >= 0)


@given(st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 3)), max_size=3),
       st.lists(st.integers(-2, 2), min_size=1, max_size=3), COEFFS)
def test_a_zero_coefficient_does_not_decide_whether_a_state_parses(fock, charge, coeff):
    def parse(c):
        doc = {"terms": [{"coeff": str(c), "fock": [list(f) for f in fock], "charge": charge}]}
        return velement_from_data(doc, CFG)

    valid = all(0 <= d < CFG.ndirs and m >= 1 for d, m in fock) and len(charge) == CFG.nu
    assert accepted(parse, 0) == accepted(parse, coeff) == valid


GENERATORS = st.one_of(
    st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(lambda charge: {"e": charge}),
    st.integers(-1, 3).map(lambda j: {"d": j}),
    st.just({"x": 1}))


@given(st.lists(GENERATORS, max_size=3), COEFFS)
def test_a_zero_coefficient_does_not_decide_whether_a_word_parses(factors, coeff):
    def parse(c):
        return b_element_from_data({"words": [{"coeff": str(c), "factors": factors}]}, CFG)

    valid = all(len(f["e"]) == CFG.nu if "e" in f else 1 <= f.get("d", 0) <= CFG.nu
                for f in factors)
    assert accepted(parse, 0) == accepted(parse, coeff) == valid


@given(st.lists(st.fractions(-2, 2, max_denominator=2), min_size=1, max_size=3), COEFFS)
def test_a_zero_coefficient_does_not_decide_whether_a_point_parses(point, coeff):
    # the point must lie in the charge coset of (1/2, 0)
    handle = WeightModule(CFG, [Fraction(1, 2), 0])

    def parse(c):
        return weight_vector_from_data([{"coeff": str(c), "point": list(map(str, point))}], handle)

    valid = (len(point) == CFG.nu and (point[0] - Fraction(1, 2)).denominator == 1
             and point[1].denominator == 1)
    assert accepted(parse, 0) == accepted(parse, coeff) == valid


def test_omega_spec_roundtrip():
    ring = LaurentRing(2, 1)
    spec = OmegaSpec(2, 2, (ring.variable(1) + 2,), (Fraction(5, 3),))
    doc = {
        "mu": 2,
        "f": [[{"coeff": "2", "exponents": [0, 0]}, {"coeff": "1", "exponents": [1, 0]}]],
        "a": ["5/3"],
    }
    assert omega_spec_from_data(doc, CFG) == spec


def test_omega_spec_validation():
    with pytest.raises(SchemaError):
        omega_spec_from_data({"mu": 9, "f": [], "a": []}, CFG)
    with pytest.raises(SchemaError):
        omega_spec_from_data({"mu": 1, "f": [], "a": ["0", "1"]}, CFG)


def test_b_element_roundtrip():
    x = BElement.d(1) * BElement.e((1, -1)) - 2 * BElement.e((0, 1))
    assert b_element_from_data(b_element_to_data(x), CFG) == x


def test_weight_vector_roundtrip():
    # a weight vector is the module state at the empty word; the records
    # come in ascending label order
    handle = WeightModule(CFG, [Fraction(1, 2), 0])
    m = ModuleElement(handle, {((), (Fraction(1, 2), 0)): -1, ((), (Fraction(-1, 2), 2)): 3})
    doc = weight_vector_to_data(m)
    assert doc == [{"coeff": "3", "point": ["-1/2", "2"]}, {"coeff": "-1", "point": ["1/2", "0"]}]
    assert weight_vector_from_data(doc, handle) == m


def test_a_weight_vector_has_no_fock_factor():
    handle = WeightModule(CFG, [Fraction(1, 2), 0])
    m = ModuleElement(handle, {(((0, 1),), (Fraction(1, 2), 0)): 1})
    with pytest.raises(ValueError, match="empty Fock word"):
        weight_vector_to_data(m)


def test_module_element_invalid_label():
    handle = WeightModule(CFG, [Fraction(1, 2), 0])
    doc = [{"coeff": "1", "point": ["0", "0"]}]  # wrong coset
    with pytest.raises(SchemaError):
        weight_vector_from_data(doc, handle)


@pytest.mark.parametrize(
    "fock, path, message",
    [
        pytest.param([[9, 1]], "element.terms[0].fock[0]", "direction 9 out of range",
                     id="direction-out-of-range"),
        pytest.param([[1, 0]], "element.terms[0].fock[0]", "mode 0 must be positive",
                     id="zero-mode"),
        pytest.param([["x", 1]], "element.terms[0].fock[0]", "expected an integer",
                     id="non-integer-direction"),
    ],
)
def test_fock_factors_are_checked_in_both_parsers(fock, path, message):
    velement_doc = {"terms": [{"coeff": "1", "fock": fock, "charge": [0, 0]}]}
    with pytest.raises(SchemaError) as err:
        velement_from_data(velement_doc, CFG)
    assert err.value.path == path and message in str(err.value)


def test_w_handle_dispatch():
    w = w_handle_from_data({"kind": "weight", "lambda0": ["1/2", "0"]}, CFG)
    assert isinstance(w, WeightModule) and w.lam0 == (Fraction(1, 2), Fraction(0))
    o = w_handle_from_data(
        {"kind": "omega", "mu": 2, "f": [[{"coeff": "1", "exponents": [1, 0]}]], "a": ["2"]},
        CFG,
    )
    assert isinstance(o, OmegaSpec) and o.mu == 2
    with pytest.raises(SchemaError):
        w_handle_from_data({"kind": "nope"}, CFG)


RING = LaurentRing(2, 1)
SPEC_DOC = {"mu": 2, "f": [[{"coeff": "1", "exponents": [1, 0]}]], "a": ["2"]}


@pytest.mark.parametrize(
    "parse, doc, path",
    [
        pytest.param(lambda d: laurent_from_data(d, RING),
                     [{"coef": "2", "exponents": [1, 0]}], "poly[0].coef", id="laurent-term"),
        pytest.param(lambda d: velement_from_data(d, CFG),
                     {"terms": [], "extra": 1}, "element.extra", id="velement"),
        pytest.param(lambda d: velement_from_data(d, CFG),
                     {"terms": [{"cofef": "5", "fock": [], "charge": [1, 0]}]},
                     "element.terms[0].cofef", id="velement-term"),
        pytest.param(lambda d: weight_vector_from_data(d, WeightModule(CFG)),
                     [{"coeff": "1", "point": ["0", "0"], "pt": 1}], "m[0].pt",
                     id="weight-vector-record"),
        pytest.param(lambda d: b_element_from_data(d, CFG),
                     {"word": []}, "element.word", id="b-element"),
        pytest.param(lambda d: b_element_from_data(d, CFG),
                     {"words": [{"coeff": "1", "factor": []}]}, "element.words[0].factor",
                     id="b-word"),
        pytest.param(lambda d: omega_spec_from_data(d, CFG),
                     {**SPEC_DOC, "kind": "omega"}, "spec.kind", id="spec-with-kind"),
        pytest.param(lambda d: w_handle_from_data(d, CFG),
                     {"kind": "weight", "lambd0": ["1/2", "0"]}, "W.lambd0", id="weight-module"),
        pytest.param(lambda d: w_handle_from_data(d, CFG),
                     {**SPEC_DOC, "kind": "omega", "nu": 2}, "W.nu", id="omega-module"),
    ],
)
def test_unknown_keys_are_rejected_by_path(parse, doc, path):
    with pytest.raises(SchemaError) as err:
        parse(doc)
    assert err.value.path == path and "unknown key" in str(err.value)


def test_optional_keys_keep_their_defaults():
    assert velement_from_data({"terms": [{"charge": [1, 0]}]}, CFG) == charge_element(2, (1, 0))
    assert laurent_from_data([{"exponents": [1, 0]}], RING) == RING.variable(1)
    assert w_handle_from_data({"kind": "weight"}, CFG).lam0 == (0, 0)
    assert b_element_from_data({"words": [{}]}, CFG) == BElement.one()
    assert omega_spec_from_data({"mu": 1, "a": ["1", "2"]}, CFG).f == ()


def test_label_outside_the_coset_prints_rationals():
    handle = WeightModule(CFG, [Fraction(1, 2), 0])
    with pytest.raises(SchemaError) as err:
        weight_vector_from_data([{"point": ["0", "0"]}], handle)
    assert str(err.value) == "m[0].point: label (0, 0) is not in the charge coset of (1/2, 0)"
