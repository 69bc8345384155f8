import random
import re
from fractions import Fraction

import pytest

from halflattice.assoc import (
    AElement,
    BElement,
    OmegaSpec,
    act_on_module,
    act_on_omega_module,
    cyclic_relations,
    decompose_potential,
    gen_d,
    gen_e,
    is_a_module_spec,
    iso_decide,
    simplicity_witness,
)
from halflattice.combination import accumulate
from halflattice.fock import ModuleElement, fock_element
from halflattice.lattice import LatticeConfig, WeightModule
from halflattice.laurent import LaurentPoly, LaurentRing
from halflattice.probes import rand_a_module_spec, rand_nonzero_laurent
from halflattice.vertex import module_operator_context

CFG2 = LatticeConfig(nu=2, k=1)
CFG2K = LatticeConfig(nu=2, k=3)

R21 = LaurentRing(2, 1)  # mu = 2 shapes
R22 = LaurentRing(2, 2)  # mu = 3 shapes


def spec_mu2(a2=3):
    return OmegaSpec(2, 2, (R21.variable(1),), (Fraction(a2),))


# -- oracle: the function module's generators on whole polynomials ------------------


def poly_e_act(spec: OmegaSpec, charge: tuple, f):
    """e_alpha multiplies by the monomial of alpha in the Laurent variables and
    applies the scaled substitution t_i -> t_i - m_i in each polynomial one."""
    out = f
    for i in range(spec.mu, spec.nu + 1):
        m_i = charge[i - 1]
        if m_i:
            out = Fraction(spec.a_of(i)) ** m_i * out.shift(i, m_i)
    exps = [charge[i] if i < spec.mu - 1 else 0 for i in range(spec.nu)]
    return spec.ring.monomial(exps) * out


def poly_d_act(spec: OmegaSpec, j: int, f):
    """d_j is t_j d/dt_j + f_j below the cutoff and t_j from it on."""
    if j <= spec.mu - 1:
        return f.degree_derivation(j) + spec.f_of(j) * f
    return spec.ring.variable(j) * f


# -- oracle and checks: straightening ------------------------------------------------


def a_normal_form(x: BElement, cfg: LatticeConfig, target: str = "A"):
    """Oracle: confluent straightening of a generator-word combination.

    Every swap of an adjacent (d_i, e_alpha) pair strictly reduces the number
    of such inversions, so the rewriting terminates; charges then merge on
    the left.  Target "B" returns the charge-left ``BElement``; with target
    "A" the d-word is additionally sorted into a commutative exponent vector.
    """
    if target not in ("A", "B"):
        raise ValueError("target must be 'A' or 'B'")
    collected: dict = {}
    work = list(x.terms.items())
    while work:
        word, coeff = work.pop()
        for pos in range(len(word) - 1):
            if word[pos][0] == "d" and word[pos + 1][0] == "e":
                d_gen, e_gen = word[pos], word[pos + 1]
                swapped = word[:pos] + (e_gen, d_gen) + word[pos + 2 :]
                work.append((swapped, coeff))
                scalar = cfg.k * e_gen[1][d_gen[1] - 1]  # (d_i, alpha)
                if scalar:
                    contracted = word[:pos] + (e_gen,) + word[pos + 2 :]
                    work.append((contracted, coeff * scalar))
                break
        else:
            charge = [0] * cfg.nu
            dword = []
            for g in word:
                if g[0] == "e":
                    charge = [a + b for a, b in zip(charge, g[1])]
                else:
                    dword.append(g[1])
            accumulate(collected, (tuple(charge), tuple(dword)), coeff)
    if target == "B":
        return BElement({
            ((gen_e(charge),) if any(charge) else ()) + tuple(gen_d(j) for j in dword): coeff
            for (charge, dword), coeff in collected.items()
        })
    data: dict = {}
    for (charge, dword), coeff in collected.items():
        dexp = [0] * cfg.nu
        for j in dword:
            dexp[j - 1] += 1
        accumulate(data, (charge, tuple(dexp)), coeff)
    return AElement(cfg.nu, data)


def test_straightening_rule():
    x = BElement.d(1) * BElement.e((1, 0))
    for cfg in (CFG2, CFG2K):
        nf = a_normal_form(x, cfg, "A")
        want = AElement(2, {((1, 0), (1, 0)): 1, ((1, 0), (0, 0)): cfg.k})
        assert nf == want


def test_charges_merge():
    x = BElement.e((1, 0)) * BElement.e((-1, 0))
    assert a_normal_form(x, CFG2, "A") == AElement.monomial(2)


def test_free_version_keeps_word_order():
    x = BElement.d(2) * BElement.d(1)
    bnf = a_normal_form(x, CFG2, "B")
    assert bnf.terms == {(gen_d(2), gen_d(1)): Fraction(1)}
    anf = a_normal_form(x, CFG2, "A")
    assert anf == AElement.monomial(2, dexp=(1, 1))


def test_straightened_elements_print_by_the_core_rule():
    # words in their natural order, d2 before d10 and the unit word first,
    # each coefficient by the one rule of the combination core
    x = BElement.d(10) + BElement.d(2) - BElement.d(1) * BElement.d(10)
    assert str(x) == "-d1*d10 + d2 + d10"
    assert str(Fraction(3, 2) * BElement.e((0, 1)) - BElement.one()) == "-1 + 3/2*e[0,1]"
    y = AElement(2, {((-2, 2), (0, 0)): 3, ((-1, 2), (1, 1)): -2, ((0, 0), (0, 0)): 2})
    assert str(y) == "3*e[-2,2] - 2*e[-1,2]*d1*d2 + 2"
    assert str(BElement({})) == str(AElement(2, {})) == "0"


def _random_word(rng, length):
    gens = []
    for _ in range(length):
        if rng.random() < 0.5:
            gens.append(BElement.d(rng.randint(1, 2)))
        else:
            gens.append(BElement.e((rng.randint(-2, 2), rng.randint(-2, 2))))
    out = BElement.one()
    for g in gens:
        out = out * g
    return out


def test_rewriting_confluence_on_critical_pairs():
    # apply one manual swap at an arbitrary inversion first; the normal form
    # must not depend on which inversion was rewritten first
    rng = random.Random(101)
    for _ in range(60):
        x = _random_word(rng, rng.randint(2, 8))
        base = a_normal_form(x, CFG2K, "A")
        ((word, coeff),) = list(x.terms.items()) or [((), 1)]
        for pos in range(len(word) - 1):
            if word[pos][0] == "d" and word[pos + 1][0] == "e":
                d_gen, e_gen = word[pos], word[pos + 1]
                swapped = BElement({word[:pos] + (e_gen, d_gen) + word[pos + 2 :]: coeff})
                scalar = CFG2K.k * e_gen[1][d_gen[1] - 1]
                contracted = BElement({word[:pos] + (e_gen,) + word[pos + 2 :]: coeff * scalar})
                rewritten = swapped + contracted
                assert a_normal_form(rewritten, CFG2K, "A") == base


def test_a_element_product_matches_straightened_word_product():
    rng = random.Random(57)
    for _ in range(25):
        x = _random_word(rng, rng.randint(1, 4))
        y = _random_word(rng, rng.randint(1, 4))
        ax = a_normal_form(x, CFG2K, "A")
        ay = a_normal_form(y, CFG2K, "A")
        assert ax.mul(ay, CFG2K) == a_normal_form(x * y, CFG2K, "A")


# -- weight modules -----------------------------------------------------------------


def point(W, label, coeff=1) -> ModuleElement:
    """The weight vector coeff * label: the module state at the empty word."""
    return ModuleElement(W, {((), label): coeff})


def test_weight_module_actions():
    W = WeightModule(CFG2, [Fraction(1, 2), 0])
    m = point(W, W.lam0)
    shifted = act_on_module(BElement.e((0, 1)), m)
    assert shifted == point(W, (Fraction(1, 2), Fraction(1)))
    got = act_on_module(BElement.d(1), m)
    assert got == Fraction(1, 2) * m


def test_weight_module_diagonal_action_with_k():
    W = WeightModule(CFG2K, [Fraction(1, 2), 0])
    m = point(W, W.lam0)
    assert act_on_module(BElement.d(1), m) == Fraction(3, 2) * m


def test_weight_module_representation_property():
    rng = random.Random(61)
    W = WeightModule(CFG2K, [Fraction(1, 3), Fraction(-1, 2)])
    for _ in range(50):
        x = _random_word(rng, rng.randint(1, 3))
        y = _random_word(rng, rng.randint(1, 3))
        label = rng.choice(W.probe_labels())
        m = point(W, label)
        direct = act_on_module(x, act_on_module(y, m))
        nf = a_normal_form(x * y, CFG2K, "B")
        assert act_on_module(nf, m) == direct


def test_cyclic_span_is_invariant():
    # the translation orbit of a weight vector is closed under all generators
    W = WeightModule(CFG2, [Fraction(1, 2), 0])
    m = point(W, W.lam0)
    orbit_charges = [(1, 0), (0, -2), (-1, 1)]
    for charge in orbit_charges:
        v = act_on_module(BElement.e(charge), m)
        for g in [BElement.d(1), BElement.d(2), BElement.e((1, 1))]:
            image = act_on_module(g, v)
            for word, label in image.terms:
                assert word == () and all((a - b).denominator == 1 for a, b in zip(label, W.lam0))


# -- function modules ----------------------------------------------------------------


def test_translation_on_symbol():
    spec = spec_mu2(a2=3)
    assert act_on_omega_module(BElement.e((0, 1)), R21.one(), spec) == R21.constant(3)


def test_degree_operator_below_cutoff():
    spec = spec_mu2()
    t1 = R21.variable(1)
    assert act_on_omega_module(BElement.d(1), t1, spec) == t1 + t1 * t1


def test_degree_operator_at_cutoff():
    spec = spec_mu2()
    f = R21.variable(1)
    assert act_on_omega_module(BElement.d(2), f, spec) == R21.variable(2) * f


def test_negative_translation_inverts():
    spec = spec_mu2()
    f = R21.monomial((2, 1), Fraction(1, 2))
    forward = act_on_omega_module(BElement.e((1, 2)), f, spec)
    assert forward == poly_e_act(spec, (1, 2), f)
    back = act_on_omega_module(BElement.e((-1, -2)), forward, spec)
    assert back == f


def test_defining_relations_on_function_module():
    rng = random.Random(67)
    spec = spec_mu2()
    for _ in range(100):
        j = rng.randint(1, 2)
        charge = (rng.randint(-2, 2), rng.randint(-2, 2))
        f = rand_nonzero_laurent(rng, R21, n_terms=2, exp_bound=2)
        d_j, e_a = BElement.d(j), BElement.e(charge)
        rel = d_j * e_a - e_a * d_j - charge[j - 1] * e_a
        assert act_on_omega_module(rel, f, spec).is_zero()


def test_function_module_representation_property():
    rng = random.Random(71)
    spec = spec_mu2()
    for _ in range(50):
        x = _random_word(rng, rng.randint(1, 3))
        y = _random_word(rng, rng.randint(1, 3))
        f = rand_nonzero_laurent(rng, R21, n_terms=2, exp_bound=1)
        direct = act_on_omega_module(x, act_on_omega_module(y, f, spec), spec)
        nf = a_normal_form(x * y, CFG2, "B")
        assert act_on_omega_module(nf, f, spec) == direct


def test_function_module_action_matches_the_polynomial_actions():
    # oracle: each word's generators applied right to left to the whole
    # polynomial, against the shared loop over monomial labels
    rng = random.Random(79)
    spec = spec_mu2(a2=Fraction(2, 3))
    for _ in range(40):
        x = _random_word(rng, rng.randint(0, 3)) - Fraction(1, 2) * _random_word(rng, 2)
        f = rand_nonzero_laurent(rng, R21, n_terms=3, exp_bound=2)
        want = R21.zero()
        for word, coeff in x.terms.items():
            g = f
            for kind, arg in reversed(word):
                g = poly_e_act(spec, arg, g) if kind == "e" else poly_d_act(spec, arg, g)
            want = want + coeff * g
        assert act_on_omega_module(x, f, spec) == want


@pytest.mark.parametrize("x, name", [
    (BElement.e((1,)), "e[1]"),  # a short charge
    (BElement.e((1, 2, 3)), "e[1,2,3]"),  # a long charge, once silently cut
    (BElement.d(3), "d3"),
    (BElement.d(0), "d0"),
])
def test_generators_of_the_wrong_rank_are_rejected(x, name):
    W = WeightModule(CFG2, [Fraction(1, 2), 0])
    m = point(W, (Fraction(1, 2), 0))
    word = BElement.d(1) * x * BElement.e((0, 1))  # checked wherever it stands
    for y in (x, word):
        with pytest.raises(ValueError, match=rf"generator {re.escape(name)} does not act at rank 2"):
            act_on_module(y, m)
        with pytest.raises(ValueError, match=rf"generator {re.escape(name)} does not act at rank 2"):
            act_on_omega_module(y, R21.variable(1), spec_mu2())


def test_function_module_action_checks_the_ring_once():
    # the empty word applies no generator, and the ring is still checked
    for x in (BElement.one(), BElement.d(1)):
        with pytest.raises(ValueError, match="module ring"):
            act_on_omega_module(x, LaurentRing(2, 0).one(), spec_mu2())


def test_the_action_takes_module_states_only():
    # a VElement is a state of the algebra itself, not of a coefficient module
    for x in (BElement.one(), BElement.d(1)):
        with pytest.raises(TypeError, match="ModuleElement, got VElement"):
            act_on_module(x, fock_element(2, [(0, 1)]))


def test_function_module_polynomials_act_as_module_states():
    # act_on_omega_module is act_on_module on the polynomial's terms at the
    # empty word, for words of every generator and for the empty word
    rng = random.Random(67)
    for _ in range(20):
        spec = rand_a_module_spec(rng, 2, rng.randint(1, 3))
        f = rand_nonzero_laurent(rng, spec.ring, n_terms=3, exp_bound=2)
        state = ModuleElement(spec, {((), label): c for label, c in f.terms.items()})
        for x in (BElement.one(), _random_word(rng, rng.randint(1, 3))):
            got = act_on_module(x, state)
            want = act_on_omega_module(x, f, spec)
            assert got == ModuleElement(spec, {((), label): c for label, c in want.terms.items()})


def test_shift_identity():
    # the scaled substitution pulls (t - m) out of a product, exactly
    rng = random.Random(73)
    r10 = LaurentRing(1, 0)
    t = r10.variable(1)
    for m in range(6):
        for _ in range(10):
            f = rand_nonzero_laurent(rng, r10, n_terms=3, exp_bound=3)
            a = Fraction(rng.randint(1, 4), rng.randint(1, 2))
            lhs = (a**m) * (t * f).shift(1, m)
            rhs = (t - m) * ((a**m) * f.shift(1, m))
            assert lhs == rhs


def test_module_handle_label_actions_match_poly_actions():
    # every shape: mu = 1, 2 and 3, with integer and fractional shift
    # constants, and a constant multiplier term that cancels the degree
    t1, t2 = R22.variable(1), R22.variable(2)
    specs = [
        spec_mu2(),
        spec_mu2(a2=Fraction(-2, 3)),
        OmegaSpec(2, 1, (), (2, Fraction(1, 2))),
        OmegaSpec(2, 3, (t1 * t2 - Fraction(1, 2) * t1 * t1, R22.constant(2) + t2), ()),
    ]
    charges = [(1, 0), (0, 1), (-2, 1), (1, -2), (0, 0)]
    for spec in specs:
        for label in spec.probe_labels(laurent_radius=2) + [(-1, 3), (-2, -2)]:
            if min(label[spec.mu - 1:], default=0) < 0:
                continue  # not a monomial of this ring
            mono = spec.ring.monomial(label)
            actions = [(spec.e_action(charge, label), poly_e_act(spec, charge, mono))
                       for charge in charges]
            actions += [(spec.d_action(j, label), poly_d_act(spec, j, mono)) for j in (1, 2)]
            for got, want in actions:
                labels = [lab for _, lab in got]
                assert labels == sorted(set(labels)) and all(c for c, _ in got)
                assert LaurentPoly(spec.ring, {lab: c for c, lab in got}) == want


def test_e_action_builds_no_fraction_on_integer_shift_constants(monkeypatch):
    # a_i ** m is taken once per (a_i, m), and with integer shift constants
    # and m >= 0 every product stays an int: after the first call no
    # Fraction is built at all.  The values are checked against the
    # polynomial actions above.
    spec = OmegaSpec(2, 1, (), (2, -3))
    first = spec.e_action((2, 1), (3, 2))
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    again = spec.e_action((2, 1), (3, 2))
    monkeypatch.undo()
    assert again == first and len(first) == 12
    assert all(type(c) is int for c, _ in again) and not built


def test_a_context_on_a_function_module_is_at_k_1():
    # the spec carries the lattice its contexts take, at k = 1 for every
    # rank and cutoff, so no context can put a function module at another k
    rng = random.Random(3)
    specs = [spec_mu2(), OmegaSpec(1, 1, (), (2,))]
    specs += [rand_a_module_spec(rng, nu, mu) for nu in (1, 2, 3) for mu in range(1, nu + 2)]
    for spec in specs:
        ctx = module_operator_context(LatticeConfig(spec.nu, 1).d_basis(1), spec)
        assert ctx.cfg == spec.cfg == LatticeConfig(spec.nu, 1)


def test_spec_validation():
    t1 = R21.variable(1)
    for args, message in (
        ((2, 2, (R21.variable(2),), (Fraction(1),)), r"f_1 may only involve t_1\.\.t_1"),
        ((2, 2, (t1,), (Fraction(0),)), "a_2 must be nonzero"),
        ((2, 5, (), ()), r"mu must lie in 1\.\.nu\+1"),
        ((2, 2, (), (1,)), "expected 1 multiplier polynomials"),
        ((2, 2, (t1,), (1, 2)), "expected 1 shift constants"),
        ((2, 2, (R22.variable(1),), (1,)),
         r"f_1 must live in LaurentRing\(nvars=2, nlaurent=1\)"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            OmegaSpec(*args)
    OmegaSpec(1, 1, (), (Fraction(2),))
    OmegaSpec(1, 2, (LaurentRing(1, 1).variable(1),), ())


def test_spec_is_an_immutable_value():
    # equal parameters give equal, equally hashed specs whatever sequences
    # they came in; the repr, which error and residual texts print, keeps
    # the parameters' order
    t1 = R21.variable(1)
    spec, again = OmegaSpec(2, 2, (t1,), (2,)), OmegaSpec(2, 2, [t1], [Fraction(2)])
    assert spec == again and hash(spec) == hash(again) and spec is not again
    assert spec != OmegaSpec(2, 2, (t1,), (3,)) and spec != (2, 2, (t1,), (2,))
    assert repr(spec) == str(spec) == "OmegaSpec(nu=2, mu=2, f=(t1,), a=(2,))"
    assert repr(OmegaSpec(2, 1, (), (Fraction(1, 2), 3))) == (
        "OmegaSpec(nu=2, mu=1, f=(), a=(Fraction(1, 2), 3))")
    for name in ("mu", "a", "ring", "other"):
        with pytest.raises(AttributeError):
            setattr(spec, name, 1)
    assert spec.ring == R21 and spec.cfg == LatticeConfig(2, 1)


def test_spec_normalizes_integer_parameters():
    # nu and mu pass through combination.integer, as the config's and the
    # ring's do: a whole Fraction or a bool is its int, a float is refused
    spec = OmegaSpec(2, 1, (), (1, 1))
    for same in (OmegaSpec(Fraction(2), 1, (), (1, 1)), OmegaSpec(2, True, (), (1, 1))):
        assert same == spec and hash(same) == hash(spec)
        assert repr(same) == "OmegaSpec(nu=2, mu=1, f=(), a=(1, 1))"
        assert type(same.nu) is int and type(same.mu) is int
    for nu, mu, bad in ((2, 1.0, "1.0"), (2.0, 1, "2.0"), (Fraction(3, 2), 1, r"Fraction\(3, 2\)")):
        with pytest.raises(TypeError, match=f"^expected an integer, got {bad}$"):
            OmegaSpec(nu, mu, (), (1, 1))


def test_witness_records_print_their_fields():
    s1, s2 = spec_mu2(2), OmegaSpec(2, 2, (R21.variable(1) + 3,), (Fraction(2),))
    iso = iso_decide(s1, s2)
    assert iso == iso_decide(s1, s2) and iso.shifts == (3,)
    assert repr(iso) == f"IsoData(shifts=(3,), source={s1!r}, target={s2!r})"
    w = simplicity_witness(s1, R21.variable(2))
    assert repr(w) == (f"SimplicityWitness(spec={s1!r}, steps=(WitnessStep(kind='difference',"
                       " j=2, element=-1 + 1/2*e[0,1]),), result=-1)")


def test_spec_parameters_are_read_only_at_their_indices():
    # a_j exists for j in mu..nu and f_j for j in 1..mu-1; no index wraps
    spec = OmegaSpec(2, 2, (R21.variable(1),), (2,))
    assert spec.a_of(2) == 2 and spec.f_of(1) == R21.variable(1)
    for j in (0, 1, 3, -1):
        with pytest.raises(ValueError, match=rf"a_{j}: the shift constant index must lie in 2\.\.2"):
            spec.a_of(j)
    for j in (0, 2, -1):
        with pytest.raises(ValueError, match=rf"f_{j}: the multiplier index must lie in 1\.\.1"):
            spec.f_of(j)


# -- classification -------------------------------------------------------------------


def test_symmetric_derivation_counterexample():
    bad = OmegaSpec(2, 3, (R22.variable(2), R22.variable(1)), ())
    ok, witness = is_a_module_spec(bad)
    assert not ok and witness == (1, 2)
    assert decompose_potential(bad) is None


def test_symmetric_derivation_passes():
    p = R22.variable(1) * R22.variable(2)
    good = OmegaSpec(2, 3, (p, p), ())
    ok, witness = is_a_module_spec(good)
    assert ok and witness is None
    P, parts = decompose_potential(good)
    assert P == p and all(q.is_zero() for q in parts)


def test_vacuous_condition_at_cutoff_one():
    spec = OmegaSpec(2, 1, (), (Fraction(1), Fraction(2)))
    ok, witness = is_a_module_spec(spec)
    assert ok and decompose_potential(spec) == (spec.ring.zero(), ())


def test_constant_multiplier_goes_to_pure_part():
    spec = OmegaSpec(2, 2, (R21.constant(Fraction(5, 2)),), (Fraction(1),))
    P, parts = decompose_potential(spec)
    assert P.is_zero() and parts[0] == R21.constant(Fraction(5, 2))


def test_potential_with_pure_parts():
    t1, t2 = R22.variable(1), R22.variable(2)
    f1 = 2 * t1 + t1 * t2**2
    f2 = 2 * t1 * t2**2
    spec = OmegaSpec(2, 3, (f1, f2), ())
    P, parts = decompose_potential(spec)
    assert P == t1 * t2**2
    assert parts[0] == 2 * t1 and parts[1].is_zero()
    for j in (1, 2):
        assert P.degree_derivation(j) + parts[j - 1] == spec.f_of(j)


def test_decompose_roundtrip_on_random_specs():
    rng = random.Random(79)
    for _ in range(15):
        mu = rng.randint(1, 3)
        spec = rand_a_module_spec(rng, 2, mu)
        assert is_a_module_spec(spec)[0]
        P, parts = decompose_potential(spec)
        for j in range(1, mu):
            assert P.degree_derivation(j) + parts[j - 1] == spec.f_of(j)


def test_commutator_probe_separates_specs():
    bad = OmegaSpec(2, 3, (R22.variable(2), R22.variable(1)), ())
    comm = BElement.d(1) * BElement.d(2) - BElement.d(2) * BElement.d(1)
    hits = [
        f
        for f in [R22.one(), R22.variable(1), R22.monomial((1, 1))]
        if not act_on_omega_module(comm, f, bad).is_zero()
    ]
    assert hits
    rng = random.Random(83)
    good = rand_a_module_spec(rng, 2, 3)
    for _ in range(20):
        f = rand_nonzero_laurent(rng, good.ring, n_terms=2, exp_bound=2)
        assert act_on_omega_module(comm, f, good).is_zero()


def test_iso_decide_integer_shift():
    s1 = OmegaSpec(2, 2, (R21.variable(1),), (Fraction(2),))
    s2 = OmegaSpec(2, 2, (R21.variable(1) + 3,), (Fraction(2),))
    iso = iso_decide(s1, s2)
    assert iso is not None and iso.shifts == (3,)
    # the witness map intertwines the generator actions
    f = R21.monomial((2, 1), Fraction(1, 2)) + R21.one()
    for g in [BElement.d(1), BElement.d(2), BElement.e((1, 1)), BElement.e((-1, 0))]:
        assert iso.apply(act_on_omega_module(g, f, s1)) == act_on_omega_module(
            g, iso.apply(f), s2
        )


def test_iso_decide_rejections():
    s1 = OmegaSpec(2, 2, (R21.variable(1),), (Fraction(2),))
    assert iso_decide(s1, OmegaSpec(2, 2, (R21.variable(1),), (Fraction(3),))) is None
    assert (
        iso_decide(s1, OmegaSpec(2, 2, (R21.variable(1) + Fraction(1, 2),), (Fraction(2),)))
        is None
    )
    assert (
        iso_decide(s1, OmegaSpec(2, 2, (R21.variable(1) + R21.monomial((-1, 0)),), (Fraction(2),)))
        is None
    )
    assert iso_decide(s1, OmegaSpec(2, 1, (), (Fraction(1), Fraction(2)))) is None


def test_cyclic_relations_realize_multiplication():
    # d_1 acts as t_1 d/dt_1 + f_1, so d_1 - mult(f_1) leaves the degree
    # derivation exactly when mult(f_1) multiplies by f_1; spec validation
    # already rejects an f_1 in t_2 (test_spec_validation)
    rng = random.Random(89)
    for _ in range(10):
        f = rand_nonzero_laurent(rng, R21, n_terms=2, exp_bound=2, max_var=1)
        g = rand_nonzero_laurent(rng, R21, n_terms=2, exp_bound=2)
        spec = OmegaSpec(2, 2, (f,), (Fraction(3),))
        (j, rel), _ = cyclic_relations(spec)
        assert j == 1
        assert act_on_omega_module(rel, g, spec) == g.degree_derivation(1)


# -- constructive simplicity -------------------------------------------------------------


def test_witness_trivial():
    spec = spec_mu2()
    w = simplicity_witness(spec, R21.one())
    assert w.steps == () and w.result == 1


def test_witness_single_difference_step():
    r10 = LaurentRing(1, 0)
    spec = OmegaSpec(1, 1, (), (Fraction(5),))
    w = simplicity_witness(spec, r10.variable(1))
    assert [s.kind for s in w.steps] == ["difference"]
    assert w.result == -1
    assert w.replay(r10.variable(1)) == r10.constant(-1)


def test_witness_derive_then_difference():
    spec = spec_mu2()
    f = R21.variable(1) * R21.variable(2)
    w = simplicity_witness(spec, f)
    assert [s.kind for s in w.steps] == ["derive", "difference"]
    assert w.result == -1
    assert w.replay(f) == R21.constant(-1)


def test_witness_clears_negative_exponents():
    spec = spec_mu2()
    f = R21.monomial((-2, 0)) + R21.monomial((1, 1))
    w = simplicity_witness(spec, f)
    assert w.steps[0].kind == "clear"
    assert w.result != 0
    assert w.replay(f) == spec.ring.constant(w.result)


def test_witness_random_replay():
    rng = random.Random(97)
    specs = [spec_mu2(), OmegaSpec(2, 1, (), (Fraction(2), Fraction(1, 2)))]
    for spec in specs:
        for _ in range(25):
            f = rand_nonzero_laurent(rng, spec.ring, n_terms=2, exp_bound=2)
            w = simplicity_witness(spec, f)
            assert w.result != 0
            assert w.replay(f) == spec.ring.constant(w.result)


def test_witness_rejects_zero():
    with pytest.raises(ValueError):
        simplicity_witness(spec_mu2(), R21.zero())
