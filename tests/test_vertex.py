import itertools
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

import pytest

from halflattice import combination, vertex
from halflattice.assoc import BElement, OmegaSpec, act_on_module
from halflattice.combination import accumulate, add_scaled
from halflattice.fock import (
    ModuleElement,
    VElement,
    act_on_labels,
    charge_element,
    decode,
    encode,
    fock_element,
    fock_weight,
    fock_word,
    homogeneous_components,
    merge_words,
    vacuum,
)
from halflattice.lattice import LatticeConfig, WeightModule
from halflattice.laurent import LaurentRing
from halflattice.probes import rand_module_element, rand_velement
from halflattice.vertex import (
    Field,
    _annihilation_patterns,
    adjoint_context,
    apply_heisenberg_mode,
    conformal_vector,
    dressing,
    gbinom,
    module_operator_context,
    nth_product,
    truncation_bound,
    y_coefficient,
)

CFG1 = LatticeConfig(nu=1, k=1)
CFG2 = LatticeConfig(nu=2, k=1)
CFG2K = LatticeConfig(nu=2, k=2)


def l_mode(n, s, ctx):
    """L(n) s, the z^(-n-2) coefficient of the conformal field."""
    return y_coefficient(conformal_vector(ctx.cfg), n + 1, s, ctx)


def heis_mode_product(cfg, direction, n, v):
    """Single-mode oracle: the field of h(-1) acting at index n is just h(n)."""
    return apply_heisenberg_mode(cfg.dir_vector(direction), n, v, adjoint_context(cfg))


# -- Heisenberg modes -------------------------------------------------------------


def test_annihilation_on_vacuum():
    assert apply_heisenberg_mode(CFG2.c_basis(1), 3, vacuum(2), adjoint_context(CFG2)).is_zero()


@pytest.mark.parametrize("cfg", [CFG2, CFG2K])
def test_single_contraction(cfg):
    ctx = adjoint_context(cfg)
    state = fock_element(2, [(2, 1)])  # d1(-1)
    got = apply_heisenberg_mode(cfg.c_basis(1), 1, state, ctx)
    assert got == cfg.k * vacuum(2)


@pytest.mark.parametrize("cfg", [CFG2, CFG2K])
def test_zero_mode_on_charge(cfg):
    # d1(0) commutes through the creation operators and reads the charge
    ctx = adjoint_context(cfg)
    e1 = charge_element(2, (1, 0))
    assert apply_heisenberg_mode(cfg.d_basis(1), 0, e1, ctx) == cfg.k * e1
    assert apply_heisenberg_mode(cfg.c_basis(1), 0, e1, ctx).is_zero()


def test_heisenberg_bracket_on_probes():
    rng = random.Random(11)
    ctx = adjoint_context(CFG2K)
    for _ in range(15):
        s = rand_velement(rng, CFG2K, max_weight=4)
        i, j = rng.randrange(4), rng.randrange(4)
        m, n = rng.randint(-4, 4), rng.randint(-4, 4)
        h1, h2 = CFG2K.dir_vector(i), CFG2K.dir_vector(j)
        lhs = apply_heisenberg_mode(h1, m, apply_heisenberg_mode(h2, n, s, ctx), ctx)
        lhs = lhs - apply_heisenberg_mode(h2, n, apply_heisenberg_mode(h1, m, s, ctx), ctx)
        want = m * CFG2K.pairing(h1, h2) * s if m + n == 0 else VElement(2, {})
        assert lhs == want


def test_mixed_direction_vector_mode():
    # h = c1 + 2 d1 splits linearly across directions
    ctx = adjoint_context(CFG2)
    h = CFG2.c_basis(1) + 2 * CFG2.d_basis(1)
    got = apply_heisenberg_mode(h, -2, vacuum(2), ctx)
    want = fock_element(2, [(0, 2)]) + 2 * fock_element(2, [(2, 2)])
    assert got == want


def loop_heisenberg_mode(h, n, s, ctx):
    """The former hand-written body of apply_heisenberg_mode, kept as the oracle
    for the per-direction kernel: one loop per sign of n, pairing through
    LatticeVector arithmetic.  It reads each coded word as its (direction,
    mode) pairs and re-canonicalizes a created word with ``fock_word``."""
    cfg = ctx.cfg
    out: dict = {}
    if n < 0:
        mode = -n
        for (word, label), coeff in s.terms.items():
            pairs = tuple(map(decode, word))
            for i in range(cfg.nu):
                if h.c[i]:
                    accumulate(out, (fock_word(pairs + ((i, mode),), cfg.nu), label), coeff * h.c[i])
                if h.d[i]:
                    accumulate(out, (fock_word(pairs + ((cfg.nu + i, mode),), cfg.nu), label),
                               coeff * h.d[i])
    elif n > 0:
        for (word, label), coeff in s.terms.items():
            for pos, (dir_, mode) in enumerate(map(decode, word)):
                if mode != n:
                    continue
                pair = cfg.pairing(h, cfg.dir_vector(dir_))
                if pair:
                    rest = word[:pos] + word[pos + 1 :]
                    accumulate(out, (rest, label), coeff * n * pair)
    else:
        for (word, label), coeff in s.terms.items():
            scalar = cfg.k * sum(a * b for a, b in zip(h.c, ctx.lam.d))
            if scalar:
                accumulate(out, (word, label), coeff * scalar)
            for j, x in enumerate(h.d, start=1):
                if x:
                    for q, lab in ctx.handle.d_action(j, label):
                        accumulate(out, (word, lab), coeff * x * q)
    return ctx.element(out)


def oracle_contexts(cfg):
    """The adjoint, a weight module at a weight with nonzero (c_i, lam), and,
    at k = 1, a function module."""
    lam = cfg.vector(d=[Fraction(i + 1, cfg.k) for i in range(cfg.nu)])
    weight = WeightModule(cfg, [Fraction(1, 2)] + [0] * (cfg.nu - 1))
    contexts = [adjoint_context(cfg), module_operator_context(lam, weight)]
    if cfg.k == 1:
        ring = LaurentRing(cfg.nu, 1)
        spec = OmegaSpec(cfg.nu, 2, (ring.variable(1),),
                         tuple(Fraction(i + 2) for i in range(cfg.nu - 1)))
        contexts.append(module_operator_context(lam, spec))
    return contexts


def kernel_oracle_targets(cfg, rng):
    """(context, states) over ``oracle_contexts``, four random states each."""
    out = []
    for ctx in oracle_contexts(cfg):
        if isinstance(ctx.zero, VElement):
            states = [rand_velement(rng, cfg, max_weight=4) for _ in range(4)]
        else:
            states = [rand_module_element(rng, ctx.handle, max_weight=4) for _ in range(4)]
        out.append((ctx, states))
    return out


@pytest.mark.parametrize("k", [1, 2, -1])
def test_the_algebra_acts_on_the_labels_under_each_word(k):
    # on module states with Fock factors, each generator is its module's
    # label action under every word, the words untouched, and a combination
    # of generators acts linearly
    cfg = LatticeConfig(2, k)
    rng = random.Random(41 + k)
    for ctx in oracle_contexts(cfg)[1:]:
        module = ctx.handle
        gens = [(BElement.d(j), module.d_action, j) for j in (1, 2)]
        gens += [(BElement.e(c), module.e_action, c) for c in [(1, 0), (0, -1), (-1, 2)]]
        for _ in range(4):
            s = rand_module_element(rng, module, n_terms=3, max_weight=3)
            assert any(word for word, _ in s.terms)
            images = []
            for x, action, arg in gens:
                want: dict = {}
                for (word, label), c in s.terms.items():
                    for q, lab in action(arg, label):
                        accumulate(want, (word, lab), c * q)
                got = act_on_module(x, s)
                assert got == ctx.element(want)
                assert {word for word, _ in got.terms} <= {word for word, _ in s.terms}
                images.append(got)
            x = 2 * gens[0][0] - Fraction(1, 3) * gens[3][0]
            assert act_on_module(x, s) == 2 * images[0] - Fraction(1, 3) * images[3]


@pytest.mark.parametrize("nu", [1, 2])
@pytest.mark.parametrize("k", [1, 2, -1])
def test_mode_kernel_matches_loop_oracle(nu, k):
    cfg = LatticeConfig(nu, k)
    rng = random.Random(100 * nu + k)
    coords = (0, 1, -2, Fraction(1, 2), Fraction(-3, 4))
    vectors = [cfg.vector(c=[rng.choice(coords) for _ in range(nu)],
                          d=[rng.choice(coords) for _ in range(nu)]) for _ in range(4)]
    vectors.append(cfg.vector(c=[Fraction(2, 3)] * nu, d=[Fraction(-5, 7)] * nu))
    nonzero = {-1: 0, 0: 0, 1: 0}
    for ctx, states in kernel_oracle_targets(cfg, rng):
        for h in vectors:
            for s in states:
                for n in range(-3, 4):
                    want = loop_heisenberg_mode(h, n, s, ctx)
                    assert apply_heisenberg_mode(h, n, s, ctx) == want, (h, n, s)
                    nonzero[(n > 0) - (n < 0)] += bool(want)
    assert all(nonzero.values())


@pytest.mark.parametrize("nu", [1, 2])
def test_a_mode_is_the_sum_of_its_direction_modes(nu):
    # The heisenberg suite applies only unit vectors.  A vector with several
    # nonzero coordinates, none of them 1, acts as the sum over its support
    # of each coordinate times its direction's mode, in the adjoint and in
    # both module contexts, at every sign of n.
    cfg = LatticeConfig(nu, 1)
    h = cfg.vector(c=[Fraction(2, 3), -2][:nu], d=[3, Fraction(-1, 2)][:nu])
    nonzero = Counter()
    targets = kernel_oracle_targets(cfg, random.Random(70 + nu))
    for place, (ctx, states) in enumerate(targets):
        for s in states:
            for n in range(-2, 3):
                want = ctx.zero
                for i, x in h.support:
                    want = want + x * apply_heisenberg_mode(cfg.dir_vector(i), n, s, ctx)
                got = apply_heisenberg_mode(h, n, s, ctx)
                assert got == want, (n, s)
                nonzero[place, (n > 0) - (n < 0)] += bool(got)
    assert len(nonzero) == 9 and all(nonzero.values()), nonzero


# -- the coefficient engine ---------------------------------------------------------


def test_identity_field():
    ctx = adjoint_context(CFG2)
    w = fock_element(2, [(0, 2), (3, 1)], (1, -1))
    for n in range(-4, 4):
        got = y_coefficient(vacuum(2), n, w, ctx)
        assert got == (w if n == -1 else VElement(2, {}))


def test_creation_axiom():
    ctx = adjoint_context(CFG2)
    rng = random.Random(3)
    for _ in range(10):
        u = rand_velement(rng, CFG2, max_weight=4)
        assert y_coefficient(u, -1, vacuum(2), ctx) == u
        for n in range(0, 4):
            assert y_coefficient(u, n, vacuum(2), ctx).is_zero()


def test_truncation_bound_is_honest():
    ctx = adjoint_context(CFG2)
    rng = random.Random(5)
    for _ in range(10):
        u = rand_velement(rng, CFG2, max_weight=3)
        w = rand_velement(rng, CFG2, max_weight=3)
        bound = truncation_bound(u, w, ctx)
        for n in range(bound + 1, bound + 4):
            assert y_coefficient(u, n, w, ctx).is_zero()


def test_heisenberg_state_product_matches_mode_oracle():
    # (c1(-1))_n w computed by the engine equals the bare mode action
    rng = random.Random(7)
    u = fock_element(2, [(0, 1)])
    for _ in range(8):
        w = rand_velement(rng, CFG2, max_weight=3)
        for n in range(-3, 4):
            assert nth_product(CFG2, u, n, w) == heis_mode_product(CFG2, 0, n, w)


@pytest.mark.parametrize("cfg", [CFG2, CFG2K])
def test_contraction_product_example(cfg):
    # frozen from the mode oracle: (c1(-1))_1 (d1(-1)) = k
    u = fock_element(2, [(0, 1)])
    v = fock_element(2, [(2, 1)])
    oracle = heis_mode_product(cfg, 0, 1, v)
    assert oracle == cfg.k * vacuum(2)
    assert nth_product(cfg, u, 1, v) == oracle


def test_zero_mode_product_example():
    # (d1(-1))_0 e^{c1} = k e^{c1}
    for cfg in (CFG2, CFG2K):
        u = fock_element(2, [(2, 1)])
        e1 = charge_element(2, (1, 0))
        assert nth_product(cfg, u, 0, e1) == cfg.k * e1


def test_charge_products():
    e1, e2 = charge_element(2, (1, 0)), charge_element(2, (0, 1))
    assert nth_product(CFG2, e1, -1, e2) == charge_element(2, (1, 1))
    assert nth_product(CFG2, e1, -2, e2) == fock_element(2, [(0, 1)], (1, 1))
    for m in range(0, 4):
        assert nth_product(CFG2, e1, m, e2).is_zero()


def transport_charge(v, target):
    """Replace every charge by the target; the Fock parts, coded words
    already canonical, ride along through the trusted path."""
    return v._make({(word, tuple(target)): c for (word, _), c in v.terms.items()})


def test_charge_ladder_matches_translation_derivative():
    # (e^a)_m e^b for m < 0 equals the (-m-1)-fold derivative of the
    # translation field, transported to the combined charge
    ctx = adjoint_context(CFG2)
    e1, e2 = charge_element(2, (1, 0)), charge_element(2, (0, 1))
    for m in range(-4, 0):
        n_der = -m - 1
        expected = e1
        for _ in range(n_der):
            expected = l_mode(-1, expected, ctx)
        expected = Fraction(1, factorial(n_der)) * transport_charge(expected, (1, 1))
        assert nth_product(CFG2, e1, m, e2) == expected


# -- module targets ----------------------------------------------------------------


def module_ctx(cfg, lam=None):
    handle = WeightModule(cfg, [0] * cfg.nu)
    lam = lam if lam is not None else cfg.d_basis(1)
    return module_operator_context(lam, handle), handle


def test_charge_action_on_module_state():
    # with (c1, lam) = 1 the only nonvanishing coefficient below zero is at -2
    ctx, handle = module_ctx(CFG2)
    w0 = ctx.state_of_label(handle.base_label())
    e1 = charge_element(2, (1, 0))
    shifted = ctx.state_of_label((Fraction(1), Fraction(0)))
    assert y_coefficient(e1, -2, w0, ctx) == shifted
    assert y_coefficient(e1, -1, w0, ctx).is_zero()
    assert y_coefficient(e1, 0, w0, ctx).is_zero()


def test_target_type_checks():
    # A field and a Heisenberg mode reject a target of the wrong type through
    # the context's one check, the combination core's ``_check`` on its zero
    # state.  Without it, d1(0) would read the charge (1, 0) of an algebra
    # state as a function-module label, and a module's base state in the
    # adjoint as a half-integral charge.
    ctx, handle = module_ctx(CFG2)
    adj, _, omega = oracle_contexts(CFG2)
    w0 = ctx.state_of_label(handle.base_label())
    e1 = charge_element(2, (1, 0))
    d1 = CFG2.d_basis(1)
    charged = fock_element(2, [(2, 1)], (1, 0))
    for target, wrong in [(adj, w0), (ctx, vacuum(2)), (omega, charged)]:
        for call in (lambda: y_coefficient(e1, -1, wrong, target),
                     lambda: apply_heisenberg_mode(d1, 0, wrong, target)):
            with pytest.raises(TypeError, match="cannot combine") as info:
                call()
            assert info.traceback[-1].name == "_check"
    with pytest.raises(TypeError):
        y_coefficient(w0, -1, w0, ctx)


@pytest.mark.parametrize("which", [0, 1, 2], ids=["adjoint", "weight", "omega"])
def test_a_context_refuses_what_is_not_its_own(which):
    # Each misuse below ran silently while a module state had no shape and a
    # context checked only a target's class: an acting state of another
    # rank, whose d1 read as d2 and gave 0; a target of another rank or
    # module; a label the module does not have; and the sum of states of two
    # modules.  Each now raises, and the same calls at the right rank,
    # module and label hold.
    contexts = oracle_contexts(CFG2)
    ctx = contexts[which]
    other = [adjoint_context(LatticeConfig(3, 1)), contexts[2], contexts[1]][which]
    base = ctx.state_of_label(ctx.handle.base_label())
    foreign = other.state_of_label(other.handle.base_label())
    w = apply_heisenberg_mode(CFG2.c_basis(1), -1, base, ctx)
    d1 = fock_element(2, [(2, 1)])
    assert Field(d1, w, ctx).coefficient(1) == CFG2.k * base  # d1(1) c1(-1) = k
    bad_label = [(Fraction(1, 2), 0), (0, 0), (0, -1)][which]
    calls = [lambda: Field(fock_element(3, [(3, 1)]), w, ctx),
             lambda: Field(d1, foreign, ctx),
             lambda: apply_heisenberg_mode(CFG2.d_basis(1), 0, foreign, ctx),
             lambda: ctx.state_of_label(bad_label)]
    if which:  # two ranks of the algebra already refused to add
        calls.append(lambda: base + foreign)
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_module_charge_power_validation():
    handle = WeightModule(CFG2, [0, 0])
    with pytest.raises(ValueError):
        module_operator_context(CFG2.vector(d=[Fraction(1, 2), 0]), handle)
    cfg = LatticeConfig(2, 2)
    handle = WeightModule(cfg, [0, 0])
    ctx = module_operator_context(cfg.vector(d=[Fraction(1, 2), 0]), handle)
    assert ctx.charge_power((1, 0)) == 1


def test_a_context_takes_its_lattice_from_its_module():
    # the module is the one source of k and the rank: d1(0) on the point
    # (1, 0) of a k = 2 module scales it by the module's k, which is the
    # context's, and a weight of another rank than the module's is refused
    handle = WeightModule(LatticeConfig(2, 2), [1, 0])
    ctx = module_operator_context(CFG2.zero(), handle)
    assert ctx.cfg is handle.cfg and ctx.cfg.k == 2
    w = ctx.state_of_label((1, 0))
    assert apply_heisenberg_mode(ctx.cfg.d_basis(1), 0, w, ctx) == 2 * w
    with pytest.raises(ValueError, match="rank"):
        module_operator_context(LatticeConfig(3, 2).zero(), handle)


def test_heisenberg_bracket_in_module():
    ctx, handle = module_ctx(CFG2)
    rng = random.Random(13)
    labels = handle.probe_labels()
    for _ in range(10):
        s = ModuleElement(handle, {(((0, 1), (3, 1))[: rng.randint(0, 2)], rng.choice(labels)): Fraction(1)})
        i, j = rng.randrange(4), rng.randrange(4)
        m, n = rng.randint(-3, 3), rng.randint(-3, 3)
        h1, h2 = CFG2.dir_vector(i), CFG2.dir_vector(j)
        lhs = apply_heisenberg_mode(h1, m, apply_heisenberg_mode(h2, n, s, ctx), ctx)
        lhs = lhs - apply_heisenberg_mode(h2, n, apply_heisenberg_mode(h1, m, s, ctx), ctx)
        want = m * CFG2.pairing(h1, h2) * s if m + n == 0 else ctx.zero
        assert lhs == want


# -- the assignment oracle ----------------------------------------------------------


def field_assignments(fields, budget: int, e_target: int, u_weight: int):
    """Mode assignments (j_1..j_s) of the fields with their derivative-field
    coefficients; positive modes may not overdraw the budget, and the
    creation level of the dressing must be able to come out nonnegative."""
    s = len(fields)
    floor_total = -e_target - budget - u_weight  # required sum of modes

    def rec(i: int, partial: int, ann_left: int, coeff):
        if i == s:
            yield (), coeff
            return
        lo = floor_total - partial - (s - 1 - i) * budget
        for j in range(lo, ann_left + 1):
            c = gbinom(-j - 1, fields[i][1] - 1)
            if c:
                for rest, rc in rec(i + 1, partial + j, ann_left - max(j, 0), coeff * c):
                    yield (j,) + rest, rc

    yield from rec(0, 0, budget, 1)


def assignment_y_coefficient(u, n, w, ctx):
    """The former engine of y_coefficient, kept as the oracle for its two
    halves: one pass per full field-mode assignment, applying right to left
    the field annihilators, the annihilation dressing at level a, the zero
    modes, the charge shift, the creation dressing at the level that balances
    z and the field creations, with every field mode taken from
    ``apply_heisenberg_mode``."""
    cfg = ctx.cfg
    units = [cfg.dir_vector(i) for i in range(cfg.ndirs)]

    def mode(dir_, j, s):
        return apply_heisenberg_mode(units[dir_], j, s, ctx)

    out = {}
    for (ufock, alpha), cu in u.terms.items():
        fields = list(map(decode, ufock))
        e_target = -n - 1 - ctx.charge_power(alpha)
        charged = any(alpha)
        for (wfock, label), cw in w.terms.items():
            budget = sum(m for _, m in map(decode, wfock))
            u_weight = sum(m for _, m in fields)
            for js, coeff in field_assignments(fields, budget, e_target, u_weight):
                p_low = e_target + sum(j + n_i for j, (_, n_i) in zip(js, fields))
                a_max = budget - sum(j for j in js if j > 0) if charged else 0
                s = ctx.element({(wfock, label): cu * cw * coeff})
                for (dir_, _), j in zip(fields, js):
                    if j > 0:
                        s = mode(dir_, j, s)
                for a in range(max(0, -p_low), a_max + 1):
                    mid = ctx.element(dressing(cfg, s.terms, alpha, a, -1))
                    for (dir_, _), j in zip(fields, js):
                        if j == 0:
                            mid = mode(dir_, 0, mid)
                    shifted = {}
                    for (word, lab), c in mid.terms.items():
                        moves = ctx.handle.e_action(alpha, lab) if charged else [(1, lab)]
                        for q, lab2 in moves:
                            accumulate(shifted, (word, lab2), c * q)
                    created = ctx.element(dressing(cfg, shifted, alpha, p_low + a, 1))
                    for (dir_, _), j in zip(fields, js):
                        if j < 0:
                            created = mode(dir_, j, created)
                    for key, c in created.terms.items():
                        accumulate(out, key, c)
    return ctx.element(out)


def oracle_actors(nu):
    """Actors with repeated factors and field modes 2 and 3, charged and not."""
    c1, d1, dn = 0, nu, 2 * nu - 1
    charge = (1,) + (-1,) * (nu - 1)
    return [
        fock_element(nu, [(c1, 2), (c1, 2)], charge)
        + fock_element(nu, [(dn, 3), (d1, 1)], None, Fraction(1, 2)),
        fock_element(nu, [(d1, 3), (c1, 1)], (-1,) + (0,) * (nu - 1), Fraction(-2, 3)),
        fock_element(nu, [(dn, 2), (dn, 2)]),
        charge_element(nu, (2,) + (1,) * (nu - 1), Fraction(3, 2)),
    ]


def oracle_targets(ctx):
    """Two multi-term targets on the context's labels.  The actors can
    annihilate every factor of the heaviest terms, so that near the
    truncation bound the creating fields reach modes m > n_i."""
    nu = ctx.cfg.nu
    c1, cn, d1, dn = 0, nu - 1, nu, 2 * nu - 1
    words = [(), ((d1, 2), (dn, 1)), ((cn, 1), (c1, 1), (d1, 1)), ((dn, 1), (c1, 1))]
    if isinstance(ctx.zero, VElement):
        labels = [(0,) * nu, (-1,) + (1,) * (nu - 1), (1,) * nu]
    else:
        labels = ctx.handle.probe_labels()[:3]
    out = []
    for start in (0, 1):
        terms = {(fock_word(words[start + i], nu), labels[(start + i) % len(labels)]):
                 Fraction(2 * i - 3, i + 1) for i in range(3)}
        out.append(ctx.element(terms))
    return out


@pytest.mark.parametrize("nu", [1, 2])
@pytest.mark.parametrize("k", [1, 2, -1])
def test_y_coefficient_matches_assignment_oracle(nu, k):
    # one prepared field per (u, w) answers its whole window and keeps each
    # coefficient it computes; the oracle enumerates unpruned assignments, so
    # it also checks the contraction pruning of the annihilation patterns.
    # The window comes from the weight formula, not from the field, so the
    # asks in (top, bound], which the field answers without computing, are
    # checked against the oracle too.
    cfg = LatticeConfig(nu, k)
    nonzero = past_top = 0
    for ctx in oracle_contexts(cfg):
        for w in oracle_targets(ctx):
            assert len(w) > 1
            for u in oracle_actors(nu):
                field = Field(u, w, ctx)
                bound = truncation_bound(u, w, ctx)
                assert field.top <= bound, (u, w)
                window = range(bound - 4, bound + 2)
                wants = {n: assignment_y_coefficient(u, n, w, ctx) for n in window}
                for n in window:
                    assert field.coefficient(n) == wants[n], (u, n, w)
                    assert field.coefficient(n) is field.coefficient(n)
                for n, want in wants.items():
                    assert y_coefficient(u, n, w, ctx) == want, (u, n, w)
                    nonzero += bool(want)
                    past_top += field.top < n <= bound
    assert nonzero and past_top


@lru_cache(maxsize=None)
def rational_creation_half(fields, alpha, level):
    """The creation half as a rational {word: coefficient} dict: with no
    creating field h_level of the power sums alpha(-m) by Newton's identity,
    else the sum over the first field's mode m of C(m-1, n_1-1) times the
    rest at level - m.  The fields are factor codes, as ``Field`` keeps them."""
    out = {}
    if not fields:
        if level == 0:
            return {(): 1}
        for m in range(1, level + 1):
            for word, c in rational_creation_half((), alpha, level - m).items():
                for i, a_i in enumerate(alpha):
                    if a_i:
                        accumulate(out, merge_words(word, (encode(i, m),)), Fraction(c * a_i, level))
        return out
    (dir_, n_i), rest = decode(fields[0]), fields[1:]
    for m in range(n_i, level - sum(m for _, m in map(decode, rest)) + 1):
        for word, q in rational_creation_half(rest, alpha, level - m).items():
            accumulate(out, merge_words(word, (encode(dir_, m),)), comb(m - 1, n_i - 1) * q)
    return out


def unit_mode(ctx, states, dir_, j):
    """The mode j of one direction on a terms dict, through the public
    ``apply_heisenberg_mode`` on that direction's unit vector."""
    return apply_heisenberg_mode(ctx.cfg.dir_vector(dir_), j, ctx.element(states), ctx).terms


def rational_field(u, w, ctx, window):
    """Oracle: the field's coefficients summed as rationals, n -> terms dict.

    The same rows, groups and key order as ``Field``, with every value an
    int or a ``Fraction`` from the start: the term-pair scalar enters each
    row's states, each group sums rationals, and the creation halves are
    rational closed forms."""
    sums = {}
    for (ufock, alpha), cu in u.terms.items():
        top = fock_weight(ufock) - 1 - ctx.charge_power(alpha)
        charged = any(alpha)
        for (wfock, label), cw in w.terms.items():
            for js, coeff in _annihilation_patterns(ufock, wfock, ctx.pairings):
                states = {(wfock, label): cu * cw * coeff}
                for (dir_, _), j in zip(map(decode, ufock), js):
                    if j and states:
                        states = unit_mode(ctx, states, dir_, j)
                if not states:
                    continue
                creating = tuple(f for f, j in zip(ufock, js) if j is None)
                drawn = sum(j for j in js if j)
                for a in range((fock_weight(wfock) - drawn if charged else 0) + 1):
                    mid = dressing(ctx.cfg, states, alpha, a, -1)
                    for (dir_, _), j in zip(map(decode, ufock), js):
                        if j == 0 and mid:
                            mid = unit_mode(ctx, mid, dir_, 0)
                    if mid and charged:
                        mid = act_on_labels({}, 1, mid, ctx.handle.e_action, alpha)
                    if mid:
                        into = sums.setdefault((creating, alpha, top + drawn + a), {})
                        for key, c in mid.items():
                            accumulate(into, key, c)
    out = {}
    for n in window:
        terms = out[n] = {}
        for (creating, alpha, shift), mid in sums.items():
            if not mid or shift - n < sum(m for _, m in map(decode, creating)):
                continue
            half = rational_creation_half(creating, alpha, shift - n)
            for (word, lab), c in mid.items():
                for created, q in half.items():
                    accumulate(terms, (merge_words(word, created), lab), c * q)
    return out


def test_integer_field_matches_the_rational_loop(monkeypatch):
    # u scaled by 1/2 and w by 1/3 make every term-pair scalar a proper
    # fraction, with denominators that differ between term pairs; the weight
    # module's half-integer base point brings fractions in through d_action
    # and the function module's shift constants 1/2 and 2/3 through
    # e_action.  So a group's denominator is raised while it already holds
    # numerators, in setup and again in integer_form, and the recording
    # below sees both: setup raises through combination.add_scaled,
    # integer_form calls the rescale itself.  The window comes from the
    # weight formula, so it also asks past the field's top.
    rescale, rescaled = combination.rescale, Counter()

    def recording(data, den, d):
        if data and den % d:
            caller = sys._getframe(1)
            if caller.f_code is add_scaled.__code__:
                caller = caller.f_back
            rescaled[caller.f_code] += 1
        return rescale(data, den, d)

    monkeypatch.setattr(combination, "rescale", recording)
    monkeypatch.setattr(vertex, "rescale", recording)
    cfg = CFG2
    lam = cfg.vector(d=[1, 2])
    spec = OmegaSpec(2, 1, (), (Fraction(1, 2), Fraction(2, 3)))
    omega = module_operator_context(lam, spec)
    contexts = oracle_contexts(cfg)[:2] + [omega]
    proper = mixed = past_top = 0
    for ctx in contexts:
        for w in oracle_targets(ctx):
            w = Fraction(1, 3) * w
            for u in oracle_actors(2):
                u = Fraction(1, 2) * u
                field = Field(u, w, ctx)
                bound = truncation_bound(u, w, ctx)
                assert field.top <= bound, (u, w)
                window = range(bound - 4, bound + 2)
                wants = rational_field(u, w, ctx, window)
                for n in window:
                    want = wants[n]
                    d = lcm(*(Fraction(x).denominator for x in want.values()))
                    nums = [(t, int(x * d)) for t, x in want.items()]
                    got_nums, got_d = field.integer_form(n)
                    assert (list(got_nums.items()), got_d) == (nums, d), (u, n, w)
                    got = field.coefficient(n).terms
                    assert list(got.items()) == list(want.items()), (u, n, w)
                    assert all(type(x) is int or x.denominator > 1 for x in got.values())
                    proper += d > 1
                    mixed += d > 1 and int in map(type, got.values())
                    past_top += field.top < n <= bound
    assert proper and mixed and past_top
    assert rescaled[Field.__init__.__code__] and rescaled[Field.integer_form.__code__]


def unpruned_patterns(fields, budget: int):
    """The annihilation patterns without contraction pruning: every field is
    offered None and each mode 0..budget, the positive modes summing to at
    most budget.  The fields are factor codes."""
    if not fields:
        yield (), 1
        return
    n_i = decode(fields[0])[1]
    for j in (None, *range(budget + 1)):
        c = 1 if j is None else gbinom(-j - 1, n_i - 1)
        for rest, rc in unpruned_patterns(fields[1:], budget - (j or 0)):
            yield (j, *rest), c * rc


@pytest.mark.parametrize("nu", [1, 2])
@pytest.mark.parametrize("k", [1, -1])
def test_pruned_patterns_drop_only_annihilated_states(nu, k):
    # Every dropped pattern, with all of its modes applied, zero modes
    # included, leaves the empty state: a positive mode finds no partner
    # factor, or a c-direction zero mode multiplies by (c_i, lam) = 0.  The
    # contexts add a weight module at lam = d_1, where (c_1, lam) = k and
    # every other pairing is zero, so at nu = 2 one context both keeps and
    # drops c-direction zero modes; the adjoint drops them all.  The modes
    # commute (contractions read words, zero modes scalars and labels), so
    # their order here does not matter.
    cfg = LatticeConfig(nu, k)
    units = [cfg.dir_vector(i) for i in range(cfg.ndirs)]
    contexts = oracle_contexts(cfg) + [
        module_operator_context(cfg.vector(d=[1] + [0] * (nu - 1)), WeightModule(cfg))]
    kept = dropped = 0
    czero = Counter()  # (some pairing nonzero, kept) -> patterns with a c zero mode
    for ctx in contexts:
        live = any(ctx.pairings)
        for w in oracle_targets(ctx):
            for u in oracle_actors(nu):
                for ufock, _ in u.terms:
                    dirs = [dir_ for dir_, _ in map(decode, ufock)]
                    for wfock, label in w.terms:
                        pruned = dict(_annihilation_patterns(ufock, wfock, ctx.pairings))
                        full = dict(unpruned_patterns(ufock, fock_weight(wfock)))
                        assert pruned.items() <= full.items()
                        for js in full:
                            if any(j == 0 and dir_ < nu for dir_, j in zip(dirs, js)):
                                czero[live, js in pruned] += 1
                        for js in full.keys() - pruned.keys():
                            s = ctx.element({(wfock, label): 1})
                            for dir_, j in zip(dirs, js):
                                if j is not None:
                                    s = apply_heisenberg_mode(units[dir_], j, s, ctx)
                            assert s.is_zero(), (ufock, wfock, js)
                        kept += len(pruned)
                        dropped += len(full) - len(pruned)
    assert kept and dropped
    assert czero[True, True] and czero[False, False] and not czero[False, True]
    if nu > 1:
        assert czero[True, False]


# -- conformal structure ---------------------------------------------------------------


def test_conformal_vector_weight():
    for nu in (1, 2, 3):
        cfg = LatticeConfig(nu, 1)
        assert list(homogeneous_components(conformal_vector(cfg))) == [2]


def test_l0_reads_the_weight():
    ctx = adjoint_context(CFG2)
    rng = random.Random(17)
    for _ in range(8):
        u = rand_velement(rng, CFG2, n_terms=1, max_weight=5)
        (wt,) = homogeneous_components(u)
        assert l_mode(0, u, ctx) == wt * u


def test_l_regular_on_degree_zero_generator():
    ctx = adjoint_context(CFG2)
    for n in range(-1, 4):
        assert l_mode(n, vacuum(2), ctx).is_zero()


def test_l_minus_one_on_charge():
    ctx = adjoint_context(CFG2)
    e1 = charge_element(2, (1, 0))
    assert l_mode(-1, e1, ctx) == fock_element(2, [(0, 1)], (1, 0))


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_central_term_on_vacuum(nu):
    cfg = LatticeConfig(nu, 1)
    ctx = adjoint_context(cfg)
    got = l_mode(2, l_mode(-2, vacuum(nu), ctx), ctx)
    assert got == nu * vacuum(nu)


def test_virasoro_bracket_spot_checks():
    ctx = adjoint_context(CFG2)
    rng = random.Random(23)
    for _ in range(6):
        s = rand_velement(rng, CFG2, max_weight=3)
        m, n = rng.randint(-4, 4), rng.randint(-4, 4)
        lhs = l_mode(m, l_mode(n, s, ctx), ctx) - l_mode(
            n, l_mode(m, s, ctx), ctx
        )
        rhs = (m - n) * l_mode(m + n, s, ctx)
        if m + n == 0:
            rhs = rhs + Fraction((m**3 - m) * 2, 6) * s
        assert lhs == rhs


def test_translation_derivative_property():
    # the coefficient of the derivative field drops the index and scales by -n
    ctx = adjoint_context(CFG2)
    rng = random.Random(29)
    for _ in range(6):
        u = rand_velement(rng, CFG2, max_weight=3)
        w = rand_velement(rng, CFG2, max_weight=3)
        du = l_mode(-1, u, ctx)
        for n in range(-3, 4):
            assert y_coefficient(du, n, w, ctx) == -n * y_coefficient(u, n - 1, w, ctx)


@pytest.mark.parametrize("nu, k", [(1, 1), (2, 1), (2, 2), (2, -1), (1, 3)])
def test_skew_symmetry(nu, k):
    # u_n v = sum_{i>=0} (-1)^(n+i+1) D^(i) v_(n+i) u with D x = x_(-2) 1 and
    # D^(i) = D^i / i!, the sum cut at the top of v's field on u: it swaps the
    # acting and the target state, which no suite does
    cfg = LatticeConfig(nu=nu, k=k)
    ctx = adjoint_context(cfg)
    one = vacuum(nu)
    rng = random.Random(31 + 10 * nu + k)
    nonzero = 0
    for _ in range(12):
        u = rand_velement(rng, cfg, max_weight=2)
        v = rand_velement(rng, cfg, max_weight=2)
        field = Field(v, u, ctx)
        for n in range(-3, 3):
            rhs = ctx.zero
            for i in range(field.top - n + 1):
                x = field.coefficient(n + i)
                for _ in range(i):
                    x = nth_product(cfg, x, -2, one)
                sign = 1 if (n + i + 1) % 2 == 0 else -1
                rhs = rhs + x * Fraction(sign, factorial(i))
            lhs = nth_product(cfg, u, n, v)
            assert lhs == rhs, (u, n, v)
            nonzero += not lhs.is_zero()
    assert nonzero > 0


# -- the exponential dressing --------------------------------------------------------


def partition_sum_dressing(cfg, states, alpha, p, side):
    """Reference expansion of the dressing: level p summed over the partitions of p.

    Each partition (part, mult) contributes prod (side/part)^mult / mult! times
    the modes alpha(-side*part) applied one at a time.
    """

    def partitions(n, largest):
        if n == 0:
            yield ()
            return
        for part in range(min(n, largest), 0, -1):
            for mult in range(n // part, 0, -1):
                for rest in partitions(n - part * mult, part - 1):
                    yield ((part, mult),) + rest

    out = {}
    for partition in partitions(p, p):
        coeff = Fraction(1)
        for part, mult in partition:
            coeff *= Fraction(side, part) ** mult / factorial(mult)
        cur = {key: coeff * c for key, c in states.items()}
        for part, mult in partition:
            for _ in range(mult):
                new = {}
                for (word, label), c in cur.items():
                    pairs = tuple(map(decode, word))
                    if side > 0:
                        for i, m_i in enumerate(alpha):
                            if m_i:
                                accumulate(new, (fock_word(pairs + ((i, part),), cfg.nu), label), c * m_i)
                    else:
                        for pos, (d2, m2) in enumerate(pairs):
                            m_i = alpha[d2 - cfg.nu] if m2 == part and d2 >= cfg.nu else 0
                            if m_i:
                                rest = word[:pos] + word[pos + 1 :]
                                accumulate(new, (rest, label), c * part * cfg.k * m_i)
                cur = new
        for key, c in cur.items():
            accumulate(out, key, c)
    return out


def dressing_states(nu):
    """States over words with repeated c- and d-factors, with charge and module labels."""
    c1, d1, dn = 0, nu, 2 * nu - 1
    words = [
        [],
        [(d1, 1), (d1, 1), (c1, 1)],
        [(d1, 2), (dn, 1), (d1, 1), (c1, 2), (c1, 2)],
        [(dn, 3), (d1, 2), (d1, 2), (dn, 1), (d1, 1), (c1, 1), (c1, 1)],
    ]
    charge = (1,) + (-1,) * (nu - 1)
    v = VElement(nu, {(tuple(f), charge if i % 2 else (0,) * nu): Fraction(i + 1, 2)
                      for i, f in enumerate(words)})
    label = (Fraction(1, 2),) * nu
    m = ModuleElement(WeightModule(LatticeConfig(nu, 1), label),
                      {(tuple(words[2]), label): Fraction(-3), (tuple(words[3]), label): Fraction(2)})
    return [v.terms, m.terms]


@pytest.mark.parametrize("nu,k", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_dressing_matches_partition_sum(nu, k):
    cfg = LatticeConfig(nu=nu, k=k)
    nonzero = {1: 0, -1: 0}
    for states in dressing_states(nu):
        for alpha in itertools.product(range(-2, 3), repeat=nu):
            for p in range(6):
                for side in (1, -1):
                    expected = partition_sum_dressing(cfg, states, alpha, p, side)
                    assert dressing(cfg, states, alpha, p, side) == expected, (alpha, p, side)
                    nonzero[side] += p > 0 and bool(expected)
    assert nonzero[1] and nonzero[-1]
