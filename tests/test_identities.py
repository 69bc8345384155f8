"""Checker tests, anchored by a direct formal-series oracle.

The component identity implemented in ``borcherds_residual`` is an index
extraction from a three-variable formal-series identity.  The oracle below
re-derives both sides by literally expanding the three series products into
dictionaries keyed by exponent triples, using its own index bookkeeping, and
the tests require the two routes to agree on a full window before anything
else relies on the component form.
"""

import itertools
import random
from fractions import Fraction

from halflattice.assoc import WeightModule
from halflattice.fock import charge_element, fock_element, vacuum
from halflattice.identities import (
    ActionCache,
    borcherds_residual,
    d_derivative_residual,
    gbinom,
    heisenberg_residual,
    locality_residual,
)
from halflattice.lattice import LatticeConfig
from halflattice.probes import rand_module_element, rand_velement
from halflattice.vertex import adjoint_context, module_operator_context, truncation_bound

CFG1 = LatticeConfig(nu=1, k=1)
CFG2 = LatticeConfig(nu=2, k=1)
WINDOW2 = range(-2, 3)
TRIPLES2 = list(itertools.product(WINDOW2, repeat=3))


def borcherds_holds(u, v, w, ctx, cache):
    return not any(borcherds_residual(u, v, w, m, n, k, ctx, cache) for m, n, k in TRIPLES2)


def locality_failure(u, v, order, ctx, probes, cache):
    """The first ((p, q, probe index), residual) over WINDOW2 that fails, else None."""
    return next(
        (((p, q, idx), res)
         for idx, w in enumerate(probes)
         for p in WINDOW2
         for q in WINDOW2
         for res in [locality_residual(u, v, w, p, q, order, ctx, cache)]
         if res),
        None,
    )


def series_oracle(u, v, w, ctx, window):
    """Expand the three series products over an exponent window.

    Returns (two_sided, iterated) dictionaries mapping exponent triples
    (e0, e1, e2) to states: the commutator-side series and the composed-side
    series.  Keys inside the window are complete.
    """
    cache = ActionCache(ctx)
    zero = ctx.zero
    b_vw = truncation_bound(v, w, ctx)
    b_uw = truncation_bound(u, w, ctx)
    b_uv = truncation_bound(u, v, cache.adj)
    keys = list(itertools.product(range(-window, window + 1), repeat=3))
    two_sided = {key: zero for key in keys}
    iterated = {key: zero for key in keys}

    for r in range(-window - 1, window):
        e0 = -r - 1
        if abs(e0) > window:
            continue
        # first product: operators of u outside those of v
        for i in range(0, b_vw + window + 2):
            coeff = (-1) ** i * gbinom(r, i)
            if not coeff:
                continue
            for e2 in range(-window, window + 1):
                b = i - e2 - 1
                if b > b_vw:
                    continue
                inner = cache.act(v, b, w)
                if inner.is_zero():
                    continue
                for e1 in range(-window, window + 1):
                    a = r - i - e1 - 1
                    outer = cache.act(u, a, inner)
                    if not outer.is_zero():
                        two_sided[(e0, e1, e2)] = two_sided[(e0, e1, e2)] + coeff * outer
        # second product: operators of v outside those of u, opposite sign
        for i in range(0, b_uw + window + 2):
            coeff = (-1 if (r + i) % 2 else 1) * gbinom(r, i)  # r + i may be negative
            if not coeff:
                continue
            for e1 in range(-window, window + 1):
                a = i - e1 - 1
                if a > b_uw:
                    continue
                inner = cache.act(u, a, w)
                if inner.is_zero():
                    continue
                for e2 in range(-window, window + 1):
                    b = r - i - e2 - 1
                    outer = cache.act(v, b, inner)
                    if not outer.is_zero():
                        two_sided[(e0, e1, e2)] = two_sided[(e0, e1, e2)] - coeff * outer

    # composed side: the product of u and v feeds a single field
    for i in range(0, b_uv + window + 2):
        for e0 in range(-window, window + 1):
            a = i - e0 - 1
            if a > b_uv:
                continue
            inner = cache.adjoint_product(u, a, v)
            if inner.is_zero():
                continue
            for e1 in range(-window, window + 1):
                r = e1 + i
                coeff = (-1) ** i * gbinom(r, i)
                if not coeff:
                    continue
                for e2 in range(-window, window + 1):
                    b = -r - e2 - 2
                    outer = cache.act(inner, b, w)
                    if not outer.is_zero():
                        iterated[(e0, e1, e2)] = iterated[(e0, e1, e2)] + coeff * outer
    return two_sided, iterated


def test_series_oracle_validates_component_extraction():
    ctx = adjoint_context(CFG1)
    u = fock_element(1, [(1, 1)])          # d1(-1)
    v = charge_element(1, (1,))
    w = charge_element(1, (-1,))
    window = 2
    two_sided, iterated = series_oracle(u, v, w, ctx, window)
    cache = ActionCache(ctx)
    for (e0, e1, e2), lhs_state in two_sided.items():
        assert lhs_state == iterated[(e0, e1, e2)]
        n, m, k = -e0 - 1, -e1 - 1, -e2 - 1
        assert borcherds_residual(u, v, w, m, n, k, ctx, cache).is_zero()


def test_series_oracle_on_module_target():
    handle = WeightModule(CFG1, [Fraction(1, 2)])
    ctx = module_operator_context(CFG1, CFG1.d_basis(1), handle)
    u = charge_element(1, (1,))
    v = fock_element(1, [(0, 1)])          # c1(-1)
    w = ctx.state_of_label(handle.base_label())
    window = 2
    two_sided, iterated = series_oracle(u, v, w, ctx, window)
    for key, lhs_state in two_sided.items():
        assert lhs_state == iterated[key]


def test_component_identity_trivial_triple():
    ctx = adjoint_context(CFG1)
    one = vacuum(1)
    cache = ActionCache(ctx)
    for m, n, k in TRIPLES2:
        assert borcherds_residual(one, one, one, m, n, k, ctx, cache).is_zero()


def test_component_identity_window_check():
    ctx = adjoint_context(CFG2)
    cache = ActionCache(ctx)
    u = fock_element(2, [(2, 1)])
    v = charge_element(2, (1, 0))
    w = charge_element(2, (0, 1))
    assert borcherds_holds(u, v, w, ctx, cache)


def test_mode_commutator_with_translation_field():
    # [h(x)_n, (e^a field)_m] acts as (h, a) times the shifted coefficient
    ctx = adjoint_context(CFG2)
    cache = ActionCache(ctx)
    h = fock_element(2, [(2, 1)])          # d1(-1)
    ea = charge_element(2, (1, 0))
    rng = random.Random(31)
    for _ in range(6):
        w = rand_velement(rng, CFG2, max_weight=3)
        for n in range(-2, 3):
            for m in range(-2, 3):
                lhs = cache.act(h, n, cache.act(ea, m, w)) - cache.act(
                    ea, m, cache.act(h, n, w)
                )
                assert lhs == cache.act(ea, m + n, w)


def test_locality_orders():
    ctx = adjoint_context(CFG2)
    cache = ActionCache(ctx)
    probes = [vacuum(2), fock_element(2, [(0, 1), (3, 1)], (1, 0))]
    hc = fock_element(2, [(0, 1)])
    hd = fock_element(2, [(2, 1)])
    e1 = charge_element(2, (1, 0))
    e2 = charge_element(2, (0, -1))
    assert locality_failure(hc, hd, 2, ctx, probes, cache) is None
    assert locality_failure(hc, e2, 1, ctx, probes, cache) is None
    assert locality_failure(e1, e2, 0, ctx, probes, cache) is None
    # the commuting pair is local at every order, including zero
    assert locality_failure(hc, hc, 0, ctx, probes, cache) is None


def test_locality_failure_detected_below_true_order():
    ctx = adjoint_context(CFG2)
    probes = [vacuum(2)]
    hc = fock_element(2, [(0, 1)])
    hd = fock_element(2, [(2, 1)])
    fail = locality_failure(hc, hd, 1, ctx, probes, ActionCache(ctx))
    assert fail is not None
    (p, q, idx), residual = fail
    assert p + q == -1 and not residual.is_zero()


def test_locality_residual_is_the_full_untruncated_sum():
    # locality_residual runs the truncated commutator loop of the component
    # identity; the literal sum over every i in 0..k must give the same element
    rng = random.Random(3)
    ctx = adjoint_context(CFG2)
    cache = ActionCache(ctx)
    nonzero = 0
    for _ in range(40):
        u, v, w = (rand_velement(rng, CFG2, n_terms=2, max_weight=2, charge_bound=1)
                   for _ in range(3))
        p, q, order = rng.randint(-2, 1), rng.randint(-2, 1), rng.randint(0, 2)
        full = ctx.zero
        for i in range(order + 1):
            c = (-1) ** i * gbinom(order, i)
            full = full + c * (cache.act(u, p + order - i, cache.act(v, q + i, w))
                               - cache.act(v, q + i, cache.act(u, p + order - i, w)))
        residual = locality_residual(u, v, w, p, q, order, ctx, cache)
        assert residual == full
        nonzero += bool(residual)
    assert nonzero  # some draws are below their locality order


def test_heisenberg_residual_zero_and_nonzero():
    ctx = adjoint_context(CFG2)
    cache = ActionCache(ctx)
    s = fock_element(2, [(2, 1)])
    assert heisenberg_residual(CFG2.c_basis(1), 1, CFG2.d_basis(1), -1, s, ctx, cache).is_zero()
    # dropping the central term would leave m(h,h')s behind
    bad = heisenberg_residual(CFG2.c_basis(1), 2, CFG2.d_basis(1), -2, vacuum(2), ctx, cache)
    assert bad.is_zero()


def test_d_derivative_residual_vanishes():
    ctx = adjoint_context(CFG2)
    cache = ActionCache(ctx)
    rng = random.Random(37)
    for _ in range(5):
        u = rand_velement(rng, CFG2, max_weight=3)
        w = rand_velement(rng, CFG2, max_weight=2)
        for n in range(-2, 3):
            assert d_derivative_residual(u, n, w, ctx, cache).is_zero()


def test_borcherds_in_module_context():
    handle = WeightModule(CFG2, [Fraction(1, 2), 0])
    ctx = module_operator_context(CFG2, CFG2.d_basis(1), handle)
    cache = ActionCache(ctx)
    rng = random.Random(41)
    u = charge_element(2, (1, 0))
    v = charge_element(2, (-1, 0))
    for _ in range(3):
        w = rand_module_element(rng, CFG2, handle, max_weight=2)
        assert borcherds_holds(u, v, w, ctx, cache)


def test_borcherds_adjoint_generators_at_negative_n():
    # (-1)^n at n < 0 must stay an exact integer sign
    ctx = adjoint_context(CFG1)
    cache = ActionCache(ctx)
    gens = [
        fock_element(1, [(0, 1)]),
        fock_element(1, [(1, 1)]),
        charge_element(1, (1,)),
        charge_element(1, (-1,)),
    ]
    for u, v, w in itertools.product(gens, repeat=3):
        assert borcherds_holds(u, v, w, ctx, cache)
