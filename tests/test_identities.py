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
from math import comb

import pytest

from halflattice import identities
from halflattice.combination import accumulate, divided
from halflattice.fock import (
    VElement,
    charge_element,
    fock_element,
    fock_weight,
    homogeneous_components,
    vacuum,
)
from halflattice.identities import (
    ActionCache,
    borcherds_residual,
    d_derivative_residual,
    gbinom,
    heisenberg_residual,
    locality_residual,
    virasoro_residual,
)
from halflattice.lattice import LatticeConfig, WeightModule
from halflattice.probes import rand_module_element, rand_velement
from halflattice.suites import _faces, _module_contexts
from halflattice.vertex import (
    Field,
    OperatorContext,
    adjoint_context,
    apply_heisenberg_mode,
    conformal_vector,
    module_operator_context,
    nth_product,
    truncation_bound,
    y_coefficient,
)
from halflattice.zhu import circ_general, zero_mode, zhu_star

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
    ctx = module_operator_context(CFG1.d_basis(1), handle)
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
        residual = locality_residual(u, v, w, p, q, order, ctx, cache)
        assert residual == untruncated_locality(u, v, w, p, q, order, ctx, cache)
        nonzero += bool(residual)
    assert nonzero  # some draws are below their locality order


def untruncated_locality(u, v, w, p, q, order, ctx, cache):
    """Oracle: the locality difference as the literal sum over every i in 0..order."""
    full = ctx.zero
    for i in range(order + 1):
        c = (-1) ** i * gbinom(order, i)
        full = full + c * (cache.act(u, p + order - i, cache.act(v, q + i, w))
                           - cache.act(v, q + i, cache.act(u, p + order - i, w)))
    return full


def test_heisenberg_residual_zero_and_nonzero():
    ctx = adjoint_context(CFG2)
    cache = ActionCache(ctx)
    s = fock_element(2, [(2, 1)])
    c1, d1, vac = CFG2.c_basis(1), CFG2.d_basis(1), vacuum(2)
    assert heisenberg_residual(c1, 1, d1, -1, s, ctx, cache).is_zero()
    # on the vacuum the bare bracket [c1(2), d1(-2)] is 2 (c1, d1) times the
    # vacuum, which is nonzero; the residual subtracts that central term
    bare = (apply_heisenberg_mode(c1, 2, apply_heisenberg_mode(d1, -2, vac, ctx), ctx)
            - apply_heisenberg_mode(d1, -2, apply_heisenberg_mode(c1, 2, vac, ctx), ctx))
    assert bare == 2 * CFG2.pairing(c1, d1) * vac and not bare.is_zero()
    assert heisenberg_residual(c1, 2, d1, -2, vac, ctx, cache).is_zero()


def bracket_oracle(h1, m, h2, n, s, ctx):
    """Oracle: [h1(m), h2(n)] s minus m (h1, h2) delta_{m+n,0} s, composed as
    elements from four public ``apply_heisenberg_mode`` calls."""
    got = apply_heisenberg_mode(h1, m, apply_heisenberg_mode(h2, n, s, ctx), ctx)
    got = got - apply_heisenberg_mode(h2, n, apply_heisenberg_mode(h1, m, s, ctx), ctx)
    if m + n == 0:
        got = got - m * ctx.cfg.pairing(h1, h2) * s
    return got


def heisenberg_contexts(rng):
    """(context, two probe states) in the adjoint, weight and omega contexts."""
    adjoint = adjoint_context(CFG2)
    out = [(adjoint, [rand_velement(rng, CFG2, n_terms=2, max_weight=2) for _ in range(2)])]
    for _, mctx in _module_contexts(CFG2):
        out.append((mctx, [rand_module_element(rng, mctx.handle, max_weight=2) for _ in range(2)]))
    return out


def test_heisenberg_residual_matches_the_element_path(monkeypatch):
    # Mixed, non-unit vectors scale each direction's mode by something other
    # than +-1, which the suite's unit directions never do; (a, b) = k/2.
    # The second pass raises every central coefficient by one, in both
    # routes, so that each m + n = 0 residual must be the same nonzero -m s.
    a = 2 * CFG2.c_basis(1) - Fraction(1, 2) * CFG2.d_basis(2)
    b = CFG2.d_basis(1) + 3 * CFG2.c_basis(2)
    sweep = list(itertools.product([(a, b), (b, a), (a, a)], WINDOW2, WINDOW2))
    pairing, nonzero = type(CFG2).pairing, 0
    for wrong in (0, 1):
        monkeypatch.setattr(type(CFG2), "pairing", lambda cfg, u, v: pairing(cfg, u, v) + wrong)
        for ctx, probes in heisenberg_contexts(random.Random(61)):
            cache = ActionCache(ctx)
            for ((h1, h2), m, n), s in itertools.product(sweep, probes):
                got = heisenberg_residual(h1, m, h2, n, s, ctx, cache)
                assert got == bracket_oracle(h1, m, h2, n, s, ctx)
                assert got == (-wrong * m * s if m + n == 0 else ctx.zero)
                nonzero += bool(got)
    assert nonzero


def test_heisenberg_residual_builds_one_element(monkeypatch):
    # each residual wraps its one terms dict once; only the inner actions,
    # cached per (h, n, s), build an element of their own
    element, built = OperatorContext.element, []

    def counting(ctx, terms):
        built.append(ctx)
        return element(ctx, terms)

    monkeypatch.setattr(OperatorContext, "element", counting)
    window = range(-1, 2)
    dirs = [CFG2.dir_vector(i) for i in range(CFG2.ndirs)]
    for ctx, probes in heisenberg_contexts(random.Random(67)):
        cache = ActionCache(ctx)
        built.clear()
        residuals = 0
        for h1, h2, m, n, s in itertools.product(dirs, dirs, window, window, probes):
            heisenberg_residual(h1, m, h2, n, s, ctx, cache)
            residuals += 1
        misses = len(dirs) * len(window) * len(probes)
        assert len(cache._modes) == misses
        assert len(built) == residuals + misses == 16 * 9 * 2 + 24


def test_d_derivative_residual_vanishes():
    ctx = adjoint_context(CFG2)
    cache = ActionCache(ctx)
    rng = random.Random(37)
    for _ in range(5):
        u = rand_velement(rng, CFG2, max_weight=3)
        w = rand_velement(rng, CFG2, max_weight=2)
        for n in range(-2, 3):
            assert d_derivative_residual(u, n, w, ctx, cache).is_zero()


def test_a_zero_scalar_reads_no_form():
    # At n = 0 the d-derivative residual adds 0 times u_{-1} w, and at m = n
    # the Virasoro residual adds 0 times L(2m) s: on a fresh cache neither
    # form is computed, though each lies within its field's top.
    ctx = adjoint_context(CFG2)
    u, w = fock_element(2, [(0, 1)]), fock_element(2, [(0, 1), (2, 1)], (1, 0))
    cache = ActionCache(ctx)
    assert d_derivative_residual(u, 0, w, ctx, cache) is ctx.zero
    assert Field(u, w, ctx).top >= -1
    field = cache._fields.get((u, w))
    assert field is None or -1 not in field._forms
    assert virasoro_residual(1, 1, w, ctx, cache) is ctx.zero
    field = cache._fields[(conformal_vector(CFG2), w)]
    assert field.top >= 3 and 2 in field._forms and 3 not in field._forms


def test_borcherds_in_module_context():
    handle = WeightModule(CFG2, [Fraction(1, 2), 0])
    ctx = module_operator_context(CFG2.d_basis(1), handle)
    cache = ActionCache(ctx)
    rng = random.Random(41)
    u = charge_element(2, (1, 0))
    v = charge_element(2, (-1, 0))
    for _ in range(3):
        w = rand_module_element(rng, handle, max_weight=2)
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


def test_checkers_reject_a_cache_built_for_another_context():
    # the checkers read truncation bounds from the cache's fields, so a cache
    # of another context would silently compute there
    ctx = adjoint_context(CFG2)
    other = module_operator_context(CFG2.d_basis(1), WeightModule(CFG2, [Fraction(1, 2), 0]))
    u, v = charge_element(2, (1, 0)), fock_element(2, [(2, 1)])
    calls = [
        lambda cache: borcherds_residual(u, v, u, 0, 0, 0, ctx, cache),
        lambda cache: locality_residual(u, v, u, 0, 0, 1, ctx, cache),
        lambda cache: heisenberg_residual(CFG2.c_basis(1), 1, CFG2.d_basis(1), -1, v, ctx, cache),
        lambda cache: virasoro_residual(1, -1, v, ctx, cache),
        lambda cache: d_derivative_residual(u, 0, v, ctx, cache),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="another context"):
            call(ActionCache(other))
        assert call(ActionCache(ctx)).is_zero()


def test_triple_memo_matches_a_fresh_cache_per_call():
    # One shared cache reads each triple's memo by index; a fresh cache per
    # call builds the memo from nothing.  The triples are interleaved index
    # by index, and two of them differ only in the order of u and v and two
    # only in w, so a memo read for the wrong triple changes a residual.
    # Locality below the true order gives nonzero residuals to compare.  The
    # module contexts are the weight and function modules the suites sweep.
    rng = random.Random(53)
    c1, d1 = fock_element(1, [(0, 1)]), fock_element(1, [(1, 1)])
    ep, em = charge_element(1, (1,)), charge_element(1, (-1,))
    nonzero = 0
    for ctx in [adjoint_context(CFG1)] + [mctx for _, mctx in _module_contexts(CFG1)]:
        if isinstance(ctx.zero, VElement):
            w1, w2 = vacuum(1), rand_velement(rng, CFG1, n_terms=2, max_weight=2)
        else:
            w1 = ctx.state_of_label(ctx.handle.base_label())
            w2 = rand_module_element(rng, ctx.handle, max_weight=2)
        triples = [(d1, ep, w1), (ep, d1, w1), (d1, ep, w2), (em, c1, w2)]
        shared = ActionCache(ctx)
        for m, n, k in TRIPLES2:
            for u, v, w in triples:
                got = borcherds_residual(u, v, w, m, n, k, ctx, shared)
                assert got == borcherds_residual(u, v, w, m, n, k, ctx, ActionCache(ctx))
                assert got.is_zero(), (ctx.handle, m, n, k)
        for p, q in itertools.product(WINDOW2, WINDOW2):
            for u, v, w in triples:
                got = locality_residual(u, v, w, p, q, 0, ctx, shared)
                assert got == locality_residual(u, v, w, p, q, 0, ctx, ActionCache(ctx))
                nonzero += bool(got)
    assert nonzero


def test_zero_inner_product_prepares_no_outer_field(monkeypatch):
    # v_0 1 = 0 for the Heisenberg field v, so at k = 0 the inner product
    # v_{k+i} w of the commutator side vanishes and u must not act on it
    ctx = adjoint_context(CFG1)
    u, v, one = charge_element(1, (1,)), fock_element(1, [(0, 1)]), vacuum(1)
    assert ActionCache(ctx).act(v, 0, one).is_zero()
    prepared = []

    def recording(x, y, field_ctx):
        prepared.append((x, y))
        return Field(x, y, field_ctx)

    monkeypatch.setattr(identities, "Field", recording)
    cache = ActionCache(ctx)
    for m, n in itertools.product(WINDOW2, WINDOW2):
        assert borcherds_residual(u, v, one, m, n, 0, ctx, cache).is_zero()
        assert locality_residual(u, v, one, m, n, 1, ctx, cache).is_zero()
    assert prepared and all(x and y for x, y in prepared)


def test_locality_prepares_no_adjoint_field(monkeypatch):
    # locality reads no inner product u_j v, so the memo leaves the adjoint
    # field of (u, v) unprepared until a Borcherds residual asks for it; the
    # triple's weight top is -2, so that residual is asked at or below it
    (_, ctx), *_ = _module_contexts(CFG1)
    u, v = fock_element(1, [(1, 1)]), charge_element(1, (1,))
    w = ctx.state_of_label(ctx.handle.base_label())
    prepared = []

    def recording(x, y, field_ctx):
        prepared.append(field_ctx)
        return Field(x, y, field_ctx)

    monkeypatch.setattr(identities, "Field", recording)
    cache = ActionCache(ctx)
    for p, q in itertools.product(WINDOW2, WINDOW2):
        assert locality_residual(u, v, w, p, q, 1, ctx, cache).is_zero()
    assert prepared and all(c is ctx for c in prepared)
    assert borcherds_residual(u, v, w, -2, -2, -2, ctx, cache).is_zero()
    assert cache.adj in prepared


# -- the integer accumulation against the rational loop ------------------------------


def add_into(data, c, terms):
    """Add c times the terms dict terms into the terms dict data, in place."""
    for t, x in terms.items():
        accumulate(data, t, c * x)


def rational_residual(u, v, w, m, n, k, ctx, cache, composed=True):
    """Oracle: the component residual at (m, n, k) summed over the rationals,
    adding c times each coefficient's terms into one dict with ``add_into``.
    Without the composed side it is locality's commutator sum.  The products
    come from ``cache.act`` and the cutoffs from ``truncation_bound``, not
    from the triple memo."""
    out = {}
    i_max = max(truncation_bound(u, w, ctx) - m, truncation_bound(v, w, ctx) - k, 0)
    sign_n = -1 if n % 2 else 1
    for i in range(i_max + 1 if n < 0 else n + 1):
        c = (-1) ** i * gbinom(n, i)
        add_into(out, c, cache.act(u, m + n - i, cache.act(v, k + i, w)).terms)
        add_into(out, -c * sign_n, cache.act(v, n + k - i, cache.act(u, m + i, w)).terms)
    if composed:
        j_max = max(truncation_bound(u, v, cache.adj) - n, 0)
        for i in range(j_max + 1 if m < 0 else min(j_max, m) + 1):
            product = cache.adjoint_product(u, n + i, v)
            add_into(out, -gbinom(m, i), cache.act(product, m + k - i, w).terms)
    return ctx.element(out)


def test_integer_accumulation_matches_the_rational_loop(monkeypatch):
    # Generators scaled by 1/2 and 1/3 give coefficients over 1, 2, 3 and 6,
    # so a residual's running denominator must be raised while its dict
    # already holds numerators; the recording below sees that happen.
    # Locality of c1(-1) and d1(-1) at order 1, below their true order 2,
    # gives nonzero residuals over a denominator, which must be divided back
    # by the right one.  The Borcherds residuals run in the adjoint, weight
    # and function-module contexts.
    add_scaled, rescaled = identities.add_scaled, []

    def recording(out, den, c, form):
        if out and den % form[1]:
            rescaled.append((den, form[1]))
        return add_scaled(out, den, c, form)

    monkeypatch.setattr(identities, "add_scaled", recording)
    half, third = Fraction(1, 2), Fraction(1, 3)
    c1, d1 = fock_element(1, [(0, 1)]), fock_element(1, [(1, 1)])
    ep, em = charge_element(1, (1,)), charge_element(1, (-1,))
    adjoint = adjoint_context(CFG1)
    cache = ActionCache(adjoint)
    proper = 0
    for u, v, w in [(half * c1, third * d1, vacuum(1)), (half * c1 + third * ep, d1, ep)]:
        for p, q in itertools.product(WINDOW2, WINDOW2):
            got = locality_residual(u, v, w, p, q, 1, adjoint, cache)
            assert got == rational_residual(u, v, w, p, 1, q, adjoint, cache, composed=False)
            proper += any(type(x) is Fraction for x in got.terms.values())
    assert proper
    rng = random.Random(59)
    gens = [half * d1 + third * ep, third * c1 + half * em, half * ep + third * em]
    for ctx in [adjoint] + [mctx for _, mctx in _module_contexts(CFG1)]:
        cache = ActionCache(ctx)
        if ctx is adjoint:
            w = rand_velement(rng, CFG1, n_terms=2, max_weight=2)
        else:
            w = third * rand_module_element(rng, ctx.handle, max_weight=2)
        for (u, v), (m, n, k) in itertools.product(itertools.permutations(gens, 2), TRIPLES2):
            got = borcherds_residual(u, v, w, m, n, k, ctx, cache)
            assert got == rational_residual(u, v, w, m, n, k, ctx, cache)
            assert got.is_zero()
    assert rescaled


def test_zero_residuals_on_a_warm_cache_build_no_fraction(monkeypatch):
    # the coefficients' integer forms are kept, so a second pass over zero
    # residuals adds integers only and divides nothing back; the Virasoro
    # central term is an integer multiple of s
    ctx = adjoint_context(CFG1)
    cache = ActionCache(ctx)
    u = Fraction(1, 2) * fock_element(1, [(1, 1)]) + Fraction(1, 3) * charge_element(1, (1,))
    v = Fraction(2, 3) * charge_element(1, (-1,))
    w = Fraction(3, 2) * fock_element(1, [(0, 1)], (1,))

    def residuals():
        for m, n, k in TRIPLES2:
            yield borcherds_residual(u, v, w, m, n, k, ctx, cache)
            yield locality_residual(u, v, w, m, n, 2, ctx, cache)
            yield d_derivative_residual(u, m, w, ctx, cache)
            yield virasoro_residual(m, n, w, ctx, cache)

    assert not any(residuals())
    new, built = Fraction.__new__, []

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert not any(residuals())
    monkeypatch.undo()
    assert not built


def test_sums_read_no_form_past_a_fields_top(monkeypatch):
    # Past its top a field's form is empty, so the Borcherds, locality,
    # d-derivative and Virasoro sums, the Zhu residue sums and the zero
    # modes never ask for one there.  With such a read made to raise, they
    # must still equal their oracles, which take elements through
    # Field.coefficient and cut off at truncation_bound, or vanish.
    # Locality of d1(-1) and c1(-1) at order 1, below their true order 2,
    # gives nonzero residuals; an empty result is the context's shared zero.
    integer_form = Field.integer_form

    def bounded(self, n):
        if n > self.top:
            raise AssertionError(f"a form read at n = {n} past top {self.top}")
        return integer_form(self, n)

    monkeypatch.setattr(Field, "integer_form", bounded)
    rng = random.Random(61)
    c1, d1 = fock_element(1, [(0, 1)]), fock_element(1, [(1, 1)])
    ep, em = charge_element(1, (1,)), charge_element(1, (-1,))
    pairs = [(d1, c1), (ep, d1), (em + c1, ep), (d1 + ep, em)]
    nonzero = 0
    for ctx in [adjoint_context(CFG1)] + [mctx for _, mctx in _module_contexts(CFG1)]:
        assert ctx.element({}) is ctx.zero
        cache = ActionCache(ctx)
        if isinstance(ctx.zero, VElement):
            w = rand_velement(rng, CFG1, n_terms=2, max_weight=2)
        else:
            w = rand_module_element(rng, ctx.handle, max_weight=2)
        for u, v in pairs:
            for m, n, k in TRIPLES2:
                got = borcherds_residual(u, v, w, m, n, k, ctx, cache)
                assert got == rational_residual(u, v, w, m, n, k, ctx, cache), (m, n, k)
                assert got.is_zero()
            for p, q in itertools.product(WINDOW2, WINDOW2):
                got = locality_residual(u, v, w, p, q, 1, ctx, cache)
                assert got == untruncated_locality(u, v, w, p, q, 1, ctx, cache), (p, q)
                nonzero += bool(got)
                if not got:
                    assert got is ctx.zero
            for n in WINDOW2:
                assert d_derivative_residual(u, n, w, ctx, cache) is ctx.zero
        for m, n in itertools.product(WINDOW2, WINDOW2):
            assert virasoro_residual(m, n, w, ctx, cache) is ctx.zero
        for x in (u + v for u, v in pairs):
            got = zero_mode(x, w, ctx)
            want = ctx.zero
            for term, c in x.terms.items():
                n = fock_weight(term[0]) - 1 - ctx.charge_power(term[1])
                want = want + c * y_coefficient(x._make({term: 1}), n, w, ctx)
            assert got == want
            nonzero += bool(got)
    assert nonzero
    nonzero = 0
    for _ in range(6):
        u, v = (rand_velement(rng, CFG2, n_terms=2, max_weight=2, charge_bound=1) for _ in range(2))
        for n in (-1, 0, 1):
            got = zhu_star(CFG2, u, v) if n < 0 else circ_general(CFG2, u, v, n)
            want = VElement(2, {})
            for wt, part in homogeneous_components(u).items():
                for i in range(wt + 1):
                    want = want + comb(wt, i) * nth_product(CFG2, part, i - n - 2, v)
            assert got == want, n
            nonzero += bool(got)
    assert nonzero


def associator_side(u, v, w, m, n, k, ctx, cache):
    """Oracle: sum_i C(m, i) (u_{n+i} v)_{m+k-i} w over every i up to the
    product's ``truncation_bound``, with the inner product from ``nth_product``."""
    out = {}
    j_max = max(truncation_bound(u, v, cache.adj) - n, 0)
    for i in range(j_max + 1 if m < 0 else min(j_max, m) + 1):
        product = nth_product(ctx.cfg, u, n + i, v)
        add_into(out, gbinom(m, i), cache.act(product, m + k - i, w).terms)
    return ctx.element(out)


@pytest.mark.parametrize("nu, k", [(1, 1), (2, 1), (1, 2), (1, -1)])
def test_residuals_vanish_past_their_triples_weight_top(monkeypatch, nu, k):
    # Every term of both sides at (m, n, j) has Fock weight C - (m + n + j),
    # with C = max(wt u - p0) + max(wt v - p0) + max(wt w) - 2 read off the
    # two fields' truncation bounds, so past C each side vanishes on its own
    # and both residuals are the shared zero, read without a form.  The
    # oracles take no memo and no weight top.  At m + n + j = C some side is
    # nonzero, some Borcherds residual reads a form and some locality
    # residual of d1(-1) and c1(-1) below their order 2 is nonzero, so C is
    # not loose and a top one too small fails here.
    cfg = LatticeConfig(nu=nu, k=k)
    rng = random.Random(67 + 10 * nu + k)
    integer_form, reads = Field.integer_form, []

    def counted(self, n):
        reads.append(n)
        return integer_form(self, n)

    monkeypatch.setattr(Field, "integer_form", counted)
    c1, d1 = fock_element(nu, [(0, 1)]), fock_element(nu, [(nu, 1)])
    at_top = read_at_top = local_at_top = past = 0
    for ctx in [adjoint_context(cfg)] + [mctx for _, mctx in _module_contexts(cfg)]:
        cache = ActionCache(ctx)
        pairs = [(d1, c1)] + [
            tuple(rand_velement(rng, cfg, n_terms=2, max_weight=2, charge_bound=1) for _ in "uv")
            for _ in range(2)]
        for u, v in pairs:
            if isinstance(ctx.zero, VElement):
                w = rand_velement(rng, cfg, n_terms=2, max_weight=1, charge_bound=1)
            else:
                w = rand_module_element(rng, ctx.handle, max_weight=1)
            top = (truncation_bound(u, w, ctx) + truncation_bound(v, w, ctx)
                   - max(fock_weight(word) for word, _ in w.terms))
            for m, n, j in TRIPLES2:
                if m + n + j < top:
                    continue
                commutator = rational_residual(u, v, w, m, n, j, ctx, cache, composed=False)
                associator = associator_side(u, v, w, m, n, j, ctx, cache)
                del reads[:]
                got = borcherds_residual(u, v, w, m, n, j, ctx, cache)
                assert got == commutator - associator, (m, n, j)
                if m + n + j > top:
                    past += 1
                    assert commutator.is_zero() and associator.is_zero(), (m, n, j)
                    assert got is ctx.zero and not reads
                    if n >= 0:
                        assert untruncated_locality(u, v, w, m, j, n, ctx, cache).is_zero()
                        assert locality_residual(u, v, w, m, j, n, ctx, cache) is ctx.zero
                else:
                    at_top += bool(commutator or associator)
                    read_at_top += bool(reads)
                    if n >= 0:
                        got = locality_residual(u, v, w, m, j, n, ctx, cache)
                        assert got == untruncated_locality(u, v, w, m, j, n, ctx, cache)
                        local_at_top += bool(got)
    assert past and at_top and read_at_top and local_at_top


# -- the identities that let a sweep skip determined residuals ---------------------------


def context_probes(rng, cfg, count):
    """(context, count probe states of Fock weight at most 2) in the adjoint
    and each module context of cfg."""
    out = [(adjoint_context(cfg), [rand_velement(rng, cfg, max_weight=2, charge_bound=1)
                                   for _ in range(count)])]
    for _, mctx in _module_contexts(cfg):
        out.append((mctx, [rand_module_element(rng, mctx.handle, max_weight=2)
                           for _ in range(count)]))
    return out


@pytest.mark.parametrize("nu, k", [(1, 1), (2, 1), (2, -1), (1, 2)])
def test_component_sums_obey_the_pascal_recursion(nu, k):
    # S(m+1, n, k) = S(m, n+1, k) + S(m, n, k+1) for the commutator sums and
    # so for the Borcherds residuals, on random triples that need not satisfy
    # anything in particular: the recursion is Pascal's rule on the sums'
    # binomials, which is why the suites sweep only a box's three faces.  It
    # needs every sum complete, so an i loop cut short fails here.  The
    # points are those whose terms have Fock weight at most 2, at
    # m + n + j + 1 >= C - 2 for the triple's weight top C, where the sums
    # are short; the rest of the box costs seconds more to read.
    cfg = LatticeConfig(nu=nu, k=k)
    rng = random.Random(71 + 10 * nu + k)
    nonzero = 0
    for ctx, probes in context_probes(rng, cfg, 1):
        cache = ActionCache(ctx)
        for w in probes:
            u, v = (rand_velement(rng, cfg, n_terms=2, max_weight=2, charge_bound=1) for _ in "uv")
            memo = cache.triple(u, v, w)

            def commutator(m, n, j):
                return ctx.element(divided(*identities._commutator_sum(memo, m, n, j)))

            def residual(m, n, j):
                return borcherds_residual(u, v, w, m, n, j, ctx, cache)

            for m, n, j in itertools.product(range(-3, 3), repeat=3):
                if m + n + j + 1 < memo[3] - 2:
                    continue
                for side in (commutator, residual):
                    assert side(m + 1, n, j) == side(m, n + 1, j) + side(m, n, j + 1), (m, n, j)
                nonzero += bool(commutator(m, n, j))
    assert nonzero


def test_faces_determine_the_box():
    # the recursion R(m, n+1, k) = R(m+1, n, k) - R(m, n, k+1), run up from
    # n = lo, reaches every point of the box from the three faces alone
    for window in (range(-3, 4), range(-1, 2), range(0, 1)):
        box = set(itertools.product(window, repeat=3))
        known = set(_faces(window))
        assert known <= box and len(known) == len(box) - (len(window) - 1) ** 3
        for n in window[:-1]:
            for m, j in itertools.product(window, window):
                if (m, n + 1, j) not in known:
                    assert {(m + 1, n, j), (m, n, j + 1)} <= known, (m, n, j)
                    known.add((m, n + 1, j))
        assert known == box


def test_bracket_residual_is_antisymmetric(monkeypatch):
    # [h1(m), h2(n)] and [h2(n), h1(m)] trade their outer terms, and the
    # central terms -m (h1, h2) and -n (h2, h1) agree up to sign at m + n = 0,
    # whatever the inner actions are: a spurious term in them leaves the
    # residuals nonzero and still antisymmetric
    window = range(-2, 3)
    dirs = [CFG2.dir_vector(i) for i in range(CFG2.ndirs)]
    nonzero = 0
    for ctx, probes in heisenberg_contexts(random.Random(73)):
        cache = ActionCache(ctx)
        mode = cache.mode
        monkeypatch.setattr(cache, "mode", lambda h, n, s: mode(h, n, s) + (n + 2) * s)
        for h1, h2, m, n, s in itertools.product(dirs, dirs, window, window, probes):
            got = heisenberg_residual(h1, m, h2, n, s, ctx, cache)
            assert heisenberg_residual(h2, n, h1, m, s, ctx, cache) == -got
            nonzero += bool(got)
    assert nonzero


@pytest.mark.parametrize("nu", [1, 2])
def test_locality_residual_swaps_with_its_sign(nu):
    # swapping (u, p) and (v, q) scales the order-N residual by -(-1)^N;
    # c1(-1) and d1(-1) are local only at order 2, so below it the residuals
    # are nonzero
    cfg = LatticeConfig(nu=nu, k=1)
    c1, d1 = fock_element(nu, [(0, 1)]), fock_element(nu, [(nu, 1)])
    window = range(-2, 3)
    nonzero = 0
    for ctx, probes in context_probes(random.Random(79 + nu), cfg, 2):
        cache = ActionCache(ctx)
        for w, order, p, q in itertools.product(probes, (0, 1), window, window):
            got = locality_residual(c1, d1, w, p, q, order, ctx, cache)
            want = got if order % 2 else -got
            assert locality_residual(d1, c1, w, q, p, order, ctx, cache) == want
            nonzero += bool(got)
    assert nonzero
