import random
from fractions import Fraction

import pytest

from halflattice.assoc import OmegaSpec
from halflattice.bridge import (
    MixedSectorError,
    _fock_level,
    charge_sector,
    is_vacuum_vector,
    recovered_action_cases,
    recovered_relation_cases,
    t_operator,
    vacuum_basis,
    z_operator,
)
from halflattice.fock import ModuleElement, decode, fock_weight, vacuum
from halflattice.identities import ActionCache, borcherds_residual
from halflattice.lattice import LatticeConfig, WeightModule
from halflattice.laurent import LaurentRing
from halflattice.probes import rand_module_element
from halflattice.vertex import (
    apply_heisenberg_mode,
    module_operator_context,
    truncation_bound,
    y_coefficient,
)

CFG = LatticeConfig(nu=2, k=1)


def weight_mctx(cfg=CFG, lam=None):
    handle = WeightModule(cfg, [Fraction(1, 2)] + [0] * (cfg.nu - 1))
    return module_operator_context(lam or cfg.d_basis(1), handle)


def omega_mctx(lam=None):
    ring = LaurentRing(2, 1)
    spec = OmegaSpec(2, 2, (ring.variable(1),), (Fraction(3),))
    return module_operator_context(lam or CFG.d_basis(1), spec)


# -- context validation ----------------------------------------------------------


def test_integral_weight_accepted():
    assert weight_mctx().lam == CFG.d_basis(1)


def test_fractional_weight_with_matching_k():
    cfg = LatticeConfig(nu=2, k=2)
    mctx = weight_mctx(cfg, cfg.vector(d=[Fraction(1, 2), 0]))
    assert mctx.charge_power((1, 0)) == 1


def test_non_integral_weight_rejected():
    with pytest.raises(ValueError):
        weight_mctx(CFG, CFG.vector(d=[Fraction(1, 2), 0]))


def test_weight_with_c_part_rejected():
    with pytest.raises(ValueError):
        weight_mctx(CFG, CFG.vector(c=[1, 0], d=[1, 0]))


# -- vacuum space -----------------------------------------------------------------


def test_fock_level_lists_words_by_their_decoded_pairs():
    # pinned from when words held (direction, mode) pairs: the basis order,
    # and so the nullspace columns, follow the pairs, not the codes
    basis = _fock_level(LatticeConfig(nu=1, k=1), 3)
    assert [tuple(map(decode, word)) for word in basis] == [
        ((0, 1), (0, 1), (0, 1)), ((0, 1), (0, 1), (1, 1)), ((0, 1), (1, 1), (1, 1)),
        ((0, 2), (0, 1)), ((0, 2), (1, 1)), ((0, 3),), ((1, 1), (1, 1), (1, 1)),
        ((1, 2), (0, 1)), ((1, 2), (1, 1)), ((1, 3),)]
    assert sorted(basis) != basis


def test_vacuum_basis_is_the_label_slice():
    mctx = weight_mctx()
    labels = mctx.handle.probe_labels()[:5]
    basis = vacuum_basis(mctx, 4, labels)
    assert len(basis) == len(labels)
    for v, label in zip(basis, labels):
        ((word, lab),) = v.terms
        assert word == () and lab == mctx.handle.validate_label(label)
        assert is_vacuum_vector(v, mctx)


def test_vacuum_basis_has_no_positive_weight_vectors():
    mctx = omega_mctx()
    basis = vacuum_basis(mctx, 3, [(0, 0), (1, 0)])
    for v in basis:
        assert all(fock_weight(word) == 0 for (word, _) in v.terms)


def test_is_vacuum_vector_detects_dressed_states():
    mctx = weight_mctx()
    base = mctx.state_of_label(mctx.handle.base_label())
    dressed = apply_heisenberg_mode(CFG.c_basis(1), -1, base, mctx)
    assert is_vacuum_vector(base, mctx)
    assert not is_vacuum_vector(dressed, mctx)


# -- dressed lattice operators ---------------------------------------------------------


def test_z_support_on_vacuum_states():
    mctx = weight_mctx()
    w = mctx.state_of_label(mctx.handle.base_label())
    alpha = (1, 0)
    hit = -1 - mctx.charge_power(alpha)
    for n in range(-4, 3):
        got = z_operator(alpha, n, w, mctx)
        if n == hit:
            ((word, label),) = got.terms
            assert word == () and got.terms[(word, label)] == 1
            assert label == (Fraction(3, 2), Fraction(0))
        else:
            assert got.is_zero()


def test_z_of_zero_charge_is_identity_at_minus_one():
    mctx = weight_mctx()
    w = mctx.state_of_label(mctx.handle.base_label())
    for n in range(-3, 3):
        got = z_operator((0, 0), n, w, mctx)
        assert got == (w if n == -1 else mctx.zero)


def test_z_preserves_vacuum_space():
    mctx = omega_mctx()
    w = mctx.state_of_label((1, 0))
    for n in range(-4, 2):
        zw = z_operator((1, 1), n, w, mctx)
        if not zw.is_zero():
            assert is_vacuum_vector(zw, mctx)


def test_z_derivative_identity():
    # composing with the zero mode rescales by the coefficient index
    mctx = weight_mctx()
    ctx = mctx
    w = ctx.state_of_label(mctx.handle.base_label())
    alpha = (1, 0)
    a0w = apply_heisenberg_mode(CFG.from_charge(alpha), 0, w, ctx)
    for n in range(-4, 2):
        lhs = z_operator(alpha, n, a0w, mctx) if not a0w.is_zero() else ctx.zero
        assert lhs == (-n - 1) * z_operator(alpha, n, w, mctx)


def test_z_commutes_with_nonzero_modes():
    mctx = omega_mctx()
    ctx = mctx
    w = ctx.state_of_label((0, 1))
    alpha = (1, 0)
    for bdir in range(4):
        beta = CFG.dir_vector(bdir)
        for m in (-2, -1, 1, 2):
            bw = apply_heisenberg_mode(beta, m, w, ctx)
            for n in range(-3, 2):
                lhs = apply_heisenberg_mode(beta, m, z_operator(alpha, n, w, mctx), ctx)
                rhs = z_operator(alpha, n, bw, mctx) if not bw.is_zero() else ctx.zero
                assert lhs == rhs


def test_zero_mode_commutator_with_z():
    mctx = weight_mctx()
    ctx = mctx
    w = ctx.state_of_label(mctx.handle.base_label())
    alpha = (1, 0)
    for bdir in range(4):
        beta = CFG.dir_vector(bdir)
        pair = CFG.pairing(beta, CFG.from_charge(alpha))
        bw = apply_heisenberg_mode(beta, 0, w, ctx)
        for n in range(-3, 2):
            zw = z_operator(alpha, n, w, mctx)
            lhs = apply_heisenberg_mode(beta, 0, zw, ctx)
            rhs = z_operator(alpha, n, bw, mctx) if not bw.is_zero() else ctx.zero
            assert lhs - rhs == pair * zw


# -- transport operators ------------------------------------------------------------------


def test_transport_is_the_label_translation():
    for mctx in (weight_mctx(), omega_mctx()):
        handle = mctx.handle
        label = handle.base_label()
        w = mctx.state_of_label(label)
        got = t_operator((1, 0), w, mctx)
        want = ModuleElement(handle, {((), lab): q for q, lab in handle.e_action((1, 0), label)})
        assert got == want


def test_transport_of_zero_charge_is_identity():
    mctx = weight_mctx()
    w = mctx.state_of_label(mctx.handle.base_label())
    assert t_operator((0, 0), w, mctx) == w


def test_transport_composition():
    mctx = omega_mctx()
    w = mctx.state_of_label((1, 1))
    for a in [(1, 0), (0, 1), (-1, 1)]:
        for b in [(1, 0), (0, -1)]:
            lhs = t_operator(a, t_operator(b, w, mctx), mctx)
            total = tuple(x + y for x, y in zip(a, b))
            assert lhs == t_operator(total, w, mctx)


def test_transport_is_linear_and_zero_on_the_zero_state():
    # the z-power is the context's charge power, so no state is asked for
    # its sector: the zero state maps to zero and scalars pass through
    for mctx in (weight_mctx(), omega_mctx()):
        assert t_operator((1, 0), mctx.zero, mctx) == mctx.zero
        w = mctx.state_of_label(mctx.handle.base_label())
        assert t_operator((1, 0), Fraction(2, 3) * w, mctx) == Fraction(2, 3) * t_operator((1, 0), w, mctx)


def test_mixed_sector_rejected():
    # two labels carry different degree-operator eigenvalues, so their sum
    # is not an eigenvector of the d-direction zero mode
    mctx = weight_mctx()
    ctx = mctx
    base = ctx.state_of_label(mctx.handle.base_label())
    other = ctx.state_of_label((Fraction(3, 2), Fraction(0)))
    with pytest.raises(MixedSectorError):
        charge_sector(CFG.d_basis(1), base + other, mctx)
    # c-direction sectors are constant across the whole module
    assert charge_sector((1, 0), base + other, mctx) == 1
    assert charge_sector(CFG.d_basis(1), base, mctx) == Fraction(1, 2)
    with pytest.raises(ValueError):
        charge_sector((1, 0), ctx.zero, mctx)


# -- recovering the coefficient module ------------------------------------------------------


def test_recovery_roundtrip_weight():
    mctx = weight_mctx()
    labels = mctx.handle.probe_labels()[:3]
    assert not any(res for _, res in recovered_action_cases(mctx, labels))
    assert not any(res for _, res in recovered_relation_cases(mctx, labels))


def test_recovery_roundtrip_omega():
    mctx = omega_mctx()
    labels = [(0, 0), (1, 0), (-1, 1)]
    assert not any(res for _, res in recovered_action_cases(mctx, labels))
    assert not any(res for _, res in recovered_relation_cases(mctx, labels))


def test_module_axioms_on_built_module():
    # truncation, the identity field, and the component identity all hold
    mctx = omega_mctx(CFG.d_basis(1) + CFG.d_basis(2))
    ctx = mctx
    rng = random.Random(7)
    u = vacuum(2)
    probes = [ctx.state_of_label((0, 0)), rand_module_element(rng, mctx.handle, max_weight=2)]
    for w in probes:
        for n in range(-3, 3):
            got = y_coefficient(u, n, w, ctx)
            assert got == (w if n == -1 else ctx.zero)
    from halflattice.fock import charge_element, fock_element

    gens = [fock_element(2, [(2, 1)]), charge_element(2, (1, 0)), charge_element(2, (0, -1))]
    for g in gens:
        for w in probes:
            bound = truncation_bound(g, w, ctx)
            for n in range(bound + 1, bound + 3):
                assert y_coefficient(g, n, w, ctx).is_zero()
    cache = ActionCache(ctx)
    window = range(-2, 3)
    assert not any(
        borcherds_residual(gens[0], gens[1], probes[0], m, n, k, ctx, cache)
        for m in window for n in window for k in window
    )


def test_dressed_states_stay_inside_the_fock_module():
    # generator coefficients keep the span of Fock monomials over vacuum labels
    mctx = weight_mctx()
    ctx = mctx
    rng = random.Random(9)
    from halflattice.fock import charge_element, fock_element

    gens = [fock_element(2, [(0, 1)]), charge_element(2, (1, 0))]
    for _ in range(5):
        w = rand_module_element(rng, mctx.handle, max_weight=2)
        for g in gens:
            for n in range(-2, 3):
                out = y_coefficient(g, n, w, ctx)
                for (_, label) in out.terms:
                    mctx.handle.validate_label(label)


def test_weight_coherence_of_vacuum_probes():
    for mctx in (weight_mctx(), omega_mctx()):
        for label in mctx.handle.probe_labels()[:4]:
            state = mctx.state_of_label(mctx.handle.validate_label(label))
            for i in range(2):
                unit = [0, 0]
                unit[i] = 1
                sector = charge_sector(tuple(unit), state, mctx)
                assert (CFG.k * sector).denominator == 1
