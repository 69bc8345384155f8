"""Degree-zero associative quotient of the half-lattice algebra.

The quotient is taken modulo the span of the residue products

    u o v = sum_{i >= 0} C(wt u, i) u_{i-2} v          (homogeneous u)

with multiplication

    u * v = sum_{i >= 0} C(wt u, i) u_{i-1} v.

Both sums are finite because weights here are nonnegative integers.  Every
class has a unique representative built from depth-one d-modes on a charge:
deeper modes lower by h(-n-1) ~ -h(-n), and any c-direction factor lies in
the span of the residue products, so it dies.  The resulting normal forms
multiply exactly like the straightened algebra on charge translations and
degree operators; the checker verifies that identification on probe pairs.
The quotient acts on a top level through the engine's zero modes, ``zero_mode``.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from .assoc import AElement
from .combination import accumulate, add_scaled, divided
from .fock import VElement, decode, encode, fock_weight, homogeneous_components
from .lattice import LatticeConfig
from .vertex import Field, OperatorContext, adjoint_context


def _residue_sum(cfg: LatticeConfig, u: VElement, v: VElement, n: int) -> VElement:
    """sum_i C(wt u, i) u_{i-n-2} v over the homogeneous parts of u, up to
    each part's field top, past which u_{i-n-2} v = 0."""
    ctx = adjoint_context(cfg)
    out, den = {}, 1  # integer numerators over den
    for wt, part in homogeneous_components(u).items():
        field = Field(part, v, ctx)
        for i in range(min(wt, field.top + n + 2) + 1):
            den = add_scaled(out, den, comb(wt, i), field.integer_form(i - n - 2))
    return ctx.element(divided(out, den))


def zhu_star(cfg: LatticeConfig, u: VElement, v: VElement) -> VElement:
    """The associative product on classes, extended linearly over weights."""
    return _residue_sum(cfg, u, v, -1)


def circ_general(cfg: LatticeConfig, u: VElement, v: VElement, n: int) -> VElement:
    """The residue products sum_i C(wt u, i) u_{i-n-2} v, n >= 0.

    All of them lie in the quotient ideal; n = 0 is the circle product.
    """
    if n < 0:
        raise ValueError("the depth parameter must be nonnegative")
    return _residue_sum(cfg, u, v, n)


def zhu_reduce(cfg: LatticeConfig, v: VElement) -> AElement:
    """Reduce to the canonical class representative, a charge times
    depth-one d-modes, read as the straightened-algebra element it embeds.

    Each factor h(-m) flips sign while its depth drops toward one, so a
    factor contributes (-1)^(m-1) and lands at depth one; a charge-direction
    factor then kills its term since those depth-one modes lie in the ideal.
    The two rules strictly decrease (total depth, then c-factor count), so
    the result is independent of application order.  v must have the
    lattice's rank; the keys are then built here and take the trusted path.
    """
    if v.nu != cfg.nu:
        raise ValueError(f"the state has rank {v.nu}, the lattice {cfg.nu}")
    terms: dict = {}
    for (word, charge), coeff in v.terms.items():
        sign = 1
        dexp = [0] * cfg.nu
        dead = False
        for dir_, mode in map(decode, word):
            if dir_ < cfg.nu:
                dead = True
                break
            if mode % 2 == 0:
                sign = -sign
            dexp[dir_ - cfg.nu] += 1
        if dead:
            continue
        accumulate(terms, (charge, tuple(dexp)), sign * coeff)
    return AElement(cfg.nu, {})._make(terms)


def zhu_embed(a: AElement) -> VElement:
    """Charge times d-monomial, realized with depth-one modes.

    Each word is canonical as built (one mode, ascending directions) and
    distinct (charge, d-exponent) keys give distinct terms, so the element
    takes the trusted path and no word is validated again.
    """
    codes = [encode(a.nu + i, 1) for i in range(a.nu)]
    return VElement(a.nu, {})._make({
        (tuple(code for code, e in zip(codes, dexp) for _ in range(e)), charge): coeff
        for (charge, dexp), coeff in a.terms.items()
    })


def zhu_iso_cases(cfg: LatticeConfig, pairs: Sequence[tuple]):
    """The identification with the straightened algebra, as a lazy sweep.

    For each pair (a, b) of normal forms, the embedded star product must
    reduce to the embedding of the algebra product; the three generator
    relations (commuting degree operators, the degree/translation
    straightening rule, and multiplicativity of translations) are also
    checked directly.  Yields (where, residual), the residual being the
    reduced difference of the two sides.
    """

    def star(x, y):
        return zhu_star(cfg, zhu_embed(x), zhu_embed(y))

    for a, b in pairs:
        yield ("product", a, b), zhu_reduce(cfg, star(a, b)) - a.mul(b, cfg)

    nu = cfg.nu
    unit_charges = [tuple(int(t == i) for t in range(nu)) for i in range(nu)]
    d_units = [AElement.monomial(nu, dexp=[int(t == i) for t in range(nu)]) for i in range(nu)]
    e_units = [AElement.monomial(nu, charge=c) for c in unit_charges]

    for i, di in enumerate(d_units):
        for dj in d_units:
            yield ("d-commute", di, dj), zhu_reduce(cfg, star(di, dj) - star(dj, di))
        for c, ea in zip(unit_charges, e_units):
            want = AElement(nu, {(c, (0,) * nu): cfg.k * c[i]})
            yield ("straightening", di, ea), zhu_reduce(cfg, star(di, ea) - star(ea, di)) - want
    for c1, e1 in zip(unit_charges, e_units):
        for c2, e2 in zip(unit_charges, e_units):
            total = tuple(x + y for x, y in zip(c1, c2))
            want = AElement(nu, {(total, (0,) * nu): 1})
            yield ("translation-product", e1, e2), zhu_reduce(cfg, star(e1, e2)) - want


def zero_mode(v: VElement, w, ctx: OperatorContext):
    """The zero mode o(v) on w, the coefficient of v that keeps w's weight.

    A term of Fock weight m and charge alpha acts by its coefficient at
    n = m - 1 - ``ctx.charge_power(alpha)``, one ``Field`` per n, whose
    form it reads only at n <= the field's ``top``.  This is
    Zhu's action (JAMS 9, 1996) only on a top level: the adjoint's
    Fock-weight-0 states are one, but not a weight context's at lam != 0,
    where z^(alpha, lam) shifts the grading."""
    parts: dict = {}  # n -> the terms of v that act by u_n
    for (word, alpha), c in v.terms.items():
        parts.setdefault(fock_weight(word) - 1 - ctx.charge_power(alpha), {})[word, alpha] = c
    out, den = {}, 1  # integer numerators over den
    for n, terms in parts.items():
        field = Field(v._make(terms), w, ctx)
        if n <= field.top:
            den = add_scaled(out, den, 1, field.integer_form(n))
    return ctx.element(divided(out, den))
