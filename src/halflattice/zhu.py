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
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Sequence

from .assoc import AElement
from .combination import accumulate, add_scaled, divided
from .fock import VElement, decode, encode, homogeneous_components
from .lattice import LatticeConfig
from .laurent import LaurentPoly, LaurentRing
from .vertex import Field, adjoint_context


def _residue_sum(cfg: LatticeConfig, u: VElement, v: VElement, n: int) -> VElement:
    """sum_i C(wt u, i) u_{i-n-2} v over the homogeneous parts of u."""
    ctx = adjoint_context(cfg)
    out, den = {}, 1  # integer numerators over den
    for wt, part in homogeneous_components(u).items():
        field = Field(part, v, ctx)
        for i in range(wt + 1):
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


@lru_cache(maxsize=None)
def _zero(nu: int) -> VElement:
    """The zero state of rank nu, built once: ``zhu_embed`` builds through its ``_make``."""
    return VElement(nu, {})


def zhu_embed(a: AElement) -> VElement:
    """Charge times d-monomial, realized with depth-one modes.

    Each word is canonical as built (one mode, ascending directions) and
    distinct (charge, d-exponent) keys give distinct terms, so the element
    takes the trusted path and no word is validated again.
    """
    codes = [encode(a.nu + i, 1) for i in range(a.nu)]
    return _zero(a.nu)._make({
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

    def star_reduced(x, y):
        return zhu_reduce(cfg, zhu_star(cfg, zhu_embed(x), zhu_embed(y)))

    for a, b in pairs:
        yield ("product", a, b), star_reduced(a, b) - a.mul(b, cfg)

    nu = cfg.nu
    unit_charges = [tuple(int(t == i) for t in range(nu)) for i in range(nu)]
    d_units = [AElement.monomial(nu, dexp=[int(t == i) for t in range(nu)]) for i in range(nu)]
    e_units = [AElement.monomial(nu, charge=c) for c in unit_charges]

    for i, di in enumerate(d_units):
        for dj in d_units:
            lhs = zhu_star(cfg, zhu_embed(di), zhu_embed(dj))
            rhs = zhu_star(cfg, zhu_embed(dj), zhu_embed(di))
            yield ("d-commute", di, dj), zhu_reduce(cfg, lhs - rhs)
        for c, ea in zip(unit_charges, e_units):
            diff = zhu_star(cfg, zhu_embed(di), zhu_embed(ea)) - zhu_star(
                cfg, zhu_embed(ea), zhu_embed(di)
            )
            want = AElement(nu, {(c, (0,) * nu): cfg.k * c[i]})
            yield ("straightening", di, ea), zhu_reduce(cfg, diff) - want
    for c1, e1 in zip(unit_charges, e_units):
        for c2, e2 in zip(unit_charges, e_units):
            total = tuple(x + y for x, y in zip(c1, c2))
            want = AElement(nu, {(total, (0,) * nu): 1})
            yield ("translation-product", e1, e2), star_reduced(e1, e2) - want


def o_action_on_v0(cfg: LatticeConfig, v: VElement, p: LaurentPoly) -> LaurentPoly:
    """Action of the degree-zero modes of a normal form on the bottom level.

    The bottom level is the charge group algebra, identified with Laurent
    polynomials in t_1..t_nu.  A depth-one d_i mode acts as k times the
    degree derivation and a charge translation acts as multiplication by its
    monomial; the translation applies after the derivations, matching the
    charge-left normal form.
    """
    ring = LaurentRing(cfg.nu, cfg.nu)
    if p.ring != ring:
        raise ValueError(f"the bottom level is {ring}, got {p.ring}")
    out = ring.zero()
    nf = zhu_reduce(cfg, v)
    if zhu_embed(nf) != v:
        raise ValueError("the acting element must be a normal-form representative")
    for (charge, dexp), coeff in nf.terms.items():
        g = p
        for i, e in enumerate(dexp):
            for _ in range(e):
                g = cfg.k * g.degree_derivation(i + 1)
        out = out + coeff * (ring.monomial(charge) * g)
    return out
