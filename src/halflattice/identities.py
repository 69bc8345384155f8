"""Coefficientwise identity checkers for the vertex operator calculus.

Every checker reduces its identity to finitely many exact coefficient
extractions and reports equality over the rationals; failures carry the
offending indices and the nonzero residual instead of raising.  A shared
``ActionCache`` memoizes mode actions, which matters when the same states
are swept across a window of coefficient indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .fock import VElement
from .lattice import LatticeVector
from .vertex import (
    OperatorContext,
    adjoint_context,
    apply_heisenberg_mode,
    gbinom,
    truncation_bound,
    virasoro_mode,
    y_coefficient,
)


class ActionCache:
    """Memoized u_n w evaluation for one context (plus its adjoint side)."""

    def __init__(self, ctx: OperatorContext):
        self.ctx = ctx
        self.adj = adjoint_context(ctx.cfg)
        self._acts: dict = {}
        self._products: dict = {}

    def act(self, u: VElement, n: int, w):
        key = (u.key(), n, w.key())
        hit = self._acts.get(key)
        if hit is None:
            hit = y_coefficient(u, n, w, self.ctx)
            self._acts[key] = hit
        return hit

    def adjoint_product(self, u: VElement, n: int, v: VElement) -> VElement:
        key = (u.key(), n, v.key())
        hit = self._products.get(key)
        if hit is None:
            hit = y_coefficient(u, n, v, self.adj)
            self._products[key] = hit
        return hit


@dataclass
class LocalityResult:
    ok: bool
    order: int
    failure: Optional[tuple] = None  # (p, q, probe_index, residual)

    def __bool__(self) -> bool:
        return self.ok


def locality_check(
    u: VElement,
    v: VElement,
    k_order: int,
    window: int,
    ctx: OperatorContext,
    probes: Sequence,
    cache: ActionCache | None = None,
) -> LocalityResult:
    """Check (z1 - z2)^k [fields of u and v] commute, coefficientwise.

    For every probe state and every pair of coefficient indices |p|, |q|
    bounded by the window, compares

        sum_i (-1)^i C(k, i) u_{p+k-i} (v_{q+i} w)
        sum_i (-1)^i C(k, i) v_{q+i} (u_{p+k-i} w)

    and reports the first mismatch.
    """
    if k_order < 0:
        raise ValueError("locality order must be nonnegative")
    cache = cache or ActionCache(ctx)
    for idx, w in enumerate(probes):
        for p in range(-window, window + 1):
            for q in range(-window, window + 1):
                lhs = ctx.zero_element()
                rhs = ctx.zero_element()
                for i in range(k_order + 1):
                    c = (-1) ** i * gbinom(k_order, i)
                    lhs = lhs + c * cache.act(u, p + k_order - i, cache.act(v, q + i, w))
                    rhs = rhs + c * cache.act(v, q + i, cache.act(u, p + k_order - i, w))
                if lhs != rhs:
                    return LocalityResult(False, k_order, (p, q, idx, lhs - rhs))
    return LocalityResult(True, k_order)


@dataclass
class BorcherdsResult:
    ok: bool
    at: Optional[tuple] = None
    residual: object = None

    def __bool__(self) -> bool:
        return self.ok


def borcherds_residual(
    u: VElement,
    v: VElement,
    w,
    m: int,
    n: int,
    k: int,
    ctx: OperatorContext,
    cache: ActionCache | None = None,
):
    """Difference of the two sides of the component Jacobi identity.

    The component form at indices (m, n, k) is

        sum_{i>=0} (-1)^i C(n,i) [ u_{m+n-i} (v_{k+i} w)
                                   - (-1)^n v_{n+k-i} (u_{m+i} w) ]
      = sum_{i>=0} C(m,i) (u_{n+i} v)_{m+k-i} w

    with every sum finite by truncation.
    """
    cache = cache or ActionCache(ctx)
    lhs = ctx.zero_element()
    i_max = max(truncation_bound(v, w, ctx) - k, truncation_bound(u, w, ctx) - m, 0)
    if n >= 0:
        i_max = min(i_max, n)
    sign_n = (-1) ** n
    for i in range(i_max + 1):
        c = (-1) ** i * gbinom(n, i)
        if not c:
            continue
        t1 = cache.act(u, m + n - i, cache.act(v, k + i, w))
        t2 = cache.act(v, n + k - i, cache.act(u, m + i, w))
        lhs = lhs + c * (t1 - sign_n * t2)
    rhs = ctx.zero_element()
    # the inner product u_{n+i} v lives in the adjoint context, so its
    # truncation bound must be taken there
    j_max = max(truncation_bound(u, v, cache.adj) - n, 0)
    if m >= 0:
        j_max = min(j_max, m)
    for i in range(j_max + 1):
        c = gbinom(m, i)
        if not c:
            continue
        inner = cache.adjoint_product(u, n + i, v)
        if inner.is_zero():
            continue
        rhs = rhs + c * cache.act(inner, m + k - i, w)
    return lhs - rhs


def borcherds_check(
    u: VElement,
    v: VElement,
    w,
    triples: Iterable[tuple],
    ctx: OperatorContext,
    cache: ActionCache | None = None,
) -> BorcherdsResult:
    """Run the component identity over the given (m, n, k) index triples."""
    cache = cache or ActionCache(ctx)
    for m, n, k in triples:
        res = borcherds_residual(u, v, w, m, n, k, ctx, cache)
        if not res.is_zero():
            return BorcherdsResult(False, (m, n, k), res)
    return BorcherdsResult(True)


def window_triples(window: int) -> list[tuple]:
    r = range(-window, window + 1)
    return [(m, n, k) for m in r for n in r for k in r]


def heisenberg_residual(
    h1: LatticeVector,
    m: int,
    h2: LatticeVector,
    n: int,
    s,
    ctx: OperatorContext,
):
    """[h1(m), h2(n)] s minus m (h1, h2) delta_{m+n,0} s."""
    lhs = apply_heisenberg_mode(h1, m, apply_heisenberg_mode(h2, n, s, ctx), ctx)
    lhs = lhs - apply_heisenberg_mode(h2, n, apply_heisenberg_mode(h1, m, s, ctx), ctx)
    if m + n == 0:
        lhs = lhs - m * ctx.cfg.pairing(h1, h2) * s
    return lhs


def virasoro_residual(m: int, n: int, s, ctx: OperatorContext, cache: ActionCache | None = None):
    """[L(m), L(n)] s minus (m-n) L(m+n) s minus the central term.

    The central term is (m^3 - m)/6 * delta_{m+n,0} * nu * s, i.e. central
    charge 2*nu in the standard normalization.
    """
    if cache is None:
        L = lambda a, x: virasoro_mode(a, x, ctx)
    else:
        from .vertex import conformal_vector

        omega = conformal_vector(ctx.cfg)
        L = lambda a, x: cache.act(omega, a + 1, x)
    lhs = L(m, L(n, s)) - L(n, L(m, s))
    rhs = (m - n) * L(m + n, s)
    if m + n == 0:
        rhs = rhs + Fraction((m**3 - m) * ctx.cfg.nu, 6) * s
    return lhs - rhs


def d_derivative_residual(u: VElement, n: int, w, ctx: OperatorContext, cache: ActionCache | None = None):
    """(L(-1)u)_n w + n * u_{n-1} w, which must vanish identically."""
    cache = cache or ActionCache(ctx)
    du = virasoro_mode(-1, u, adjoint_context(ctx.cfg))
    return cache.act(du, n, w) + n * cache.act(u, n - 1, w)
