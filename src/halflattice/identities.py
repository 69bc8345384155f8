"""Coefficientwise identity checkers for the vertex operator calculus.

Every checker returns the residual of its identity at one choice of
coefficient indices: an exact combination over the rationals that is zero
exactly when the identity holds there.  Sweeping the indices and deciding
pass or fail is left to the caller (``SuiteReport.sweep``).  The checkers
that evaluate fields or Heisenberg modes take an ``ActionCache`` built for
their context, and raise ``ValueError`` on a cache built for another one.
The cache prepares one ``Field`` per (u, w), so a sweep takes each
truncation bound once, shares each pair's annihilation side across every n,
and computes each u_n w or h(n) s once.
"""

from __future__ import annotations

from fractions import Fraction

from .combination import accumulate
from .fock import VElement
from .lattice import LatticeVector
from .vertex import (
    Field,
    OperatorContext,
    adjoint_context,
    apply_heisenberg_mode,
    conformal_vector,
    gbinom,
)


class ActionCache:
    """Memoized fields, their coefficients and Heisenberg modes for one
    context (plus its adjoint side).

    It prepares one ``Field`` per (u, w) in the context and one per (u, v)
    in the adjoint, each with a table of the coefficients computed so far,
    keyed by n.  The checkers read the fields' truncation bounds, so a bound
    is taken once per pair, and every coefficient shares its pair's
    annihilation halves.  Heisenberg modes h(n) s are keyed by their
    arguments.
    """

    def __init__(self, ctx: OperatorContext):
        self.ctx = ctx
        self.adj = adjoint_context(ctx.cfg)
        self._fields: dict = {}  # (u, w) -> (Field in ctx, {n: u_n w})
        self._adjoint: dict = {}  # (u, v) -> (Field in the adjoint, {n: u_n v})
        self._modes: dict = {}

    def field(self, u: VElement, w) -> Field:
        return _prepared(self._fields, u, w, self.ctx)[0]

    def adjoint_field(self, u: VElement, v: VElement) -> Field:
        return _prepared(self._adjoint, u, v, self.adj)[0]

    def act(self, u: VElement, n: int, w):
        return _coefficient(self._fields, u, n, w, self.ctx)

    def adjoint_product(self, u: VElement, n: int, v: VElement) -> VElement:
        return _coefficient(self._adjoint, u, n, v, self.adj)

    def mode(self, h: LatticeVector, n: int, s):
        key = (h, n, s)
        hit = self._modes.get(key)
        if hit is None:
            hit = self._modes[key] = apply_heisenberg_mode(h, n, s, self.ctx)
        return hit


def _prepared(fields: dict, u: VElement, w, ctx: OperatorContext) -> tuple:
    """The (field, table) entry of (u, w), prepared on first use."""
    entry = fields.get((u, w))
    if entry is None:
        entry = fields[(u, w)] = (Field(u, w, ctx), {})
    return entry


def _coefficient(fields: dict, u: VElement, n: int, w, ctx: OperatorContext):
    """u_n w from the table of its prepared field, computed on first use."""
    field, table = _prepared(fields, u, w, ctx)
    hit = table.get(n)
    if hit is None:
        hit = table[n] = field.coefficient(n)
    return hit


def _check_cache(ctx: OperatorContext, cache: ActionCache) -> None:
    if cache.ctx is not ctx:
        raise ValueError("the action cache was built for another context")


def locality_residual(
    u: VElement,
    v: VElement,
    w,
    p: int,
    q: int,
    k_order: int,
    ctx: OperatorContext,
    cache: ActionCache,
):
    """Difference of the two orderings of (z1 - z2)^k u(z1) v(z2) at (p, q).

    Locality of order k means

        sum_i (-1)^i C(k, i) u_{p+k-i} (v_{q+i} w)
      = sum_i (-1)^i C(k, i) v_{q+i} (u_{p+k-i} w)

    for every pair of coefficient indices.  Their difference is the
    commutator side of the component Jacobi identity at (m, n, k) =
    (p, k, q), after i -> k - i in the second sum.
    """
    if k_order < 0:
        raise ValueError("locality order must be nonnegative")
    _check_cache(ctx, cache)
    return ctx.element(_commutator_sum(u, v, w, p, k_order, q, ctx, cache))


def borcherds_residual(
    u: VElement,
    v: VElement,
    w,
    m: int,
    n: int,
    k: int,
    ctx: OperatorContext,
    cache: ActionCache,
):
    """Difference of the two sides of the component Jacobi identity.

    The component form at indices (m, n, k) is

        sum_{i>=0} (-1)^i C(n,i) [ u_{m+n-i} (v_{k+i} w)
                                   - (-1)^n v_{n+k-i} (u_{m+i} w) ]
      = sum_{i>=0} C(m,i) (u_{n+i} v)_{m+k-i} w

    with every sum finite by truncation.
    """
    _check_cache(ctx, cache)
    out = _commutator_sum(u, v, w, m, n, k, ctx, cache)
    # the inner product u_{n+i} v lives in the adjoint context, so its
    # truncation bound must be taken there
    j_max = max(cache.adjoint_field(u, v).bound - n, 0)
    if m >= 0:
        j_max = min(j_max, m)
    for i in range(j_max + 1):
        c = gbinom(m, i)
        inner = cache.adjoint_product(u, n + i, v)
        if inner.is_zero():
            continue
        _add_into(out, -c, cache.act(inner, m + k - i, w))
    return ctx.element(out)


def _commutator_sum(u, v, w, m: int, n: int, k: int, ctx, cache) -> dict:
    """sum_{i>=0} (-1)^i C(n,i) [u_{m+n-i} (v_{k+i} w) - (-1)^n v_{n+k-i} (u_{m+i} w)]
    as a terms dict, cut off where both inner actions vanish by truncation."""
    out: dict = {}
    i_max = max(cache.field(v, w).bound - k, cache.field(u, w).bound - m, 0)
    if n >= 0:
        i_max = min(i_max, n)
    sign_n = -1 if n % 2 else 1
    for i in range(i_max + 1):
        c = (-1) ** i * gbinom(n, i)
        _add_into(out, c, cache.act(u, m + n - i, cache.act(v, k + i, w)))
        _add_into(out, -c * sign_n, cache.act(v, n + k - i, cache.act(u, m + i, w)))
    return out


def _add_into(data: dict, c: int, element) -> None:
    """Add c times element into the terms dict data, in place."""
    for t, x in element.terms.items():
        accumulate(data, t, c * x)


def heisenberg_residual(
    h1: LatticeVector,
    m: int,
    h2: LatticeVector,
    n: int,
    s,
    ctx: OperatorContext,
    cache: ActionCache,
):
    """[h1(m), h2(n)] s minus m (h1, h2) delta_{m+n,0} s.

    Only the inner actions h2(n) s and h1(m) s, which a sweep repeats, are cached.
    """
    _check_cache(ctx, cache)
    out: dict = {}
    _add_into(out, 1, apply_heisenberg_mode(h1, m, cache.mode(h2, n, s), ctx))
    _add_into(out, -1, apply_heisenberg_mode(h2, n, cache.mode(h1, m, s), ctx))
    if m + n == 0:
        _add_into(out, -m * ctx.cfg.pairing(h1, h2), s)
    return ctx.element(out)


def virasoro_residual(m: int, n: int, s, ctx: OperatorContext, cache: ActionCache):
    """[L(m), L(n)] s minus (m-n) L(m+n) s minus the central term.

    The central term is (m^3 - m)/6 * delta_{m+n,0} * nu * s, i.e. central
    charge 2*nu in the standard normalization.
    """
    _check_cache(ctx, cache)
    omega = conformal_vector(ctx.cfg)

    def L(a, x):
        return cache.act(omega, a + 1, x)

    lhs = L(m, L(n, s)) - L(n, L(m, s))
    rhs = (m - n) * L(m + n, s)
    if m + n == 0:
        rhs = rhs + Fraction((m**3 - m) * ctx.cfg.nu, 6) * s
    return lhs - rhs


def d_derivative_residual(u: VElement, n: int, w, ctx: OperatorContext, cache: ActionCache):
    """(L(-1)u)_n w + n * u_{n-1} w, which must vanish identically.

    L(-1)u is the zeroth product of the conformal vector with u.
    """
    _check_cache(ctx, cache)
    du = cache.adjoint_product(conformal_vector(ctx.cfg), 0, u)
    return cache.act(du, n, w) + n * cache.act(u, n - 1, w)
