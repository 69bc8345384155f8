"""Coefficientwise identity checkers for the vertex operator calculus.

Every checker returns the residual of its identity at one choice of
coefficient indices: an exact combination over the rationals that is zero
exactly when the identity holds there.  Sweeping the indices and deciding
pass or fail is left to the caller (``SuiteReport.sweep``).  The checkers
that evaluate fields or Heisenberg modes take an ``ActionCache`` built for
their context, and raise ``ValueError`` on a cache built for another one.
The cache prepares one ``Field`` per (u, w), which keeps its coefficients,
so a sweep shares each pair's annihilation side across every n and computes
each u_n w or h(n) s once.  The Borcherds and locality residuals of a
triple (u, v, w) read one memo of it by integer index: the fields of its
inner pairs, whose truncation bounds they read, and the outer fields on its
inner products, so a repeated product is found without hashing a state.
Where an inner product is zero the memo prepares no outer field and the
residuals skip the term.  These two residuals add their terms as ``int``s:
each coefficient they read comes as its field's ``integer_form``, integer
numerators over the lcm d of its denominators.  A residual sums c times
those numerators into one dict over a running denominator D, rescaling the
dict to lcm(D, d) when d does not divide D, and divides only the surviving
terms back by D, so a zero residual builds no ``Fraction``.  Their sums
read each window's binomials as one row, taken once per (top, count).  The
Heisenberg residual caches only its inner actions h(n) s; its two outer
modes add into one terms dict through ``vertex.mode_into``, so it builds one
element per residual.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

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
    mode_into,
)


class ActionCache:
    """Memoized fields and Heisenberg modes for one context (plus its
    adjoint side).

    It prepares one ``Field`` per (u, w) in the context and one per (u, v)
    in the adjoint, and each field keeps the coefficients it has computed;
    when the context is the adjoint itself, the two are one table.  Every
    coefficient shares its pair's annihilation halves.  Heisenberg modes
    h(n) s are keyed by their arguments.

    ``triple(u, v, w)`` is the memo that the Borcherds and locality
    residuals of one triple read by integer index: for each inner index b
    the outer fields u on v_b w, v on u_b w and u_b v on w, which are the
    table's own fields.  The truncation bounds are read off the inner pair
    fields (v, w), (u, w) and, in the adjoint, (u, v); the adjoint one is
    prepared only when a residual asks for it.  A zero inner product is
    stored as None and prepares no outer field, since x_a 0 = 0.
    """

    def __init__(self, ctx: OperatorContext):
        self.ctx = ctx
        self.adj = adjoint_context(ctx.cfg)
        self._fields: dict = {}  # (u, w) -> Field in ctx
        self._adjoint: dict = self._fields if ctx is self.adj else {}  # (u, v) -> Field in adj
        self._modes: dict = {}
        self._triples: dict = {}  # (u, v, w) -> its memo, see triple

    def act(self, u: VElement, n: int, w):
        return _field(self._fields, u, w, self.ctx).coefficient(n)

    def adjoint_product(self, u: VElement, n: int, v: VElement) -> VElement:
        return _field(self._adjoint, u, v, self.adj).coefficient(n)

    def mode(self, h: LatticeVector, n: int, s):
        key = (h, n, s)
        hit = self._modes.get(key)
        if hit is None:
            hit = self._modes[key] = apply_heisenberg_mode(h, n, s, self.ctx)
        return hit

    def triple(self, u: VElement, v: VElement, w) -> tuple:
        """The memo of (u, v, w): the ``_Outer`` maps (u_on_vw, v_on_uw, uv_on_w)."""
        key = (u, v, w)
        memo = self._triples.get(key)
        if memo is None:
            # the maps hold the tables, not the cache, so that the cache
            # is freed by reference counting, not by a cycle collection
            fields, adjoint, ctx, adj = self._fields, self._adjoint, self.ctx, self.adj
            memo = self._triples[key] = (
                _Outer((fields, v, w, ctx), lambda x: _field(fields, u, x, ctx)),
                _Outer((fields, u, w, ctx), lambda x: _field(fields, v, x, ctx)),
                _Outer((adjoint, u, v, adj), lambda x: _field(fields, x, w, ctx)),
            )
        return memo


class _Outer(dict):
    """Inner index b -> the outer field on the b-th inner product x_b y,
    prepared on first use, or None when that product is zero.  ``inner()``
    is the field of x on y, itself prepared on first use."""

    __slots__ = ("_pair", "_inner", "_outer")

    def __init__(self, pair: tuple, outer):
        super().__init__()
        self._pair = pair  # (table, x, y, ctx) of the inner field
        self._inner = None
        self._outer = outer  # nonzero inner product -> its outer field

    def inner(self) -> Field:
        if self._inner is None:
            self._inner = _field(*self._pair)
        return self._inner

    def __missing__(self, b: int):
        x = self.inner().coefficient(b)
        entry = self[b] = self._outer(x) if x.terms else None
        return entry


def _field(fields: dict, u: VElement, w, ctx: OperatorContext) -> Field:
    """The field of (u, w) in its table, prepared on first use."""
    field = fields.get((u, w))
    if field is None:
        field = fields[(u, w)] = Field(u, w, ctx)
    return field


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
    return _divided(ctx, *_commutator_sum(cache.triple(u, v, w), p, k_order, q))


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
    memo = cache.triple(u, v, w)
    out, den = _commutator_sum(memo, m, n, k)
    # the inner product u_{n+i} v lives in the adjoint context, so its
    # truncation bound is the one taken there
    uv_on_w = memo[2]
    j_max = max(uv_on_w.inner().bound - n, 0)
    if m >= 0:
        j_max = min(j_max, m)
    for i, b in enumerate(_binomials(m, j_max + 1)):
        field = uv_on_w[n + i]
        if field is not None:
            den = _add_scaled(out, den, -b, field.integer_form(m + k - i))
    return _divided(ctx, out, den)


def _commutator_sum(memo: tuple, m: int, n: int, k: int) -> tuple:
    """sum_{i>=0} (-1)^i C(n,i) [u_{m+n-i} (v_{k+i} w) - (-1)^n v_{n+k-i} (u_{m+i} w)]
    as (integer numerators, denominator), read from the memo of (u, v, w) and
    cut off where both inner actions vanish by truncation."""
    u_on_vw, v_on_uw, _ = memo
    out, den = {}, 1  # integer numerators over den
    i_max = max(u_on_vw.inner().bound - k, v_on_uw.inner().bound - m, 0)
    if n >= 0:
        i_max = min(i_max, n)
    sign_n = -1 if n % 2 else 1
    for i, b in enumerate(_binomials(n, i_max + 1)):
        c = -b if i % 2 else b
        field = u_on_vw[k + i]
        if field is not None:
            den = _add_scaled(out, den, c, field.integer_form(m + n - i))
        field = v_on_uw[m + i]
        if field is not None:
            den = _add_scaled(out, den, -c * sign_n, field.integer_form(n + k - i))
    return out, den


@lru_cache(maxsize=None)
def _binomials(top: int, count: int) -> tuple:
    """gbinom(top, i) for i < count: a window's binomials, taken once per
    (top, count) rather than once per residual."""
    return tuple(gbinom(top, i) for i in range(count))


def _add_scaled(out: dict, den: int, c: int, form: tuple) -> int:
    """Add c times an integer form (terms, numerators, d) into out, integer
    numerators over den, in place, rescaling out to lcm(den, d) first when d
    does not divide den; return the denominator of the sum."""
    terms, nums, d = form
    if den % d:
        scale = d // gcd(den, d)
        for t in out:
            out[t] *= scale
        den *= scale
    c *= den // d
    for t, x in zip(terms, nums):
        accumulate(out, t, c * x)
    return den


def _divided(ctx: OperatorContext, out: dict, den: int):
    """The element of the integer numerators out over den."""
    return ctx.element(out if den == 1 else {t: Fraction(x, den) for t, x in out.items()})


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

    Only the inner actions h2(n) s and h1(m) s, which a sweep repeats, are
    cached; taking them checks the ranks of h1 and h2 and the type of s.
    The outer modes add h1(m) and -h2(n) on their terms straight into one
    terms dict with ``mode_into``, so a residual builds one element.
    """
    _check_cache(ctx, cache)
    h2s = cache.mode(h2, n, s).terms
    h1s = cache.mode(h1, m, s).terms
    out: dict = {}
    mode_into(out, 1, h1, m, h2s, ctx)
    mode_into(out, -1, h2, n, h1s, ctx)
    if m + n == 0:
        c = -m * ctx.cfg.pairing(h1, h2)
        if c:
            for t, x in s.terms.items():
                accumulate(out, t, c * x)
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
