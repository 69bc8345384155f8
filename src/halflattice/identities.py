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
inner pairs, at whose support tops they cut their sums, and the outer
fields on its inner products, so a repeated product is found without
hashing a state.
The memo also holds the triple's weight top C.  A term of u_j x has Fock
weight wt u + wt x - j - 1 - p0(alpha_u), with z^p0 the context's charge
power (the balance of ``vertex.truncation_bound``), so every term on both
sides of the component identity at (m, n, k) has Fock weight
wt u + wt v + wt w - m - n - k - 2 - p0_u - p0_v.  In a module context the
inner product u_b v is taken in the adjoint, where it has weight
wt u + wt v - b - 1, and its charge alpha_u + alpha_v has the charge power
p0_u + p0_v, so the associator side balances the same way.  A Fock weight
is never negative, so both sides vanish when m + n + k exceeds
C = max(wt u - p0) + max(wt v - p0) + max(wt w) - 2, and the Borcherds
and locality residuals return the shared zero there before they touch a
field; a zero u, v or w cuts every index.
Where an inner product is zero the memo prepares no outer field and the
residuals skip the term; past an outer field's ``top`` its form is empty,
so they read none there either, and a residual with no terms is the
context's shared zero.  The Borcherds, locality, d-derivative and Virasoro
residuals read each coefficient from its field's table of integer forms,
none past the field's ``top``, and sum them with ``combination.add_scaled``,
so a zero residual builds no ``Fraction``.  The Borcherds and locality sums
read each window's binomials as one row, taken once per (r, last).  The
Heisenberg residual caches only its inner actions h(n) s; its two outer
modes add into one terms dict through ``vertex.mode_into``, so it builds
one element per residual.

Three identities tie residuals at different indices together, whatever the
values u_j x and h(n) s are, so a sweep decides a whole orbit of residuals
from one of them (``SuiteReport.sweep``):

- The Pascal recursion.  Each of the three sums of the component identity
  at (m, n, k) obeys S(m+1, n, k) = S(m, n+1, k) + S(m, n, k+1), by
  Pascal's rule C(r+1, i) = C(r, i) + C(r, i-1) on C(n, i) and C(m, i),
  as long as each sum runs over every i whose term can be nonzero, which
  the cuts at the inner fields' tops keep.  It is the coefficient form of
  (z1 - z2 - z0) z0^-1 delta((z1 - z2)/z0) = 0 and its two partners in
  [FLM]'s formal calculus.  So the Borcherds residual R obeys it too, and
  on a box [lo, hi]^3 its values on the faces n = lo, m = hi and k = hi
  fix it everywhere, by induction on n through
  R(m, n+1, k) = R(m+1, n, k) - R(m, n, k+1): off those faces m + 1 and
  k + 1 are still in the box.  The three terms have the same m + n + k, so
  the weight-top cut zeroes all three or none.
- Antisymmetry of the bracket.  heisenberg_residual(h2, n, h1, m) is
  -heisenberg_residual(h1, m, h2, n): the two outer terms trade places,
  and at m + n = 0 the central term -m (h1, h2) becomes -n (h2, h1) =
  m (h1, h2), since the pairing is symmetric.
- The locality swap.  locality_residual(v, u, w, q, p, N) is
  -(-1)^N locality_residual(u, v, w, p, q, N): the two sums trade places
  term by term, each picking up that sign.

A residual off the faces is a signed sum of face residuals, and a mirrored
one is plus or minus its representative, so each vanishes when those do;
the identities are checked on nonzero residuals of operator data that is
not an algebra in ``tests/test_identities.py``.
"""

from __future__ import annotations

from functools import lru_cache
from math import inf

from .combination import accumulate, add_scaled, divided, numerators
from .fock import VElement, fock_weight
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
    coefficient shares its pair's annihilation halves.  ``add_form`` adds
    from a field's table of integer forms, reading none at a zero scalar or
    past its ``top``; ``act`` and ``adjoint_product`` read the elements
    divided back from it.  Heisenberg modes h(n) s are keyed by their
    arguments.

    ``triple(u, v, w)`` is the memo that the Borcherds and locality
    residuals of one triple read by integer index: for each inner index b
    the outer fields u on v_b w, v on u_b w and u_b v on w, which are the
    table's own fields.  The residuals' sums stop at the ``top`` of the
    inner pair fields (v, w), (u, w) and, in the adjoint, (u, v); the
    adjoint one is prepared only when a residual asks for it.  A zero inner
    product is stored as None and prepares no outer field, since x_a 0 = 0.
    The memo's last entry is the triple's weight top C, taken once from the
    terms' Fock weights and ``ctx.charge_power``: past it, at
    m + n + k > C, both sides of the component identity vanish (see the
    module docstring), so the residuals read nothing there.
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

    def add_form(self, out: dict, den: int, c, u: VElement, n: int, w) -> int:
        """Add c times u_n w, as its field's ``integer_form``, into the
        integer numerators out over den and return their new denominator;
        at c = 0, or past the field's ``top``, where u_n w = 0, no form is
        read."""
        if not c:
            return den
        field = _field(self._fields, u, w, self.ctx)
        return add_scaled(out, den, c, field.integer_form(n)) if n <= field.top else den

    def adjoint_product(self, u: VElement, n: int, v: VElement) -> VElement:
        return _field(self._adjoint, u, v, self.adj).coefficient(n)

    def mode(self, h: LatticeVector, n: int, s):
        key = (h, n, s)
        hit = self._modes.get(key)
        if hit is None:
            hit = self._modes[key] = apply_heisenberg_mode(h, n, s, self.ctx)
        return hit

    def triple(self, u: VElement, v: VElement, w) -> tuple:
        """The memo of (u, v, w): the ``_Outer`` maps (u_on_vw, v_on_uw,
        uv_on_w) and the triple's weight top, -inf when u, v or w is zero."""
        key = (u, v, w)
        memo = self._triples.get(key)
        if memo is None:
            # the maps hold the tables, not the cache, so that the cache
            # is freed by reference counting, not by a cycle collection
            fields, adjoint, ctx, adj = self._fields, self._adjoint, self.ctx, self.adj
            top = -inf
            if u and v and w:
                power = ctx.charge_power
                top = (max(fock_weight(word) - power(alpha) for word, alpha in u.terms)
                       + max(fock_weight(word) - power(alpha) for word, alpha in v.terms)
                       + max(fock_weight(word) for word, _ in w.terms) - 2)
            memo = self._triples[key] = (
                _Outer((fields, v, w, ctx), lambda x: _field(fields, u, x, ctx)),
                _Outer((fields, u, w, ctx), lambda x: _field(fields, v, x, ctx)),
                _Outer((adjoint, u, v, adj), lambda x: _field(fields, x, w, ctx)),
                top,
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
    (p, k, q), after i -> k - i in the second sum, so it is zero past the
    triple's weight top.
    """
    if k_order < 0:
        raise ValueError("locality order must be nonnegative")
    _check_cache(ctx, cache)
    memo = cache.triple(u, v, w)
    if p + k_order + q > memo[3]:
        return ctx.zero
    return ctx.element(divided(*_commutator_sum(memo, p, k_order, q)))


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

    with every sum finite by truncation, and both sides zero past the
    triple's weight top.
    """
    _check_cache(ctx, cache)
    memo = cache.triple(u, v, w)
    if m + n + k > memo[3]:
        return ctx.zero
    out, den = _commutator_sum(memo, m, n, k)
    # the inner product u_{n+i} v lives in the adjoint context, so its
    # support top is the one taken there
    uv_on_w = memo[2]
    for i, b in enumerate(_binomials(m, uv_on_w.inner().top - n)):
        field = uv_on_w[n + i]
        if field is not None and m + k - i <= field.top:
            den = add_scaled(out, den, -b, field.integer_form(m + k - i))
    return ctx.element(divided(out, den))


def _commutator_sum(memo: tuple, m: int, n: int, k: int) -> tuple:
    """sum_{i>=0} (-1)^i C(n,i) [u_{m+n-i} (v_{k+i} w) - (-1)^n v_{n+k-i} (u_{m+i} w)]
    as (integer numerators, denominator), read from the memo of (u, v, w) and
    cut off past both inner fields' tops, where both inner actions vanish."""
    u_on_vw, v_on_uw, _, _ = memo
    out, den = {}, 1  # integer numerators over den
    i_max = max(u_on_vw.inner().top - k, v_on_uw.inner().top - m)
    sign_n = -1 if n % 2 else 1
    for i, b in enumerate(_binomials(n, i_max)):
        c = -b if i % 2 else b
        field = u_on_vw[k + i]
        if field is not None and m + n - i <= field.top:
            den = add_scaled(out, den, c, field.integer_form(m + n - i))
        field = v_on_uw[m + i]
        if field is not None and n + k - i <= field.top:
            den = add_scaled(out, den, -c * sign_n, field.integer_form(n + k - i))
    return out, den


@lru_cache(maxsize=None)
def _binomials(r: int, last: int) -> tuple:
    """gbinom(r, i) for i = 0..last, ending at i = r for r >= 0, past which
    they vanish: a window's binomials, taken once per (r, last) rather than
    once per residual."""
    return tuple(gbinom(r, i) for i in range(min(last, r) + 1 if r >= 0 else last + 1))


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
    charge 2*nu in the standard normalization; (m^3 - m)/6 is an integer,
    as (m-1) m (m+1) is divisible by 6.
    """
    _check_cache(ctx, cache)
    omega = conformal_vector(ctx.cfg)
    out, den = {}, 1  # integer numerators over den
    for c, a, b in ((1, m, n), (-1, n, m)):
        den = cache.add_form(out, den, c, omega, a + 1, cache.act(omega, b + 1, s))
    den = cache.add_form(out, den, n - m, omega, m + n + 1, s)
    if m + n == 0:
        den = add_scaled(out, den, (m - m**3) // 6 * ctx.cfg.nu, numerators(s.terms))
    return ctx.element(divided(out, den))


def d_derivative_residual(u: VElement, n: int, w, ctx: OperatorContext, cache: ActionCache):
    """(L(-1)u)_n w + n * u_{n-1} w, which must vanish identically.

    L(-1)u is the zeroth product of the conformal vector with u.
    """
    _check_cache(ctx, cache)
    du = cache.adjoint_product(conformal_vector(ctx.cfg), 0, u)
    out, den = {}, 1  # integer numerators over den
    den = cache.add_form(out, den, 1, du, n, w)
    den = cache.add_form(out, den, n, u, n - 1, w)
    return ctx.element(divided(out, den))
