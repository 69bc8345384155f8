"""Exact coefficient extraction for vertex operators on the half-lattice algebra.

For a state u = h_1(-n_1)...h_s(-n_s) e^alpha the field acting on a target
space is the normal-ordered product of the derivative fields of the h_i(z)
with the exponential dressing of the lattice operator for e^alpha:

    E^-(-alpha, z) E^+(-alpha, z) e^alpha z^alpha,
    E^{+-}(beta, z) = exp( sum_{n in +-N} beta(n) z^{-n} / n ).

Nothing here materializes a series: a ``Field`` prepares the field of u on
one state w, and ``integer_form(n)`` extracts one z-power of it, which the
field keeps for the next ask of the same n; past the field's ``top``, the
end of its own support, every z-power is zero and nothing is computed.
Normal ordering places creation modes and the charge shift to the left of
zero modes, which sit to the left of annihilation modes; the scalar power z^alpha
acts as z to the pairing of alpha with the module weight (zero on the
algebra itself, where the charge lattice is isotropic).  So each coefficient
splits in two halves.  The annihilation half is enumerated by annihilation
pattern: each field of u either creates or acts with a mode j >= 0.  A
positive mode contracts only with a factor of the same mode in the partner
direction (c_i with d_i), so the patterns offer a field only the modes
that the target word holds in its partner direction, and a c-direction zero
mode multiplies by the scalar (c_i, lam), so it is offered only where that
pairing is nonzero: never on the algebra itself.  Every pattern left out
would annihilate the state.  The context keeps the live patterns of each
(u word, target word) pair, so every field it prepares reads them from one
enumeration.  Per pattern the contractions and zero modes, then the
charge shift, run once, and the annihilation dressing once per level a;
none depends on n.  The contractions and the dressing act on words only,
the zero modes and the charge shift on labels only, so each of the first
two commutes with each of the last two; the zero modes still act before
the charge shift, with which they do not commute.  The creation
half, everything left of the charge shift, depends only on the creating
fields, alpha and the z-power L it must supply, and is the cached closed form

    sum over m_i >= n_i, sum m_i <= L, of
        prod_i C(m_i-1, n_i-1) h_i(-m_i)  *  h_(L - sum m_i)(alpha),

where h_p(alpha) is level p of the creation dressing below.  A field adds
in Python ``int``s from setup to coefficient, in the integer form of
``combination``: its groups, its creation closed forms (over a denominator
dividing L!) and each coefficient are integer numerators over one
denominator, kept as the field's one table of n.  A coefficient multiplies
each group's states by its creation half in ``fock.add_products``, the one
merge-and-add loop, which ``dressing``'s creation side shares.

Words are ``fock``'s coded words, tuples of factor codes in canonical
order.  The engine merges two words by one plain sort (``merge_words``;
``add_products`` skips it when either word is empty), hashes them as tuples
of ints, and builds a factor with ``fock.encode``.  A contraction matches
codes: h(n), n > 0, removes one factor whose code is that of (partner
direction, n) and scales by how many the word holds.  Only a rule
that reads a factor's direction or mode decodes it with ``fock.decode``: the
annihilation patterns and the creation half, which read u's fields, and the
annihilation dressing, which reads the target's d-factors.

A single mode of one lattice direction (creation, contraction or zero mode)
has one rule, ``_dir_mode``, which adds x times that mode on a terms dict
straight into a caller's dict, with the scalar that multiplies every term
folded once before the term loop.  A ``Field`` runs it into a fresh dict for
its contraction and zero modes; ``mode_into`` runs it over the nonzero
coordinates of h, its ``support``, into the caller's dict, so a caller that
composes modes, such as the Heisenberg residual, builds no element per mode;
``apply_heisenberg_mode`` wraps its result in one element.

Targets are selected by an ``OperatorContext``, which acts on M(1) tensor W
for a coefficient module W handled by duck-typed label actions.  The adjoint
is the weight module through the origin: the algebra acting on itself is
M(1) tensor C[L_C] at weight zero.  ``dressing`` is the one expansion of
E^{+-}(-alpha, z), shared with the transport operators of the bridge, and
it uses two cached closed forms instead of a sum over partitions.  The
z^p coefficient of E^-(-alpha, z) is the complete symmetric function h_p of
the power sums alpha(-m) (Macdonald, Symmetric Functions and Hall
Polynomials, I.2), built by Newton's identity once per (alpha, p).
E^+(-alpha, z) shifts each d_i(-m) factor by -k alpha_i z^(-m), so its
z^(-p) coefficient on a word removes the sets of d-factors of total mode
p, with the product of their -k alpha_i, cached per (word, alpha, k, p).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .combination import accumulate, add_scaled, divided, numerators, rational, reduce, rescale
from .fock import (ModuleElement, VElement, act_on_labels, add_products, decode, encode,
                   fock_weight, merge_words)
from .lattice import LatticeConfig, LatticeVector, WeightModule


class OperatorContext:
    """Where vertex operators act: the Fock module M(1) tensor W at weight lam.

    A context carries the weight vector lam, a coefficient-module handle
    exposing its lattice ``cfg``, which the context takes as its own, and
    ``e_action(charge, label)`` and ``d_action(j, label)`` for the 1-based
    index j of d_j, both returning lists of (coefficient, label) pairs, and
    the zero state of the target space, from which every result is built
    and whose ``_check`` is the one target check: a ``VElement`` of the
    context's rank, or a ``ModuleElement`` of its module.  It owns the
    integer pairings (c_i, lam) = k lam_i, the c_i zero-mode scalars behind
    every charge power z^alpha, and rejects a lam whose pairing with some
    c_i is not an integer.  It memoizes per target, never across contexts:
    the charge powers, and the live annihilation patterns of each (u word,
    target word) pair, which depend on the pairings.  The adjoint is the
    weight module through the origin: the algebra acting on itself is M(1)
    tensor C[L_C] at lam = 0, where e_beta translates a charge and d_i acts
    by its pairing with it, and its states are ``VElement``s.
    """

    __slots__ = ("cfg", "lam", "handle", "zero", "pairings", "_powers", "_patterns")

    def __init__(self, lam: LatticeVector, handle, zero):
        self.cfg = cfg = handle.cfg
        self.lam = lam
        self.handle = handle
        self.zero = zero
        self.pairings = tuple(rational(cfg.k * lam_i) for lam_i in lam.d)
        for i, value in enumerate(self.pairings):
            if type(value) is not int:
                raise ValueError(f"(c{i + 1}, lam) = {value} is not an integer; "
                                 "module weights must pair integrally with every charge")
        self._powers: dict = {}
        self._patterns: dict = {}

    def charge_power(self, charge: tuple) -> int:
        """Exponent of the scalar power shift z^alpha for this target (memoized)."""
        power = self._powers.get(charge)
        if power is None:
            power = self._powers[charge] = sum(m * p for m, p in zip(charge, self.pairings))
        return power

    def patterns(self, fields: tuple, word: tuple) -> tuple:
        """The live annihilation patterns of u's coded word fields on the
        target word, memoized per (fields, word) pair, as rows (modes,
        coefficient, creating fields, drawn): modes the (direction, j) of
        the fields that do not create, in field order, and drawn the sum of
        their positive j.  ``_annihilation_patterns`` enumerates them once,
        with this context's pairings."""
        key = (fields, word)
        rows = self._patterns.get(key)
        if rows is None:
            rows = []
            for js, coeff in _annihilation_patterns(fields, word, self.pairings):
                modes = tuple((decode(f)[0], j) for f, j in zip(fields, js) if j is not None)
                creating = tuple(f for f, j in zip(fields, js) if j is None)
                rows.append((modes, coeff, creating, sum(j for _, j in modes)))
            rows = self._patterns[key] = tuple(rows)
        return rows

    def element(self, terms: dict):
        """The element of terms, or the shared ``zero`` for none (never mutated)."""
        return self.zero._make(terms) if terms else self.zero

    def state_of_label(self, label):
        return self.element({((), self.handle.validate_label(label)): 1})


@lru_cache(maxsize=None)
def adjoint_context(cfg: LatticeConfig) -> OperatorContext:
    """The algebra acting on itself: the weight module through the origin.

    Built once per lattice and shared: a context holds only its lattice, the
    module, the zero state and a memo of charge powers.
    """
    return OperatorContext(cfg.zero(), WeightModule(cfg), VElement(cfg.nu, {}))


def module_operator_context(lam: LatticeVector, handle) -> OperatorContext:
    """Validate the weight vector and attach the coefficient module.

    The context takes the module's lattice.  The weight must have its rank,
    zero c-coordinates and pair integrally with every charge, which pins its
    d-coordinates to multiples of 1/k.
    """
    if lam.nu != handle.cfg.nu:
        raise ValueError("weight vector rank does not match the module's lattice")
    if any(a != 0 for a in lam.c):
        raise ValueError("module weights must have zero c-coordinates")
    return OperatorContext(lam, handle, ModuleElement(handle, {}))


# -- Heisenberg modes --------------------------------------------------------------


def apply_heisenberg_mode(h: LatticeVector, n: int, s, ctx: OperatorContext):
    """Apply the mode h(n) to a state, as one element.

    Raises ``ValueError`` on a vector of another rank, and the target check
    of ``ctx.zero._check`` on a state that is not a target of the context.
    """
    if h.nu != ctx.cfg.nu:
        raise ValueError("vector rank does not match the lattice")
    ctx.zero._check(s)
    out: dict = {}
    mode_into(out, 1, h, n, s.terms, ctx)
    return ctx.element(out)


def mode_into(out: dict, scale, h: LatticeVector, n: int, terms: dict, ctx: OperatorContext) -> None:
    """Add scale times h(n) on the terms dict terms into the terms dict out, in place.

    The mode is linear in h: the sum, over the (direction, coordinate x)
    pairs of ``h.support``, of x times the mode of that direction, which
    ``_dir_mode`` adds straight into out.  Neither h's rank nor the state's
    class and shape is checked here; a caller that composes modes checks
    them once, as ``apply_heisenberg_mode`` does.
    """
    for dir_, x in h.support:
        _dir_mode(out, x * scale, dir_, n, terms, ctx)


# -- combinatorial helpers ----------------------------------------------------------


def gbinom(top: int, k: int) -> int:
    """Generalized binomial coefficient with integer (possibly negative) top."""
    if k < 0:
        return 0
    if top >= 0:
        return comb(top, k) if k <= top else 0
    num = 1
    for t in range(k):
        num *= top - t
    return num // factorial(k)


# -- the exponential dressing ---------------------------------------------------------


def dressing(cfg: LatticeConfig, states: dict, alpha: tuple, p: int, side: int) -> dict:
    """Level p of exp(side * sum_{m>0} alpha(-side*m) z^{side*m} / m) on states.

    Level p is the coefficient of z^(side*p), in one of two closed forms.
    side = 1 is the creation half E^-(-alpha, z): the alpha(-m) commute, so
    level p is the complete symmetric function h_p of the power sums
    alpha(-m) (Macdonald, Symmetric Functions and Hall Polynomials, I.2),
    a fixed combination of c-direction creation words merged into each
    state by ``fock.add_products``, read from ``_creation_half`` with no
    creating field in ``combination``'s integer form and divided back.
    side = -1 is
    the annihilation half E^+(-alpha, z): alpha lies in the charge lattice,
    so alpha(m) removes one d_i(-m) factor with weight m k alpha_i, and the
    exponential shifts every d_i(-m) factor by -k alpha_i z^(-m); level p
    removes each set of d-factors of total mode p with the product of their
    -k alpha_i.  Both states and the result map (Fock word, label) keys to
    coefficients; level 0 is the identity and returns states itself.
    """
    if p == 0:
        return states
    out: dict = {}
    if side > 0:
        level, den = _creation_half((), alpha, p)
        out = divided(add_products(out, states.items(), level), den)
    else:
        for (word, label), c in states.items():
            for rest, q in _annihilation_level(word, alpha, cfg.k, p):
                accumulate(out, (rest, label), c * q)
    return out


@lru_cache(maxsize=None)
def _annihilation_level(word: tuple, alpha: tuple, k: int, p: int) -> tuple:
    """Level p of E^+(-alpha, z) on one word, as (remaining word, coefficient) pairs."""
    nu = len(alpha)
    out: dict = {}

    def remove(start: int, left: int, kept: tuple, coeff: int):
        if left == 0:
            accumulate(out, kept + word[start:], coeff)
            return
        for pos in range(start, len(word)):
            dir_, mode = decode(word[pos])
            a_i = alpha[dir_ - nu] if dir_ >= nu else 0
            if a_i and mode <= left:
                remove(pos + 1, left - mode, kept + word[start:pos], -k * a_i * coeff)

    remove(0, p, (), 1)
    return tuple(out.items())


# -- the coefficient engine -----------------------------------------------------------


class Field:
    """The field of u prepared on w: every coefficient u_n w from one setup.

    For each term h_1(-n_1)...h_s(-n_s) e^alpha of u and each term of w of
    Fock weight b, the field h_i(-n_i) contributes its modes
    gbinom(-j-1, n_i-1) h_i(j) z^(-j-n_i), and the sum splits in two halves.
    The setup enumerates the rows once: a term pair and a live annihilation
    pattern (each field either creates or acts with a mode j >= 0, the
    positive modes drawing at most b), read from the context's memo
    ``ctx.patterns`` with its creating fields and drawn modes.  A row's
    annihilation half does not depend on n: the setup runs the contractions
    and zero modes, then the charge shift, once per row, and the
    annihilation dressing once per (row, a).  Only the creation half
    depends on n: it is the cached closed form ``_creation_half`` of the
    creating fields and alpha at the level L = J - n that balances z, where
    J = wt(u) - 1 - p0 + (sum of positive modes) + a and z^p0 is the scalar
    charge power.  Each row runs on the integer pattern coefficient; the
    setup adds cu cw times it into its group, one sum per (creating fields,
    alpha, J) in ``combination``'s integer form, and keeps the nonzero sums.
    A group vanishes for n > J - (weight of its creating fields), and
    ``top`` is the largest of these (-1 with no group): u_n w = 0 for every
    n > top.  ``integer_form(n)`` merges each group whose creation half at
    J - n is nonzero into every word of that group by ``fock.add_products``,
    adding ``int``s, and keeps the form in the field's one table of n;
    ``coefficient(n)`` divides it back once, for callers that need an
    element.  Past top both answer empty, computing and keeping nothing, so
    the sums of forms read none there.  u is a ``VElement`` of the
    context's rank, and w passes the target check ``ctx.zero._check``.
    """

    __slots__ = ("ctx", "top", "_groups", "_forms", "_elements")

    def __init__(self, u: VElement, w, ctx: OperatorContext):
        if not isinstance(u, VElement):
            raise TypeError("the acting state must be a VElement")
        if u.nu != ctx.cfg.nu:
            raise ValueError(f"the acting state has rank {u.nu}, the context {ctx.cfg.nu}")
        ctx.zero._check(w)
        self.ctx = ctx
        cfg = ctx.cfg
        # (creating fields, alpha, J) -> [integer numerators, denominator]
        # of the summed annihilation halves
        sums: dict = {}
        for (ufock, alpha), cu in u.terms.items():
            j0 = fock_weight(ufock) - 1 - ctx.charge_power(alpha)  # J at no drawn mode, a = 0
            charged = any(alpha)
            for (wfock, label), cw in w.terms.items():
                budget = fock_weight(wfock)
                cuw = cu * cw
                for modes, coeff, creating, drawn in ctx.patterns(ufock, wfock):
                    states = {(wfock, label): coeff}
                    for dir_, j in modes:
                        if states:
                            states = _dir_mode({}, 1, dir_, j, states, ctx)
                    # zero modes act before the charge shift
                    if states and charged:
                        states = act_on_labels({}, 1, states, ctx.handle.e_action, alpha)
                    if not states:
                        continue
                    for a in range((budget - drawn if charged else 0) + 1):
                        mid = dressing(cfg, states, alpha, a, -1)
                        if mid:
                            group = sums.setdefault((creating, alpha, j0 + drawn + a), [{}, 1])
                            group[1] = add_scaled(group[0], group[1], cuw, numerators(mid))
        groups = []
        for (creating, alpha, shift), (nums, den) in sums.items():
            if nums:
                den = reduce(nums, den)
                # the creation half at level J - n is zero below the creating
                # fields' weight, so the group vanishes past its own top
                groups.append((creating, alpha, shift, shift - fock_weight(creating),
                               tuple(nums.items()), den))
        self._groups = tuple(groups)
        self.top = max((g[3] for g in groups), default=-1)
        self._forms: dict = {}  # n -> the integer form of u_n w, as computed so far
        self._elements: dict = {}  # n -> u_n w, for the n asked as elements

    def integer_form(self, n: int) -> tuple:
        """u_n w in ``combination``'s integer form, computed on the first
        ask of n <= top: integer numerators over a running denominator,
        reduced by their gcd once."""
        form = self._forms.get(n)
        if form is None:
            if n > self.top:
                return {}, 1
            out, den = {}, 1  # integer numerators over den
            for creating, alpha, shift, top, mid, d in self._groups:
                if n > top:
                    continue
                half, hd = _creation_half(creating, alpha, shift - n)
                d *= hd
                den = rescale(out, den, d)
                add_products(out, mid, half, den // d)
            form = self._forms[n] = (out, reduce(out, den))
        return form

    def coefficient(self, n: int):
        """The coefficient u_n w of z^(-n-1): its integer form divided back
        on the first ask of n, only a value that is not whole as a
        ``Fraction``."""
        element = self._elements.get(n)
        if element is None:
            if n > self.top:
                return self.ctx.zero
            element = self._elements[n] = self.ctx.element(divided(*self.integer_form(n)))
        return element


def y_coefficient(u: VElement, n: int, w, ctx: OperatorContext):
    """The coefficient u_n w of z^(-n-1) in the field of u applied to w.

    One coefficient of a ``Field`` prepared for this pair alone; callers
    that ask several n of one (u, w) prepare the field once instead.
    """
    return Field(u, w, ctx).coefficient(n)


def _annihilation_patterns(fields: tuple, word: tuple, pairings: tuple):
    """Yield (js, coefficient) for every annihilation pattern of the fields on word.

    fields is u's coded word, its factors h_i(-n_i), and word a coded target
    word.  js[i] is None where field i creates and its mode j >= 0 otherwise; the
    positive modes sum to at most the weight of word.  A mode j > 0 of a
    direction contracts only with a factor of mode j in its partner
    direction (c_i with d_i), and annihilators never create factors, so a
    positive j is offered only where word has such a factor.  A c-direction
    zero mode is the scalar (c_i, lam) of ``pairings``, one per c-direction
    (so nu is their number), and j = 0 is offered to such a field only where
    it is nonzero; a d-direction zero mode acts on the labels and is always
    offered.  Every pattern left out leaves the empty state.  The
    coefficient is the product of the derivative-field weights
    gbinom(-j-1, n_i-1) of the fields that do not create (never zero for
    j >= 0).  ``OperatorContext.patterns`` keeps what this yields.
    """
    nu = len(pairings)
    partner_modes: dict = {}  # direction -> ascending modes it can contract with
    for dir_, mode in map(decode, reversed(word)):
        modes = partner_modes.setdefault(dir_ + nu if dir_ < nu else dir_ - nu, [])
        if not modes or modes[-1] != mode:
            modes.append(mode)
    offers = []  # per field: (n_i, the js it is offered)
    for dir_, n_i in map(decode, fields):
        zero = (0,) if dir_ >= nu or pairings[dir_] else ()
        offers.append((n_i, (None, *zero, *partner_modes.get(dir_, ()))))

    def patterns(i: int, budget: int):
        if i == len(offers):
            yield (), 1
            return
        n_i, js = offers[i]
        for j in js:
            if j and j > budget:
                break
            c = 1 if j is None else gbinom(-j - 1, n_i - 1)
            for rest, rc in patterns(i + 1, budget - (j or 0)):
                yield (j, *rest), c * rc

    yield from patterns(0, fock_weight(word))


@lru_cache(maxsize=None)
def _creation_half(fields: tuple, alpha: tuple, level: int) -> tuple:
    """The creation half at level L for the creating fields, the coded
    factors h_i(-n_i) of u's word that create.

    It is the sum, over modes m_i >= n_i with sum m_i <= L, of
    prod C(m_i-1, n_i-1) h_i(-m_i) times h_(L - sum m_i) of the power sums
    alpha(-m).  With no creating field it is h_L itself, which Newton's
    identity L h_L = sum_{m=1..L} alpha(-m) h_(L-m) builds from the lower
    levels.  Every level is cached in its one representation, (pairs, den):
    (canonical word, integer numerator) pairs over one denominator den,
    which divides L!.
    """
    out, den = {}, 1  # integer numerators over den
    if not fields:
        if level == 0:
            return (((), 1),), 1
        for m in range(1, level + 1):
            half, d = _creation_half((), alpha, level - m)
            den = rescale(out, den, d)
            scale = den // d
            factors = [((encode(i, m),), a_i * scale) for i, a_i in enumerate(alpha) if a_i]
            for word, c in half:
                for factor, q in factors:
                    accumulate(out, merge_words(word, factor), c * q)
        den = reduce(out, den * level)
        return tuple(out.items()), den
    (dir_, n_i), rest = decode(fields[0]), fields[1:]
    top = level - fock_weight(rest)
    for m in range(n_i, top + 1):
        half, d = _creation_half(rest, alpha, level - m)
        den = rescale(out, den, d)
        weight = comb(m - 1, n_i - 1) * (den // d)
        factor = (encode(dir_, m),)
        for word, q in half:
            accumulate(out, merge_words(word, factor), weight * q)
    den = reduce(out, den)
    return tuple(out.items()), den


def _dir_mode(out: dict, x, dir_: int, n: int, states: dict, ctx: OperatorContext) -> dict:
    """Add x times the mode n of one direction on states into out, in place,
    and return out.

    At n < 0 the mode creates a factor.  At n > 0 it contracts via
    [h(n), h'(-n)^m] = m n (h, h') h'(-n)^(m-1): it removes one factor of
    mode n in the partner direction (c_i with d_i, paired by k) and scales
    by the m the word holds, comparing codes only.  At n = 0 a c-direction
    mode is the scalar (c_i, lam) and a d-direction mode acts on the labels,
    adding into out through ``fock.act_on_labels``.  The scalar that multiplies every
    term is folded into x before the term loop; at x = 1 the creation and
    c-direction zero modes add each coefficient itself, copying none.
    """
    nu = ctx.cfg.nu
    if n < 0:
        factor = (encode(dir_, -n),)
        for (word, label), c in states.items():
            accumulate(out, (merge_words(word, factor), label), c if x == 1 else c * x)
    elif n > 0:
        partner = encode(dir_ + nu if dir_ < nu else dir_ - nu, n)
        x *= n * ctx.cfg.k
        for (word, label), c in states.items():
            if partner in word:
                pos, m = word.index(partner), word.count(partner)
                accumulate(out, (word[:pos] + word[pos + 1 :], label),
                           c * x if m == 1 else c * (x * m))
    elif dir_ >= nu:
        act_on_labels(out, x, states, ctx.handle.d_action, dir_ - nu + 1)
    elif x := x * ctx.pairings[dir_]:  # the scalar (c_i, lam)
        for key, c in states.items():
            accumulate(out, key, c if x == 1 else c * x)
    return out


# -- derived operations -----------------------------------------------------------------


def nth_product(cfg: LatticeConfig, u: VElement, n: int, v: VElement) -> VElement:
    """The algebra product u_n v, evaluated in the adjoint context."""
    return y_coefficient(u, n, v, adjoint_context(cfg))


def truncation_bound(u: VElement, w, ctx: OperatorContext) -> int:
    """A B with u_n w = 0 for every n > B, from the weight balance.

    B is the max over term pairs of wt_u + wt_w - 1 - p0, with z^p0 the
    u-term's charge power, so B = max(wt_u - p0) + max(wt_w) - 1.  It is
    the independent oracle for a ``Field``'s ``top``, which the engine cuts
    its sums at and which must never exceed B; it often lies below it.  The
    same balance, summed over u and v, gives the weight top of a triple
    (u, v, w) past which ``identities.ActionCache.triple``'s residuals vanish.
    """
    if u.is_zero() or w.is_zero():
        return -1
    top_u = max(fock_weight(ufock) - ctx.charge_power(alpha) for ufock, alpha in u.terms)
    return top_u + max(fock_weight(wfock) for wfock, _ in w.terms) - 1


@lru_cache(maxsize=None)
def conformal_vector(cfg: LatticeConfig) -> VElement:
    """(1/k) sum_i c_i(-1) d_i(-1) applied to the degree-zero generator.

    In an orthonormal basis this is the usual sum of squares; the hyperbolic
    Gram matrix of the c/d basis turns that sum into paired c/d factors.
    Built once per lattice, like ``adjoint_context``.
    """
    q = Fraction(1, cfg.k)
    # c_i(-1) d_i(-1) is canonical as written: one mode, ascending directions
    return adjoint_context(cfg).element(
        {((encode(i, 1), encode(cfg.nu + i, 1)), (0,) * cfg.nu): q for i in range(cfg.nu)})
