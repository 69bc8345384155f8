"""Exact coefficient extraction for vertex operators on the half-lattice algebra.

For a state u = h_1(-n_1)...h_s(-n_s) e^alpha the field acting on a target
space is the normal-ordered product of the derivative fields of the h_i(z)
with the exponential dressing of the lattice operator for e^alpha:

    E^-(-alpha, z) E^+(-alpha, z) e^alpha z^alpha,
    E^{+-}(beta, z) = exp( sum_{n in +-N} beta(n) z^{-n} / n ).

Nothing here materializes a series: ``y_coefficient`` extracts one z-power
of the product applied to one state, enumerating exactly the finitely many
mode combinations that can contribute.  Normal ordering places creation
modes and the charge shift to the left of zero modes, which sit to the left
of annihilation modes; the scalar power z^alpha acts as z to the pairing of
alpha with the module weight (zero on the algebra itself, where the charge
lattice is isotropic).

Targets are selected by an ``OperatorContext``: the adjoint context makes
the algebra act on itself, a module context acts on M(1) tensor W for a
coefficient module W handled by duck-typed label actions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .combination import accumulate
from .fock import ModuleElement, VElement, fock_weight, fock_word
from .lattice import LatticeConfig, LatticeVector


class OperatorContext:
    """Where vertex operators act: the algebra itself or a built module.

    A module context carries the weight vector lam (rational d-coordinates
    pairing integrally with every charge) and a coefficient-module handle
    exposing ``e_action(charge, label)`` and ``d_action(dcoeffs, label)``,
    both returning lists of (coefficient, label) pairs.
    """

    __slots__ = ("cfg", "kind", "lam", "handle", "_cache_key")

    def __init__(self, cfg: LatticeConfig, kind: str, lam: LatticeVector, handle):
        self.cfg = cfg
        self.kind = kind
        self.lam = lam
        self.handle = handle
        self._cache_key = (cfg, kind, lam, id(handle) if handle is not None else None)

    @property
    def is_adjoint(self) -> bool:
        return self.handle is None

    def cache_key(self):
        return self._cache_key

    def charge_power(self, charge: tuple) -> int:
        """Exponent of the scalar power shift z^alpha for this target."""
        value = self.cfg.k * sum(
            m * lam_d for m, lam_d in zip(charge, self.lam.d)
        )
        if value.denominator != 1:
            raise ValueError(
                f"charge {charge} pairs non-integrally ({value}) with weight {self.lam}"
            )
        return int(value)

    def e_action(self, charge: tuple, label):
        if self.handle is None:
            return [(Fraction(1), tuple(a + b for a, b in zip(label, charge)))]
        return self.handle.e_action(charge, label)

    def d_action(self, dcoeffs: tuple, label):
        """Action of sum_i dcoeffs[i] * d_i(0) on a label."""
        if self.handle is None:
            scalar = self.cfg.k * sum(q * m for q, m in zip(dcoeffs, label))
            if not scalar:
                return []
            return [(scalar, label)]
        return self.handle.d_action(dcoeffs, label)

    def zero_mode_scalar_part(self, dir_: int) -> Fraction:
        """Scalar contribution of a c-direction zero mode: (c_i, lam)."""
        return self.cfg.k * self.lam.d[dir_]

    def element(self, terms: dict):
        if self.handle is None:
            return VElement(self.cfg.nu, terms)
        return ModuleElement(terms)

    def zero_element(self):
        return self.element({})

    def state_of_label(self, label, factors=()) -> ModuleElement:
        word = fock_word(factors)
        return self.element({(word, label): Fraction(1)})


def adjoint_context(cfg: LatticeConfig) -> OperatorContext:
    return OperatorContext(cfg, "adjoint", cfg.zero(), None)


def module_operator_context(cfg: LatticeConfig, lam: LatticeVector, handle) -> OperatorContext:
    """Validate the weight vector and attach the coefficient module.

    The weight must have zero c-coordinates and pair integrally with every
    charge, which pins its d-coordinates to multiples of 1/k.
    """
    if lam.nu != cfg.nu:
        raise ValueError("weight vector rank does not match the lattice")
    if any(a != 0 for a in lam.c):
        raise ValueError("module weights must have zero c-coordinates")
    for i in range(cfg.nu):
        value = cfg.pairing(cfg.c_basis(i + 1), lam)
        if value.denominator != 1:
            raise ValueError(
                f"(c{i + 1}, lam) = {value} is not an integer; "
                "module weights must pair integrally with every charge"
            )
    return OperatorContext(cfg, "module", lam, handle)


# -- Heisenberg modes --------------------------------------------------------------


def apply_heisenberg_mode(h: LatticeVector, n: int, s, ctx: OperatorContext):
    """Apply the mode h(n) to a state.

    Negative modes prepend creation factors, positive modes contract against
    matching creation factors via [h(m), h'(-m)] = m (h, h'), and the zero
    mode splits into the scalar pairing of the c-part with the module weight
    plus the coefficient-module action of the d-part.
    """
    cfg = ctx.cfg
    if h.nu != cfg.nu:
        raise ValueError("vector rank does not match the lattice")
    out: dict = {}
    if n < 0:
        mode = -n
        for (word, label), coeff in s.terms.items():
            for i in range(cfg.nu):
                if h.c[i]:
                    accumulate(out, (fock_word(word + ((i, mode),)), label), coeff * h.c[i])
                if h.d[i]:
                    accumulate(out, (fock_word(word + ((cfg.nu + i, mode),)), label), coeff * h.d[i])
    elif n > 0:
        for (word, label), coeff in s.terms.items():
            for pos, (dir_, mode) in enumerate(word):
                if mode != n:
                    continue
                pair = cfg.pairing(h, cfg.dir_vector(dir_))
                if pair:
                    rest = word[:pos] + word[pos + 1 :]
                    accumulate(out, (rest, label), coeff * n * pair)
    else:
        for (word, label), coeff in s.terms.items():
            scalar = cfg.k * sum(a * b for a, b in zip(h.c, ctx.lam.d))
            if scalar:
                accumulate(out, (word, label), coeff * scalar)
            if any(h.d):
                for q, lab in ctx.d_action(tuple(h.d), label):
                    accumulate(out, (word, lab), coeff * q)
    return ctx.element(out)


# -- combinatorial helpers ----------------------------------------------------------


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple:
    """All partitions of n as tuples of (part, multiplicity), parts descending."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)

    def gen(remaining: int, max_part: int):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            for mult in range(remaining // part, 0, -1):
                for rest in gen(remaining - part * mult, part - 1):
                    yield ((part, mult),) + rest

    return tuple(gen(n, n))


def _exp_coeff(partition: tuple, sign: int) -> Fraction:
    """Coefficient of a multiset term of exp(sign * sum_m h(-+m) z^{...} / m)."""
    value = Fraction(1)
    for part, mult in partition:
        value *= Fraction(sign, part) ** mult / factorial(mult)
    return value


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


# -- the coefficient engine -----------------------------------------------------------


def y_coefficient(u: VElement, n: int, w, ctx: OperatorContext):
    """The coefficient u_n w of z^(-n-1) in the field of u applied to w."""
    if not isinstance(u, VElement):
        raise TypeError("the acting state must be a VElement")
    if ctx.is_adjoint and not isinstance(w, VElement):
        raise TypeError("adjoint targets must be VElements")
    if not ctx.is_adjoint and not isinstance(w, ModuleElement):
        raise TypeError("module targets must be ModuleElements")
    out: dict = {}
    for (ufock, alpha), cu in u.terms.items():
        p0 = ctx.charge_power(alpha)
        fields = list(ufock)
        u_weight = fock_weight(ufock)
        alpha_zero = not any(alpha)
        for (wfock, label), cw in w.terms.items():
            budget = fock_weight(wfock)
            e_target = -n - 1 - p0
            base = cu * cw
            for js, field_coeff in _field_assignments(fields, budget, e_target, u_weight):
                ann_used = sum(j for j in js if j > 0)
                shift_sum = sum(j + nn for j, (_, nn) in zip(js, fields))
                a_max = 0 if alpha_zero else budget - ann_used
                for a in range(a_max + 1):
                    p_minus = e_target + shift_sum + a
                    if p_minus < 0 or (alpha_zero and p_minus != 0):
                        continue
                    for pplus in _partitions(a):
                        mid = _apply_inner(
                            ctx, wfock, label,
                            base * field_coeff * _exp_coeff(pplus, -1),
                            fields, js, alpha, pplus,
                        )
                        if not mid:
                            continue
                        for pminus in _partitions(p_minus):
                            _apply_outer(
                                ctx, out, mid, _exp_coeff(pminus, 1),
                                fields, js, alpha, pminus,
                            )
    return ctx.element(out)


def _field_assignments(fields, budget: int, e_target: int, u_weight: int):
    """Yield mode assignments (j_1..j_s) with their derivative-field coefficients.

    Feasibility: positive modes may not overdraw the annihilation budget of
    the target's Fock weight, and the final creation weight required of the
    exponential dressing must come out nonnegative.
    """
    s = len(fields)
    if s == 0:
        yield (), Fraction(1)
        return
    floor_total = -e_target - budget - u_weight  # required sum of modes
    suffix_max = [0] * (s + 1)
    for i in range(s - 1, -1, -1):
        suffix_max[i] = suffix_max[i + 1] + budget

    def rec(i: int, partial: int, ann_left: int, coeff):
        if i == s:
            yield (), coeff
            return
        _, n_i = fields[i]
        lo = floor_total - partial - suffix_max[i + 1]
        for j in range(lo, ann_left + 1):
            c = gbinom(-j - 1, n_i - 1)
            if not c:
                continue
            for rest, rc in rec(i + 1, partial + j, ann_left - max(j, 0), coeff * c):
                yield (j,) + rest, rc

    yield from rec(0, 0, budget, Fraction(1))


def _apply_inner(ctx, wfock, label, coeff, fields, js, alpha, pplus):
    """Annihilators, zero modes, then the charge shift, applied right to left."""
    states = {(wfock, label): coeff}
    # annihilation modes from the derivative fields
    for (dir_, _), j in zip(fields, js):
        if j > 0 and states:
            states = _ann_dir(ctx.cfg, states, dir_, j)
    # annihilation half of the exponential dressing: powers of alpha(m)
    for part, mult in pplus:
        for _ in range(mult):
            if not states:
                break
            states = _ann_charge(ctx.cfg, states, alpha, part)
    if not states:
        return states
    # zero modes act before the charge shift
    for (dir_, _), j in zip(fields, js):
        if j == 0 and states:
            states = _zero_dir(ctx, states, dir_)
    if not states:
        return states
    if any(alpha):
        states = _apply_charge_shift(ctx, states, alpha)
    return states


def _apply_outer(ctx, out, mid, coeff, fields, js, alpha, pminus):
    """Prepend all creation factors and accumulate into the result."""
    creations = [(dir_, -j) for (dir_, _), j in zip(fields, js) if j < 0]
    states = _creation_dressing({k: v * coeff for k, v in mid.items()}, alpha, pminus)
    for (word, label), c in states.items():
        accumulate(out, (fock_word(word + tuple(creations)), label), c)


def _creation_dressing(states: dict, alpha, pminus) -> dict:
    """Apply alpha(-m) once per part m of the partition; alpha(-m) expands
    over the c-directions."""
    for part, mult in pminus:
        for _ in range(mult):
            new: dict = {}
            for (word, label), c in states.items():
                for i, m_i in enumerate(alpha):
                    if m_i:
                        accumulate(new, (fock_word(word + ((i, part),)), label), c * m_i)
            states = new
            if not states:
                return states
    return states


def _ann_dir(cfg, states, dir_: int, mode: int) -> dict:
    out: dict = {}
    for (word, label), coeff in states.items():
        for pos, (d2, m2) in enumerate(word):
            if m2 != mode:
                continue
            pair = cfg.dir_pairing(dir_, d2)
            if pair:
                accumulate(out, (word[:pos] + word[pos + 1 :], label), coeff * mode * pair)
    return out


def _ann_charge(cfg, states, alpha, mode: int) -> dict:
    # alpha lies in the charge lattice, so it contracts only with d-directions
    out: dict = {}
    for (word, label), coeff in states.items():
        for pos, (d2, m2) in enumerate(word):
            if m2 != mode or d2 < cfg.nu:
                continue
            m_i = alpha[d2 - cfg.nu]
            if m_i:
                accumulate(
                    out,
                    (word[:pos] + word[pos + 1 :], label),
                    coeff * mode * cfg.k * m_i,
                )
    return out


def _zero_dir(ctx, states, dir_: int) -> dict:
    cfg = ctx.cfg
    out: dict = {}
    if dir_ < cfg.nu:
        scalar = ctx.zero_mode_scalar_part(dir_)
        if scalar:
            for key, coeff in states.items():
                accumulate(out, key, coeff * scalar)
        return out
    dcoeffs = tuple(
        Fraction(int(i == dir_ - cfg.nu)) for i in range(cfg.nu)
    )
    for (word, label), coeff in states.items():
        for q, lab in ctx.d_action(dcoeffs, label):
            accumulate(out, (word, lab), coeff * q)
    return out


def _apply_charge_shift(ctx, states, alpha) -> dict:
    out: dict = {}
    for (word, label), coeff in states.items():
        for q, lab in ctx.e_action(alpha, label):
            accumulate(out, (word, lab), coeff * q)
    return out


# -- derived operations -----------------------------------------------------------------


def nth_product(cfg: LatticeConfig, u: VElement, n: int, v: VElement) -> VElement:
    """The algebra product u_n v, evaluated in the adjoint context."""
    return y_coefficient(u, n, v, adjoint_context(cfg))


def truncation_bound(u: VElement, w, ctx: OperatorContext) -> int:
    """Smallest B with u_n w = 0 for every n > B, from the weight balance."""
    if u.is_zero() or w.is_zero():
        return -1
    best = None
    for (ufock, alpha), _ in u.terms.items():
        p0 = ctx.charge_power(alpha)
        for (wfock, _), _ in w.terms.items():
            bound = fock_weight(ufock) + fock_weight(wfock) - 1 - p0
            best = bound if best is None else max(best, bound)
    return best


def conformal_vector(cfg: LatticeConfig) -> VElement:
    """(1/k) sum_i c_i(-1) d_i(-1) applied to the degree-zero generator.

    In an orthonormal basis this is the usual sum of squares; the hyperbolic
    Gram matrix of the c/d basis turns that sum into paired c/d factors.
    """
    terms = {}
    q = Fraction(1, cfg.k)
    for i in range(cfg.nu):
        word = fock_word(((i, 1), (cfg.nu + i, 1)))
        terms[(word, (0,) * cfg.nu)] = q
    return VElement(cfg.nu, terms)


def virasoro_mode(n: int, s, ctx: OperatorContext):
    """L(n) s, the z^(-n-2) coefficient of the conformal field."""
    return y_coefficient(conformal_vector(ctx.cfg), n + 1, s, ctx)
