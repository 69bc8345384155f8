"""The straightened operator algebra on charge translations and degree operators.

Generators are e_alpha for charges alpha and d_1..d_nu, subject to

    e_0 = 1,    e_{alpha+beta} = e_alpha e_beta,
    d_i e_alpha - e_alpha d_i = (d_i, alpha) e_alpha.

``BElement`` is the free version where the d_i do not commute with each
other; its quotient with commuting d's has the unique normal form
``AElement``: a charge on the left times a commutative d-monomial.

Two module families act.  Weight modules, spanned by lattice points
lam0 + alpha, are ``lattice.WeightModule``s.  Function modules ("omega
modules") are ``OmegaSpec``s: Laurent polynomials in t_1..t_{mu-1} times
polynomials in t_mu..t_nu acting on a cyclic symbol: e_alpha multiplies by
a monomial in the Laurent variables and shifts the polynomial ones, d_j
acts as the degree derivation plus a fixed multiplier f_j for j < mu and as
multiplication by t_j for j >= mu.  Each module is one object that carries
its lattice ``cfg`` (for a function module, always k = 1) and defines its
label actions on lattice points or exponent tuples.  A vector of either
module is a ``fock.ModuleElement`` of it at the empty Fock word, the vacuum
slice that ``bridge.vacuum_basis`` returns.  ``act_on_module`` is the one
action of the algebra on module states: it checks each generator's rank and
applies its label action by ``fock.act_on_labels`` under each Fock word.
``act_on_omega_module`` is its face on a function module's polynomials.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Mapping, NamedTuple, Optional

from .combination import Combination, Value, accumulate, integer, rational
from .fock import ModuleElement, act_on_labels
from .lattice import LatticeConfig
from .laurent import LaurentPoly, LaurentRing

# A generator is ("e", charge tuple) or ("d", index 1..nu).
BGen = tuple


def gen_e(charge: Iterable[int]) -> BGen:
    return ("e", tuple(integer(m) for m in charge))


def gen_d(j: int) -> BGen:
    return ("d", integer(j))


class BElement(Combination):
    """Rational combination of generator words in the free d-version.  A
    word is a tuple of generators, each checked by ``gen_e`` or ``gen_d``,
    and prints as its factors e[...] and d_j joined by "*"."""

    __slots__ = ()

    def __init__(self, terms: Mapping):
        super().__init__(terms)

    def _key(self, word) -> tuple:
        if any(kind not in ("e", "d") for kind, _ in word):
            raise ValueError(f"a generator is ('e', charge) or ('d', j), got the word {word!r}")
        return tuple(gen_e(arg) if kind == "e" else gen_d(arg) for kind, arg in word)

    @staticmethod
    def one() -> "BElement":
        return BElement({(): 1})

    @staticmethod
    def e(charge: Iterable[int]) -> "BElement":
        return BElement({(gen_e(charge),): 1})

    @staticmethod
    def d(j: int) -> "BElement":
        return BElement({(gen_d(j),): 1})

    def __mul__(self, other) -> "BElement":
        if not isinstance(other, BElement):
            return super().__mul__(other)
        data: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                accumulate(data, w1 + w2, c1 * c2)
        return self._make(data)

    __rmul__ = __mul__

    def _name(self, word) -> str:
        return "*".join(f"e[{','.join(map(str, arg))}]" if kind == "e" else f"d{arg}"
                        for kind, arg in word)


class AElement(Combination):
    """Normal form: finitely supported map (charge, d-exponents) -> rational, of rank nu."""

    __slots__ = ()

    def __init__(self, nu: int, terms: Mapping):
        super().__init__(terms, integer(nu))

    nu = property(lambda self: self.shape)

    def _key(self, key) -> tuple:
        charge, dexp = key
        charge = tuple(integer(m) for m in charge)
        dexp = tuple(integer(e) for e in dexp)
        if len(charge) != self.shape or len(dexp) != self.shape:
            raise ValueError(f"keys must have {self.shape} entries")
        if any(e < 0 for e in dexp):
            raise ValueError("d-exponents must be nonnegative")
        return charge, dexp

    @staticmethod
    def monomial(nu: int, charge=None, dexp=None, coeff=1) -> "AElement":
        charge = tuple(charge) if charge is not None else (0,) * nu
        dexp = tuple(dexp) if dexp is not None else (0,) * nu
        return AElement(nu, {(charge, dexp): coeff})

    def mul(self, other: "AElement", cfg: LatticeConfig) -> "AElement":
        """Product in the straightened algebra with commuting d's.

        Moving the left d-monomial past the right charge costs binomial
        corrections: d^K e_b = e_b prod_i (d_i + (d_i, b))^{K_i}.  Both
        factors have the lattice's rank, so the keys built here are trusted.
        """
        self._check(other)
        if self.nu != cfg.nu:
            raise ValueError(f"the elements have rank {self.nu}, the lattice {cfg.nu}")
        data: dict = {}
        for (a, K), c1 in self.terms.items():
            for (b, L), c2 in other.terms.items():
                charge = tuple(x + y for x, y in zip(a, b))
                pair = [cfg.k * m for m in b]
                for J in itertools.product(*(range(k_i + 1) for k_i in K)):
                    coeff = c1 * c2
                    for k_i, j_i, p_i in zip(K, J, pair):
                        coeff *= comb(k_i, j_i) * p_i ** (k_i - j_i)
                    if not coeff:
                        continue
                    dexp = tuple(j + l for j, l in zip(J, L))
                    accumulate(data, (charge, dexp), coeff)
        return self._make(data)

    def _name(self, key) -> str:
        charge, dexp = key
        factors = [f"e[{','.join(map(str, charge))}]"] if any(charge) else []
        factors += [f"d{i + 1}" if e == 1 else f"d{i + 1}^{e}" for i, e in enumerate(dexp) if e]
        return "*".join(factors)


# -- the action on module states ---------------------------------------------------


def _act(x: BElement, states: dict, module) -> dict:
    """x on (word, label) states of the module, by linear extension of its
    label actions, each word of x applied right to left.  Every generator
    is checked against the rank here, so the label actions need no check
    of their own."""
    nu = module.cfg.nu
    out: dict = {}
    for word, coeff in x.terms.items():
        acted = states
        for g in reversed(word):
            fits = len(g[1]) == nu if g[0] == "e" else 1 <= g[1] <= nu
            if not fits:
                raise ValueError(f"generator {BElement({(g,): 1})} does not act at rank {nu}")
            acted = act_on_labels({}, 1, acted,
                                  module.e_action if g[0] == "e" else module.d_action, g[1])
        for key, c in acted.items():
            accumulate(out, key, coeff * c)
    return out


def act_on_module(x: BElement, state: ModuleElement) -> ModuleElement:
    """x on a module state, through the label actions of its module, under
    each Fock word.  A state of another class raises ``TypeError``."""
    if not isinstance(state, ModuleElement):
        raise TypeError(f"the algebra acts on a ModuleElement, got {type(state).__name__}")
    return state._make(_act(x, state.terms, state.shape))


# -- function modules ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _power(a, m: int):
    """a ** m for a nonzero rational a and an integer m, normalized by
    ``rational``: an ``int`` for an integer a and m >= 0, so the products
    of ``e_action`` stay ``int``s there.  Taken once per (a, m)."""
    return rational(Fraction(a) ** m)


class OmegaSpec(Value):
    """A function module: its parameters (mu, f_1..f_{mu-1}, a_mu..a_nu) and
    its label actions, the module's one definition.

    nu and mu are integers, normalized by ``combination.integer``.  The f_j
    are Laurent polynomials in t_1..t_{mu-1} only and the a_i are nonzero
    rationals, normalized by ``rational``.  Both degenerate shapes
    are allowed: mu = 1 has no multipliers and mu = nu + 1 none of the a_i.
    Labels are the exponents of the monomials of ``ring``.  The lattice is
    ``cfg`` = ``LatticeConfig(nu, 1)``: function modules exist only at k = 1,
    where the straightening relation matches the module actions.  A spec is
    an immutable value, equal and hashed by (nu, mu, f, a); ``ring`` and
    ``cfg`` follow from those.
    """

    __slots__ = ("nu", "mu", "f", "a", "ring", "cfg")
    _fields = ("nu", "mu", "f", "a")

    def __init__(self, nu: int, mu: int, f: tuple, a: tuple):
        self._set(nu=integer(nu), mu=integer(mu), f=tuple(f), a=tuple(rational(x) for x in a))
        if not 1 <= self.mu <= self.nu + 1:
            raise ValueError("mu must lie in 1..nu+1")
        if len(self.f) != self.mu - 1:
            raise ValueError(f"expected {self.mu - 1} multiplier polynomials")
        if len(self.a) != self.nu - self.mu + 1:
            raise ValueError(f"expected {self.nu - self.mu + 1} shift constants")
        ring = LaurentRing(self.nu, self.mu - 1)
        self._set(ring=ring, cfg=LatticeConfig(self.nu, 1))
        for j, fj in enumerate(self.f, start=1):
            if not isinstance(fj, LaurentPoly) or fj.ring != ring:
                raise ValueError(f"f_{j} must live in {ring}")
            if fj.max_variable() >= self.mu:
                raise ValueError(f"f_{j} may only involve t_1..t_{self.mu - 1}")
        for i, a_i in enumerate(self.a, start=self.mu):
            if a_i == 0:
                raise ValueError(f"a_{i} must be nonzero")

    def a_of(self, j: int) -> int | Fraction:
        """Shift constant a_j for a polynomial variable index j in mu..nu."""
        if not self.mu <= j <= self.nu:
            raise ValueError(f"a_{j}: the shift constant index must lie in {self.mu}..{self.nu}")
        return self.a[j - self.mu]

    def f_of(self, j: int) -> LaurentPoly:
        """Multiplier polynomial f_j for a Laurent variable index j in 1..mu-1."""
        if not 1 <= j < self.mu:
            raise ValueError(f"f_{j}: the multiplier index must lie in 1..{self.mu - 1}")
        return self.f[j - 1]

    def base_label(self) -> tuple:
        return (0,) * self.nu

    def validate_label(self, label) -> tuple:
        return self.ring.check_exponents(label)

    def e_action(self, charge: tuple, label: tuple):
        """e_alpha on t^label: the Laurent exponents add alpha's, and each
        polynomial variable's t_i^e becomes a_i^(m_i) (t_i - m_i)^e, expanded;
        the terms come in ascending label order."""
        cut = self.mu - 1
        out = [(1, tuple(e + m for e, m in zip(label[:cut], charge)))]
        for i in range(cut, self.nu):
            e, m = label[i], charge[i]
            if not m:
                out = [(c, lab + (e,)) for c, lab in out]
                continue
            scale = _power(self.a[i - cut], m)
            out = [(rational(cs * (comb(e, p) * (-m) ** (e - p))), lab + (p,))
                   for cs, lab in [(c * scale, lab) for c, lab in out] for p in range(e + 1)]
        return out

    def d_action(self, j: int, label: tuple):
        """d_j on t^label: below the cutoff the degree e_j plus the multiplier
        f_j's monomials, from it on a raise of t_j; in ascending label order."""
        if j >= self.mu:
            return [(1, label[: j - 1] + (label[j - 1] + 1,) + label[j:])]
        out = {label: label[j - 1]} if label[j - 1] else {}
        for exps, c in self.f_of(j).terms.items():
            accumulate(out, tuple(a + b for a, b in zip(label, exps)), c)
        return [(c, lab) for lab, c in sorted(out.items())]

    def probe_labels(self, laurent_radius: int = 1, poly_degree: int = 2) -> list[tuple]:
        ranges = []
        for j in range(self.nu):
            if j < self.mu - 1:
                ranges.append(range(-laurent_radius, laurent_radius + 1))
            else:
                ranges.append(range(poly_degree + 1))
        return [tuple(e) for e in itertools.product(*ranges)]


def act_on_omega_module(x: BElement, f: LaurentPoly, spec: OmegaSpec) -> LaurentPoly:
    """``act_on_module``'s rule on a polynomial's terms at the empty word."""
    if f.ring != spec.ring:
        raise ValueError("polynomial does not live in the module ring")
    acted = _act(x, {((), label): c for label, c in f.terms.items()}, spec)
    return f._make({label: c for (_, label), c in acted.items()})


# -- classification ------------------------------------------------------------------


def is_a_module_spec(spec: OmegaSpec):
    """Symmetric-derivation test: D_i f_j = D_j f_i for all i, j below mu.

    Returns (True, None) or (False, (i, j)) with the first failing pair.
    """
    for i in range(1, spec.mu):
        for j in range(i + 1, spec.mu):
            if spec.f_of(j).degree_derivation(i) != spec.f_of(i).degree_derivation(j):
                return False, (i, j)
    return True, None


def decompose_potential(spec: OmegaSpec):
    """Split each multiplier as f_j = D_j P + P_j(t_j), or return None.

    Monomials of f_j that involve another variable are divided by their own
    t_j exponent to build the potential P; pure t_j monomials go to P_j.
    The candidate is then verified exactly, which fails precisely when the
    symmetric-derivation test fails.
    """
    ring = spec.ring
    p_terms: dict = {}
    pures: list[dict] = [dict() for _ in range(spec.mu - 1)]
    for j in range(1, spec.mu):
        jj = j - 1
        for exps, coeff in spec.f_of(j).sorted_terms():
            mixed = any(exps[i] for i in range(spec.mu - 1) if i != jj)
            if not mixed:
                pures[jj][exps] = coeff
                continue
            if exps[jj] == 0:
                return None  # not in the image of D_j on this monomial
            candidate = rational(Fraction(coeff, exps[jj]))
            seen = p_terms.get(exps)
            if seen is None:
                p_terms[exps] = candidate
            elif seen != candidate:
                return None
    P = LaurentPoly(ring, p_terms)
    P_list = [LaurentPoly(ring, t) for t in pures]
    for j in range(1, spec.mu):
        if P.degree_derivation(j) + P_list[j - 1] != spec.f_of(j):
            return None
    return P, tuple(P_list)


class IsoData(NamedTuple):
    """Isomorphism witness between two function modules: monomial shifts.

    The intertwiner divides by t_1^N_1 ... t_{mu-1}^N_{mu-1} while renaming
    the cyclic symbol.
    """

    shifts: tuple
    source: OmegaSpec
    target: OmegaSpec

    def apply(self, f: LaurentPoly) -> LaurentPoly:
        if f.ring != self.source.ring:
            raise ValueError("argument does not live in the source module")
        exps = [-n for n in self.shifts] + [0] * (self.source.nu - len(self.shifts))
        return self.target.ring.monomial(exps) * f


def iso_decide(spec1: OmegaSpec, spec2: OmegaSpec) -> Optional[IsoData]:
    """Decide isomorphism of two function modules.

    Isomorphic exactly when the cutoffs agree, the shift constants agree,
    and each multiplier difference g_j - f_j is a constant integer N_j; the
    witness map is verified to intertwine the generator actions on a small
    deterministic probe set before being returned.
    """
    if spec1.nu != spec2.nu or spec1.mu != spec2.mu:
        return None
    if spec1.a != spec2.a:
        return None
    shifts = []
    for j in range(1, spec1.mu):
        diff = spec2.f_of(j) - spec1.f_of(j)
        if not diff.is_constant():
            return None
        value = diff.constant_value()
        if value.denominator != 1:
            return None
        shifts.append(int(value))
    iso = IsoData(tuple(shifts), spec1, spec2)
    _verify_intertwiner(iso)
    return iso


def _verify_intertwiner(iso: IsoData) -> None:
    spec1, spec2 = iso.source, iso.target
    ring = spec1.ring
    probes = [ring.one()]
    for j in range(1, spec1.nu + 1):
        probes.append(ring.variable(j))
    probes.append(ring.variable(1) * ring.variable(spec1.nu) + ring.constant(2))
    gens = [BElement.d(j) for j in range(1, spec1.nu + 1)]
    for i in range(spec1.nu):
        charge = [0] * spec1.nu
        charge[i] = 1
        gens.append(BElement.e(charge))
        charge[i] = -1
        gens.append(BElement.e(list(charge)))
    for f in probes:
        for x in gens:
            lhs = iso.apply(act_on_omega_module(x, f, spec1))
            rhs = act_on_omega_module(x, iso.apply(f), spec2)
            if lhs != rhs:
                raise AssertionError(
                    f"intertwiner verification failed on generator {x} and {f}"
                )


# -- constructive simplicity --------------------------------------------------------


class WitnessStep(NamedTuple):
    kind: str  # "clear", "derive", "difference"
    j: int
    element: BElement


class SimplicityWitness(NamedTuple):
    spec: OmegaSpec
    steps: tuple
    result: Fraction  # the final multiple of the cyclic symbol

    def replay(self, f: LaurentPoly) -> LaurentPoly:
        g = f
        for step in self.steps:
            g = act_on_omega_module(step.element, g, self.spec)
        return g


def cyclic_relations(spec: OmegaSpec) -> list[tuple[int, BElement]]:
    """The relations (j, x) with x * symbol = 0 that define the cyclic symbol:
    x = d_j - mult(f_j) for j < mu and x = e_{c_j} - a_j for j >= mu.  The
    reduction witness and the windowed isomorphism search both read them."""
    out = []
    for j in range(1, spec.nu + 1):
        if j < spec.mu:
            # mult(f_j) as translations: e_{c_i} acts as multiplication by t_i
            # for i < mu, and OmegaSpec admits no f_j in t_mu or a later
            # variable, so each monomial's exponents are its charge
            mult = {(gen_e(exps),) if any(exps) else (): coeff
                    for exps, coeff in spec.f_of(j).sorted_terms()}
            out.append((j, BElement.d(j) - BElement(mult)))
        else:
            charge = [0] * spec.nu
            charge[j - 1] = 1
            out.append((j, BElement.e(charge) - spec.a_of(j) * BElement.one()))
    return out


def simplicity_witness(spec: OmegaSpec, f: LaurentPoly) -> SimplicityWitness:
    """Explicit operators reducing a nonzero element to a multiple of the symbol.

    Laurent variables are cleared by a positive translation and then lowered
    with the derivative operator e_{-c_j} (d_j - mult f_j), which sends g to
    dg/dt_j; polynomial variables are lowered with the difference operator
    a_j^{-1} e_{c_j} - 1.  Both are multiples of a cyclic relation
    (``cyclic_relations``) and strictly reduce the top degree, so the
    process ends at a nonzero constant multiple of the cyclic symbol.
    """
    if f.is_zero():
        raise ValueError("the zero element admits no reduction witness")
    if f.ring != spec.ring:
        raise ValueError("element does not live in the module ring")
    steps = []
    g = f
    for j, rel in cyclic_relations(spec):
        charge = [0] * spec.nu
        if j < spec.mu:
            low = g.deg_minus(j)
            if low < 0:
                charge[j - 1] = -low
                elem = BElement.e(charge)
                steps.append(WitnessStep("clear", j, elem))
                g = act_on_omega_module(elem, g, spec)
            charge[j - 1] = -1
            kind, elem = "derive", BElement.e(charge) * rel
        else:
            kind, elem = "difference", Fraction(1, spec.a_of(j)) * rel
        for _ in range(g.deg_plus(j)):
            steps.append(WitnessStep(kind, j, elem))
            g = act_on_omega_module(elem, g, spec)
    if not g.is_constant():
        raise AssertionError(f"reduction left a non-constant remainder {g}")
    value = g.constant_value()
    if value == 0:
        raise AssertionError("reduction collapsed to zero; this cannot happen")
    return SimplicityWitness(spec, tuple(steps), value)
