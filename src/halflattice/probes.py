"""Seeded random probe generators for the verification suites.

All draws use a caller-supplied ``random.Random`` so reports are
reproducible.  Distributions are deliberately plain: uniform small integers,
rationals with single-digit numerators and denominators from {1, 2, 3},
Fock weights capped by the configured desk scale.  The module loads only
the layers of the Fock states it draws; the draws of algebra elements and
function-module specs import the algebra and the Laurent rings when called.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .combination import accumulate
from .fock import ModuleElement, VElement
from .lattice import LatticeConfig

_DENOMINATORS = (1, 1, 2, 3)


def rand_fraction(rng: random.Random, max_num: int = 6, nonzero: bool = False) -> Fraction:
    num = rng.randint(-max_num, max_num)
    while nonzero and num == 0:
        num = rng.randint(-max_num, max_num)
    return Fraction(num, rng.choice(_DENOMINATORS))


def rand_charge(rng: random.Random, nu: int, bound: int = 2) -> tuple:
    return tuple(rng.randint(-bound, bound) for _ in range(nu))


def rand_fock_factors(rng: random.Random, nu: int, max_weight: int, max_mode: int = 3) -> tuple:
    factors = []
    budget = rng.randint(0, max_weight)
    while budget > 0:
        mode = rng.randint(1, min(max_mode, budget))
        factors.append((rng.randrange(2 * nu), mode))
        budget -= mode
    return tuple(factors)


def rand_velement(
    rng: random.Random,
    cfg: LatticeConfig,
    n_terms: int = 2,
    max_weight: int = 4,
    charge_bound: int = 2,
) -> VElement:
    terms: dict = {}
    for _ in range(rng.randint(1, n_terms)):
        key = (
            rand_fock_factors(rng, cfg.nu, max_weight),
            rand_charge(rng, cfg.nu, charge_bound),
        )
        accumulate(terms, key, rand_fraction(rng, nonzero=True))
    return VElement(cfg.nu, terms)


def rand_module_element(
    rng: random.Random,
    handle,
    n_terms: int = 2,
    max_weight: int = 3,
) -> ModuleElement:
    """A random state of M(1) tensor W at the rank of W = ``handle``'s lattice."""
    labels = handle.probe_labels()
    terms: dict = {}
    for _ in range(rng.randint(1, n_terms)):
        key = (
            rand_fock_factors(rng, handle.cfg.nu, max_weight),
            rng.choice(labels),
        )
        accumulate(terms, key, rand_fraction(rng, nonzero=True))
    return ModuleElement(handle, terms)


def rand_laurent(
    rng: random.Random,
    ring,
    n_terms: int = 3,
    exp_bound: int = 2,
    max_var: int | None = None,
):
    """A random ``LaurentPoly`` of the ``LaurentRing`` ring; ``max_var``
    caps the 1-based variables used."""
    from .laurent import LaurentPoly

    top = ring.nvars if max_var is None else max_var
    terms: dict = {}
    for _ in range(rng.randint(1, n_terms)):
        exps = []
        for j in range(ring.nvars):
            if j >= top:
                exps.append(0)
            elif j < ring.nlaurent:
                exps.append(rng.randint(-exp_bound, exp_bound))
            else:
                exps.append(rng.randint(0, exp_bound))
        accumulate(terms, tuple(exps), rand_fraction(rng, nonzero=True))
    return LaurentPoly(ring, terms)


def rand_nonzero_laurent(rng: random.Random, ring, **kw):
    f = rand_laurent(rng, ring, **kw)
    while f.is_zero():
        f = rand_laurent(rng, ring, **kw)
    return f


def rand_a_module_spec(rng: random.Random, nu: int, mu: int):
    """An ``OmegaSpec`` passing the symmetric-derivation test, built from a
    potential."""
    from .assoc import OmegaSpec
    from .laurent import LaurentRing

    ring = LaurentRing(nu, mu - 1)
    potential = rand_laurent(rng, ring, n_terms=2, exp_bound=2, max_var=mu - 1)
    fs = []
    for j in range(1, mu):
        pure_exps = [0] * nu
        pure_exps[j - 1] = rng.randint(-1, 2)
        pure = ring.monomial(pure_exps, rand_fraction(rng))
        fs.append(potential.degree_derivation(j) + pure)
    a = tuple(rand_fraction(rng, max_num=4, nonzero=True) for _ in range(nu - mu + 1))
    return OmegaSpec(nu, mu, tuple(fs), a)


def rand_a_element(
    rng: random.Random,
    cfg: LatticeConfig,
    n_terms: int = 2,
    d_degree: int = 3,
    charge_bound: int = 3,
):
    """A random ``AElement`` of the straightened algebra."""
    from .assoc import AElement

    terms: dict = {}
    for _ in range(rng.randint(1, n_terms)):
        charge = rand_charge(rng, cfg.nu, charge_bound)
        budget = rng.randint(0, d_degree)
        dexp = [0] * cfg.nu
        for _ in range(budget):
            dexp[rng.randrange(cfg.nu)] += 1
        key = (charge, tuple(dexp))
        accumulate(terms, key, rand_fraction(rng, nonzero=True))
    return AElement(cfg.nu, terms)
