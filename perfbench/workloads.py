"""The benchmark's workloads: what one cold worker process runs for a seed.

``plan`` builds a workload's calls, and their inputs, from the seed; each
call returns a ``SuiteReport``.  ``modes`` and ``quotient`` run the public
suites.  ``jacobi`` and ``dressing`` run a suite's checker on states of fixed
shape, because the suites' own random draws make their cost vary several
fold from seed to seed; there the seed draws coefficients and charge signs,
which leave the work unchanged.  README.md gives the reasons in full.

The checkers are looked up on ``halflattice.identities`` when a call runs,
not when it is built, so the tracer's rebinding applies to them.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

# workload -> (suites run in this order, SuiteConfig fields other than the seed)
SUITE_WORKLOADS = {
    "modes": (("heisenberg",), {"mode_window": 1}),
    "quotient": (("zhu", "classification", "omega-relations", "vacuum-roundtrip"),
                 {"probe_count": 10}),
}
NAMES = ("jacobi", "dressing", "modes", "quotient")

JACOBI_WINDOW = range(-2, 3)
DRESSING_NU = 2
DRESSING_ACTOR = ((0, 1), (1, 1))  # (kind, mode) factors: c_i(-1) d_j(-1) e^a
DRESSING_TARGET = ((0, 1), (1, 1))  # c_i(-1) d_j(-1) e^b
DRESSING_WINDOW = range(-1, 2)


def plan(name: str, seed: int) -> list:
    """[(label, call)] for one sample of the workload at this seed."""
    if name == "jacobi":
        return [("jacobi", _jacobi_call(seed))]
    if name == "dressing":
        return [("dressing", _dressing_call(seed))]
    from halflattice.suites import SuiteConfig, run_verification

    suites, fields = SUITE_WORKLOADS[name]
    config = SuiteConfig(seed=seed, **fields)
    return [(suite, lambda suite=suite: run_verification(suite, config)) for suite in suites]


def _rand_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


def _first_failure(results):
    """The first (index, residual) whose residual is nonzero, or None.

    results is a lazy iterable, so the sweep stops at the first failure."""
    return next(((index, res) for index, res in results if not res.is_zero()), None)


def _jacobi_call(seed: int):
    """The component (Borcherds) identity on the adjoint module for every
    ordered triple of the nu=1 generators c1(-1), d1(-1), e^c1 and e^-c1, each
    scaled by a seed-drawn rational, over (m, n, k) in JACOBI_WINDOW^3: the
    borcherds suite's adjoint checks, sharing one ActionCache."""
    from halflattice import identities
    from halflattice.fock import charge_element, fock_element
    from halflattice.lattice import LatticeConfig
    from halflattice.suites import SuiteReport
    from halflattice.vertex import adjoint_context

    rng = random.Random(seed)
    gens = [
        ("c1", fock_element(1, [(0, 1)], None, _rand_coeff(rng))),
        ("d1", fock_element(1, [(1, 1)], None, _rand_coeff(rng))),
        ("e+c1", charge_element(1, [1], _rand_coeff(rng))),
        ("e-c1", charge_element(1, [-1], _rand_coeff(rng))),
    ]
    ctx = adjoint_context(LatticeConfig(1, 1))
    triples = list(itertools.product(JACOBI_WINDOW, repeat=3))
    echo = {"nu": 1, "k": 1, "window": [JACOBI_WINDOW.start, JACOBI_WINDOW.stop - 1],
            "seed": seed}

    def run():
        report = SuiteReport("jacobi", echo)
        cache = identities.ActionCache(ctx)
        for (n1, u), (n2, v), (n3, w) in itertools.product(gens, repeat=3):
            fail = _first_failure(
                ((m, n, k), identities.borcherds_residual(u, v, w, m, n, k, ctx, cache))
                for m, n, k in triples)
            report.add(f"adjoint/{n1}:{n2}:{n3}", fail is None, fail or "")
        return report.finish()

    return run


def _dressing_call(seed: int):
    """The translation-derivative identity (L(-1)u)_n w + n u_{n-1} w = 0 on
    charged states of fixed Fock shape, sharing one ActionCache.  Every choice
    of factor indices occurs once among the actors and once among the
    targets; the seed draws the charge signs and the coefficients."""
    from halflattice import identities
    from halflattice.fock import fock_element
    from halflattice.lattice import LatticeConfig
    from halflattice.suites import SuiteReport
    from halflattice.vertex import adjoint_context

    nu = DRESSING_NU
    rng = random.Random(seed)

    def states(shape):
        out = []
        for indices in itertools.product(range(nu), repeat=len(shape)):
            factors = [(kind * nu + i, mode) for (kind, mode), i in zip(shape, indices)]
            charge = [rng.choice((-1, 1)) for _ in range(nu)]
            out.append(fock_element(nu, factors, charge, _rand_coeff(rng)))
        return out

    actors = states(DRESSING_ACTOR)
    targets = states(DRESSING_TARGET)
    ctx = adjoint_context(LatticeConfig(nu, 1))
    echo = {"nu": nu, "k": 1, "window": [DRESSING_WINDOW.start, DRESSING_WINDOW.stop - 1],
            "actors": len(actors), "targets": len(targets), "seed": seed}

    def run():
        report = SuiteReport("dressing", echo)
        cache = identities.ActionCache(ctx)
        for i, u in enumerate(actors):
            fail = _first_failure(
                ((n, j), identities.d_derivative_residual(u, n, w, ctx, cache))
                for n in DRESSING_WINDOW for j, w in enumerate(targets))
            report.add(f"translation-derivative/adjoint/u{i}", fail is None, fail or "")
        return report.finish()

    return run
