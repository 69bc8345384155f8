"""The named verification suites behind ``verify`` and the acceptance tests.

Each suite builds its desk-scale instances, sweeps the advertised identity
over probe states and coefficient windows with exact arithmetic, and returns
a ``SuiteReport`` whose check records are sorted by id.  A check is a lazy
stream of (where, residual) cases decided by ``SuiteReport.sweep``: the
first truthy residual fails it, and so does a stream with no case at all.
The Borcherds, locality and Heisenberg sweeps evaluate one residual per
orbit of the identities stated in the ``identities`` docstring: the three
faces of each index box, one stream for both ids of a mirrored pair, and
only the index pairs m <= n of a field paired with itself.
Reports depend only on (config, seed); wall time is tracked but excluded
from the serialized report so byte-identical reruns stay byte-identical.

The module loads the engine and the checkers: ``combination``, ``fock``,
``lattice``, ``vertex`` and ``identities``.  Every other layer (the probes,
the straightened algebra, Laurent rings, nullspaces, the vacuum bridge and
the Zhu quotient) is imported by the suite or helper that reads it, when it
runs, so a run loads only the layers of the suites it runs.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .combination import Combination
from .fock import VElement, charge_element, fock_element, vacuum
from .identities import (
    ActionCache,
    borcherds_residual,
    d_derivative_residual,
    heisenberg_residual,
    locality_residual,
    virasoro_residual,
)
from .lattice import LatticeConfig, WeightModule, dir_name
from .vertex import (
    Field,
    adjoint_context,
    apply_heisenberg_mode,
    conformal_vector,
    module_operator_context,
    truncation_bound,
)


class SuiteConfig(NamedTuple):
    """Knobs shared by every suite; unset nu/k fall back per suite."""

    nu: Optional[int] = None
    k: Optional[int] = None
    mode_window: int = 6
    jacobi_window: int = 3
    probe_count: int = 50
    max_degree: int = 4
    seed: int = 7

    def resolved(self, default_nu: int, default_k: int) -> tuple[int, int]:
        return (default_nu if self.nu is None else self.nu,
                default_k if self.k is None else self.k)

    def echo(self, nu: int, k: int) -> dict:
        return {**self._asdict(), "nu": nu, "k": k}


class CheckRecord(NamedTuple):
    check_id: str
    ok: bool
    residual: str = ""


class SuiteReport:
    """A suite's check records, sorted by id once it finishes, and its wall
    time, which ``to_data`` leaves out."""

    __slots__ = ("suite", "config", "checks", "wall_time_s")

    def __init__(self, suite: str, config: dict):
        self.suite = suite
        self.config = config
        self.checks = []
        self.wall_time_s = 0.0

    def add(self, check_id: str, ok: bool, residual="") -> None:
        """Record a check; a failing check keeps its residual as bounded text.

        A combination, alone or as the residual of a (where, residual) pair,
        reads as its term count and its first three terms in printing
        order, after the failing index where there is one; any other
        residual is kept as str(residual).
        """
        where, res = residual if isinstance(residual, tuple) and len(residual) == 2 else (None, residual)
        if isinstance(res, Combination) and res:
            first = dict(res.sorted_terms()[:3])
            text = (f"{len(res)} term{'s' if len(res) > 1 else ''}: {res._make(first)}"
                    + (" + ..." if len(res) > 3 else ""))
            residual = text if where is None else f"at {where!r}: {text}"
        self.checks.append(CheckRecord(check_id, bool(ok), "" if ok or not residual else str(residual)))

    def sweep(self, check_ids, cases) -> None:
        """Decide a check, or a tuple of checks, from one stream of lazy
        (where, residual) cases.

        A truthy residual (a nonzero combination, a failed comparison, a
        message) fails the check at its first such case, recorded as the
        (where, residual) pair; a check that evaluated no case fails as
        vacuous.  A tuple names checks that the stream decides together:
        an orbit whose other residuals are each plus or minus one of the
        stream's, so they vanish exactly when it does (see the
        ``identities`` module docstring).  Every id of the tuple gets the
        stream's verdict, and a failing one records the stream's first
        failing index and residual.
        """
        ids = (check_ids,) if isinstance(check_ids, str) else check_ids
        verdict = (False, "vacuous: no case evaluated")
        for where, res in cases:
            if res:
                verdict = (False, (where, res))
                break
            verdict = (True, "")
        for check_id in ids:
            self.add(check_id, *verdict)

    def finish(self) -> "SuiteReport":
        self.checks.sort(key=lambda c: c.check_id)
        return self

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def passed(self) -> int:
        return sum(c.ok for c in self.checks)

    @property
    def failed(self) -> int:
        return len(self.checks) - self.passed

    def to_data(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "passed": self.passed,
            "failed": self.failed,
            "checks": [
                {"id": c.check_id, "status": "pass" if c.ok else "fail",
                 **({"residual": c.residual} if c.residual else {})}
                for c in self.checks
            ],
        }

    def summary_lines(self) -> list[str]:
        lines = [
            f"suite {self.suite}: {self.passed}/{len(self.checks)} checks passed"
            f" ({self.wall_time_s:.2f}s)"
        ]
        for c in self.checks:
            if not c.ok:
                lines.append(f"  FAIL {c.check_id}" + (f"  residual={c.residual}" if c.residual else ""))
        return lines


# -- shared builders --------------------------------------------------------------------


def _generators(cfg: LatticeConfig) -> list[tuple[str, VElement]]:
    gens = []
    for i in range(cfg.nu):
        gens.append((f"c{i + 1}", fock_element(cfg.nu, [(i, 1)])))
        gens.append((f"d{i + 1}", fock_element(cfg.nu, [(cfg.nu + i, 1)])))
    for i in range(cfg.nu):
        plus = [0] * cfg.nu
        plus[i] = 1
        gens.append((f"e+c{i + 1}", charge_element(cfg.nu, plus)))
        plus[i] = -1
        gens.append((f"e-c{i + 1}", charge_element(cfg.nu, list(plus))))
    return gens


def _first_failure(cases):
    """The first (where, residual) of a lazy sweep whose residual is truthy, else None.

    For the checks that expect a failure; every other check is decided by
    ``SuiteReport.sweep``.
    """
    return next(((where, res) for where, res in cases if res), None)


def _faces(window: range) -> list:
    """The (m, n, k) of the box window^3 on its faces n = lo, m = hi and
    k = hi, in the box's order.

    The Borcherds residual obeys R(m, n+1, k) = R(m+1, n, k) - R(m, n, k+1)
    for any operator data (see the ``identities`` module docstring), so by
    induction on n its values on these faces determine it on the whole box:
    127 of the 343 points at window -3..3.
    """
    lo, hi = window.start, window.stop - 1
    return [(m, n, k) for m, n, k in itertools.product(window, repeat=3)
            if n == lo or m == hi or k == hi]


def _unimodular_nu(config: SuiteConfig, suite: str) -> int:
    """The rank of a suite over function modules, which exist only at k = 1."""
    nu, k = config.resolved(2, 1)
    if k != 1:
        raise ValueError(f"suite {suite} runs only at k = 1 (function modules need "
                         f"the unimodular pairing), got k = {k}")
    return nu


def _default_omega_spec(nu: int):
    """The ``OmegaSpec`` of the suites' function module: cutoff 2,
    multiplier t_1 and shift constants 2..nu."""
    from .assoc import OmegaSpec
    from .laurent import LaurentRing

    ring = LaurentRing(nu, 1)
    return OmegaSpec(nu, 2, (ring.variable(1),), tuple(Fraction(i + 2) for i in range(nu - 1)))


def _module_contexts(cfg: LatticeConfig, lam_vectors=None):
    """One context per coefficient-module kind, at the given weights."""
    if lam_vectors is None:
        lam_vectors = [cfg.d_basis(1)]
    out = []
    for lam in lam_vectors:
        weight = WeightModule(cfg, [Fraction(1, 2)] + [0] * (cfg.nu - 1))
        out.append(("weight", module_operator_context(lam, weight)))
        if cfg.k == 1:
            out.append(("omega", module_operator_context(lam, _default_omega_spec(cfg.nu))))
    return out


def _probe_states(rng: random.Random, ctx, count: int) -> list:
    """count seeded target states of a context: algebra states of Fock weight
    at most 3 in the adjoint, module states of Fock weight at most 2 otherwise."""
    from .probes import rand_module_element, rand_velement

    if isinstance(ctx.zero, VElement):
        return [rand_velement(rng, ctx.cfg, max_weight=3) for _ in range(count)]
    return [rand_module_element(rng, ctx.handle, max_weight=2) for _ in range(count)]


# -- suite: heisenberg ---------------------------------------------------------------------


def suite_heisenberg(config: SuiteConfig) -> SuiteReport:
    from .probes import rand_velement

    nu, k = config.resolved(2, 2)
    cfg = LatticeConfig(nu, k)
    report = SuiteReport("heisenberg", config.echo(nu, k))
    rng = random.Random(config.seed)
    ctx = adjoint_context(cfg)
    cache = ActionCache(ctx)
    probes = [
        rand_velement(rng, cfg, n_terms=2, max_weight=config.max_degree)
        for _ in range(config.probe_count)
    ]
    window = range(-config.mode_window, config.mode_window + 1)
    # one vector per direction, so cache keys match by identity
    dirs = [cfg.dir_vector(i) for i in range(cfg.ndirs)]
    names = [dir_name(i, nu) for i in range(cfg.ndirs)]
    # the residual is antisymmetric under (h1, m) <-> (h2, n): one sweep over
    # all (m, n) decides bracket/x:y and bracket/y:x, and bracket/x:x needs
    # only m <= n
    for i, j in itertools.combinations_with_replacement(range(cfg.ndirs), 2):
        h1, h2 = dirs[i], dirs[j]
        ids = (f"bracket/{names[i]}:{names[j]}", f"bracket/{names[j]}:{names[i]}")
        report.sweep(ids if i < j else ids[:1], (
            ((m, n, idx), heisenberg_residual(h1, m, h2, n, s, ctx, cache))
            for m, n in itertools.product(window, window)
            if i < j or m <= n
            for idx, s in enumerate(probes)
        ))
    return report.finish()


# -- suite: locality ------------------------------------------------------------------------


def suite_locality(config: SuiteConfig) -> SuiteReport:
    nu, k = config.resolved(2, 1)
    cfg = LatticeConfig(nu, k)
    report = SuiteReport("locality", config.echo(nu, k))
    rng = random.Random(config.seed)
    window = range(-config.jacobi_window, config.jacobi_window + 1)
    heis = _generators(cfg)[: 2 * cfg.nu]
    charges = _generators(cfg)[2 * cfg.nu :]

    contexts = [("adjoint", adjoint_context(cfg))] + _module_contexts(cfg)

    for ctx_name, ctx in contexts:
        cache = ActionCache(ctx)
        probes = [ctx.state_of_label(ctx.handle.base_label())] + _probe_states(rng, ctx, 2)

        def cases(u, v, order):
            for idx, w in enumerate(probes):
                for p, q in itertools.product(window, window):
                    if u is not v or p <= q:
                        yield (p, q, idx), locality_residual(u, v, w, p, q, order, ctx, cache)

        # swapping (u, p) and (v, q) scales the residual by -(-1)^order, so
        # one sweep of (u, v) over all (p, q) decides (v, u) too, and (u, u)
        # needs only p <= q; the order-1 pairs have no mirror among them
        for order, pairs, mirrored in ((2, itertools.combinations_with_replacement(heis, 2), True),
                                       (1, itertools.product(heis, charges), False),
                                       (0, itertools.combinations_with_replacement(charges, 2), True)):
            for (n1, u), (n2, v) in pairs:
                ids = (f"order{order}/{ctx_name}/{n1}:{n2}", f"order{order}/{ctx_name}/{n2}:{n1}")
                report.sweep(ids if mirrored and n1 != n2 else ids[:1], cases(u, v, order))
        # order k-1 must fail on a pair with nonzero pairing: c1(-1), d1(-1)
        fail = _first_failure(cases(heis[0][1], heis[1][1], 1))
        report.add(
            f"underprovisioned-order-detected/{ctx_name}/c1:d1",
            fail is not None,
            "order-1 locality unexpectedly held",
        )
    return report.finish()


# -- suite: borcherds -----------------------------------------------------------------------


def suite_borcherds(config: SuiteConfig) -> SuiteReport:
    nu, k = config.resolved(1, 1)
    cfg = LatticeConfig(nu, k)
    report = SuiteReport("borcherds", config.echo(nu, k))
    rng = random.Random(config.seed)
    window = range(-config.jacobi_window, config.jacobi_window + 1)
    faces = _faces(window)  # they decide the whole box
    gens = _generators(cfg)

    ctx = adjoint_context(cfg)
    cache = ActionCache(ctx)
    for (n1, u), (n2, v), (n3, w) in itertools.product(gens, gens, gens):
        report.sweep(f"adjoint/{n1}:{n2}:{n3}", (
            ((m, n, kk), borcherds_residual(u, v, w, m, n, kk, ctx, cache))
            for m, n, kk in faces
        ))

    for kind, mctx in _module_contexts(cfg):
        mcache = ActionCache(mctx)
        wprobes = [mctx.state_of_label(mctx.handle.base_label())] + _probe_states(rng, mctx, 1)
        for (n1, u), (n2, v) in itertools.product(gens, gens):
            report.sweep(f"module-{kind}/{n1}:{n2}", (
                (((m, n, kk), widx), borcherds_residual(u, v, w, m, n, kk, mctx, mcache))
                for widx, w in enumerate(wprobes)
                for m, n, kk in faces
            ))
    return report.finish()


# -- suite: virasoro -------------------------------------------------------------------------


def suite_virasoro(config: SuiteConfig) -> SuiteReport:
    from .probes import rand_velement

    nus = [1, 2, 3] if config.nu is None else [config.nu]
    k = 1 if config.k is None else config.k
    report = SuiteReport("virasoro", config.echo(config.nu or 0, k))
    rng = random.Random(config.seed)
    grid = range(-4, 5)
    for nu in nus:
        cfg = LatticeConfig(nu, k)
        ctx = adjoint_context(cfg)
        cache = ActionCache(ctx)
        canonical = [
            ("vac", vacuum(nu)),
            ("charge", charge_element(nu, [1] + [0] * (nu - 1))),
            ("dressed", fock_element(nu, [(0, 1), (nu, 1)], [0] * (nu - 1) + [1])),
        ]
        for name, s in canonical:
            report.sweep(f"nu{nu}/grid/{name}", (
                ((m, n), virasoro_residual(m, n, s, ctx, cache))
                for m, n in itertools.product(grid, grid)
            ))

        def seeded_probes():
            for idx in range(config.probe_count):
                s = rand_velement(rng, cfg, max_weight=3)
                for _ in range(3):
                    m, n = rng.randint(-4, 4), rng.randint(-4, 4)
                    yield (idx, m, n), virasoro_residual(m, n, s, ctx, cache)

        report.sweep(f"nu{nu}/seeded-probes", seeded_probes())
        one = vacuum(nu)
        omega = conformal_vector(cfg)
        got = cache.act(omega, 3, cache.act(omega, -1, one))
        want = nu * one
        report.add(f"nu{nu}/central-charge-on-vacuum", got == want, got - want)
    return report.finish()


# -- suite: d-derivative -----------------------------------------------------------------------


def suite_d_derivative(config: SuiteConfig) -> SuiteReport:
    from .probes import rand_velement

    nu, k = config.resolved(2, 1)
    cfg = LatticeConfig(nu, k)
    report = SuiteReport("d-derivative", config.echo(nu, k))
    rng = random.Random(config.seed)
    window = range(-config.jacobi_window, config.jacobi_window + 1)

    contexts = [("adjoint", adjoint_context(cfg))] + _module_contexts(cfg)
    for ctx_name, ctx in contexts:
        cache = ActionCache(ctx)
        targets = _probe_states(rng, ctx, 4 if ctx_name == "adjoint" else 3)

        def cases():
            for uidx in range(8):
                u = rand_velement(rng, cfg, max_weight=3)
                for n in window:
                    for widx, w in enumerate(targets):
                        yield (uidx, n, widx), d_derivative_residual(u, n, w, ctx, cache)

        report.sweep(f"translation-derivative/{ctx_name}", cases())
    return report.finish()


# -- suite: omega-relations ----------------------------------------------------------------------


def suite_omega_relations(config: SuiteConfig) -> SuiteReport:
    from .assoc import BElement, OmegaSpec, act_on_omega_module
    from .laurent import LaurentRing
    from .probes import rand_a_module_spec, rand_nonzero_laurent

    nu = _unimodular_nu(config, "omega-relations")
    cfg = LatticeConfig(nu, 1)
    report = SuiteReport("omega-relations", config.echo(nu, 1))
    rng = random.Random(config.seed)

    specs = [_default_omega_spec(nu)]
    if nu >= 2:
        ring = LaurentRing(nu, 2)
        t1, t2 = ring.variable(1), ring.variable(2)
        specs.append(OmegaSpec(nu, 3, (t1 * t2, t1 * t2), (Fraction(2),) * (nu - 2)))

    def relation_cases(spec):
        for trial in range(config.probe_count * 2):
            j = rng.randint(1, nu)
            charge = tuple(rng.randint(-2, 2) for _ in range(nu))
            f = rand_nonzero_laurent(rng, spec.ring, n_terms=2, exp_bound=2)
            d_j, e_a = BElement.d(j), BElement.e(charge)
            rel = d_j * e_a - e_a * d_j - cfg.k * charge[j - 1] * e_a
            yield (trial, j, charge), act_on_omega_module(rel, f, spec)

    for sidx, spec in enumerate(specs):
        report.sweep(f"defining-relation/spec{sidx}", relation_cases(spec))

    # shift identity: the scaled substitution pulls t - m out of a product
    ring1 = LaurentRing(1, 0)

    def shift_cases():
        for m in range(6):
            for trial in range(10):
                f = rand_nonzero_laurent(rng, ring1, n_terms=3, exp_bound=3)
                a = Fraction(rng.randint(1, 5))
                t = ring1.variable(1)
                lhs = (a**m) * (t * f).shift(1, m)
                rhs = (t - ring1.constant(m)) * ((a**m) * f.shift(1, m))
                yield (m, trial), lhs != rhs

    report.sweep("shift-identity", shift_cases())

    # symmetric-derivation failure makes the degree operators non-commuting
    if nu >= 2:
        ring = LaurentRing(nu, 2)
        bad = OmegaSpec(
            nu, 3, (ring.variable(2), ring.variable(1)),
            tuple(Fraction(2) for _ in range(nu - 2)),
        )
        comm = BElement.d(1) * BElement.d(2) - BElement.d(2) * BElement.d(1)
        witness = _first_failure(
            (trial, act_on_omega_module(comm, f, bad))
            for trial in range(20)
            for f in [rand_nonzero_laurent(rng, bad.ring, n_terms=2, exp_bound=2)]
        )
        report.add("non-symmetric-spec-commutator-nonzero", witness is not None,
                   "commutator vanished on all probes")
        good = rand_a_module_spec(rng, nu, 3)

        def commutator_cases():
            for trial in range(config.probe_count):
                f = rand_nonzero_laurent(rng, good.ring, n_terms=2, exp_bound=2)
                for i, j in itertools.combinations(range(1, 3), 2):
                    comm = BElement.d(i) * BElement.d(j) - BElement.d(j) * BElement.d(i)
                    yield (trial, i, j), act_on_omega_module(comm, f, good)

        report.sweep("symmetric-spec-commutator-vanishes", commutator_cases())
    return report.finish()


# -- suite: classification --------------------------------------------------------------------------


def brute_force_iso(spec1, spec2) -> bool:
    """Windowed search for a nonzero homomorphism between the function
    modules of two ``OmegaSpec``s.

    A homomorphism is determined by the image v of the cyclic symbol, and v
    must satisfy every relation the symbol satisfies: the degree operators
    reduce to multiplication by the multipliers (realized by translations)
    below the cutoff, and the translations reduce to their shift constants
    at and above it.  The relations are imposed exactly on a windowed basis
    of the target; since both modules are simple, a nonzero solution exists
    precisely when the modules are isomorphic (with window margins covering
    the shifts), here Laurent exponents -3..3 and polynomial exponents 0..3.
    Each relation (``cyclic_relations``) gives one sparse row per monomial of
    its images.
    """
    from .assoc import act_on_omega_module, cyclic_relations
    from .linalg import nullspace

    basis = spec2.probe_labels(3, 3)

    rows = []
    for _, rel in cyclic_relations(spec1):
        by_monomial: dict = {}
        for col, e in enumerate(basis):
            for mono, c in act_on_omega_module(rel, spec2.ring.monomial(e), spec2).terms.items():
                by_monomial.setdefault(mono, {})[col] = c
        rows.extend(by_monomial.values())
    return bool(nullspace(rows, len(basis)))


def _classification_pairs(nu: int) -> list[tuple]:
    """(name, spec, spec, isomorphic?) for the classification checks."""
    from .assoc import OmegaSpec
    from .laurent import LaurentRing

    r1 = LaurentRing(nu, 1)
    t1 = r1.variable(1)
    tail = tuple(Fraction(2) for _ in range(nu - 1))
    if nu >= 2:
        mismatch = (OmegaSpec(nu, 2, (t1,), tail),
                    OmegaSpec(nu, 2, (t1,), (Fraction(3),) * (nu - 1)))
    else:  # a cutoff-2 spec at nu = 1 has no shift constants to mismatch
        mismatch = (OmegaSpec(1, 1, (), (Fraction(2),)), OmegaSpec(1, 1, (), (Fraction(3),)))
    pairs = [
        ("integer-shift", OmegaSpec(nu, 2, (t1,), tail),
         OmegaSpec(nu, 2, (t1 + 3,), tail), True),
        ("negative-shift", OmegaSpec(nu, 2, (2 * t1**2,), tail),
         OmegaSpec(nu, 2, (2 * t1**2 - 2,), tail), True),
        ("equal", OmegaSpec(nu, 2, (t1,), tail), OmegaSpec(nu, 2, (t1,), tail), True),
        ("constant-mismatch", *mismatch, False),
        ("half-integer-shift", OmegaSpec(nu, 2, (t1,), tail),
         OmegaSpec(nu, 2, (t1 + Fraction(1, 2),), tail), False),
        ("non-constant-difference", OmegaSpec(nu, 2, (t1,), tail),
         OmegaSpec(nu, 2, (t1 + r1.monomial([-1] + [0] * (nu - 1)),), tail), False),
    ]
    a_all = tuple(Fraction(i + 2) for i in range(nu))
    a_perm = tuple(reversed(a_all))
    pairs.append(("no-multipliers-equal", OmegaSpec(nu, 1, (), a_all),
                  OmegaSpec(nu, 1, (), a_all), True))
    pairs.append(("no-multipliers-permuted", OmegaSpec(nu, 1, (), a_all),
                  OmegaSpec(nu, 1, (), a_perm), nu == 1 or a_all == a_perm))
    if nu >= 2:
        r2 = LaurentRing(nu, 2)
        p = r2.variable(1) * r2.variable(2)
        tail22 = tuple(Fraction(5) for _ in range(nu - 2))
        pairs.append(
            ("two-variable-shift", OmegaSpec(nu, 3, (p, p), tail22),
             OmegaSpec(nu, 3, (p + 1, p - 2), tail22), True)
        )
        pairs.append(
            ("cutoff-mismatch", OmegaSpec(nu, 2, (r1.variable(1),), tail),
             OmegaSpec(nu, 1, (), (Fraction(1),) + tail), False)
        )
    return pairs


def suite_classification(config: SuiteConfig) -> SuiteReport:
    from .assoc import OmegaSpec, decompose_potential, is_a_module_spec, iso_decide, simplicity_witness
    from .probes import rand_a_module_spec, rand_nonzero_laurent

    nu = _unimodular_nu(config, "classification")
    report = SuiteReport("classification", config.echo(nu, 1))
    rng = random.Random(config.seed)

    for name, s1, s2, expect in _classification_pairs(nu):
        decided = iso_decide(s1, s2)
        ok = (decided is not None) == expect
        report.add(f"iso-decide/{name}", ok, f"decided={decided} expected-iso={expect}")
        brute = brute_force_iso(s1, s2)
        report.add(f"iso-brute-agree/{name}", brute == (decided is not None), f"brute={brute}")

    def potential_cases():
        # cutoff 1 has no multiplier to decompose, so the trials cycle 2..nu+1
        for trial in range(10):
            mu = 2 + trial % nu
            spec = rand_a_module_spec(rng, nu, mu)
            ok_flag, _ = is_a_module_spec(spec)
            got = decompose_potential(spec)
            if not ok_flag or got is None:
                yield trial, "decomposition missing"
                continue
            P, parts = got
            for j in range(1, mu):
                yield (trial, j), P.degree_derivation(j) + parts[j - 1] != spec.f_of(j)

    report.sweep("potential-roundtrip", potential_cases())

    def witness_cases(spec):
        for trial in range(25):
            f = rand_nonzero_laurent(rng, spec.ring, n_terms=2, exp_bound=2)
            try:
                witness = simplicity_witness(spec, f)
            except AssertionError as exc:
                yield trial, str(exc)
                continue
            if witness.result == 0:
                yield trial, "zero result"
            elif witness.replay(f) != spec.ring.constant(witness.result):
                yield trial, "replay mismatch"
            else:
                yield trial, ""

    specs = [_default_omega_spec(nu)]
    specs.append(OmegaSpec(nu, 1, (), tuple(Fraction(i + 1, 2) for i in range(nu))))
    for sidx, spec in enumerate(specs):
        report.sweep(f"simplicity-witness/spec{sidx}", witness_cases(spec))
    return report.finish()


# -- suite: module-axioms ------------------------------------------------------------------------------


def suite_module_axioms(config: SuiteConfig) -> SuiteReport:
    nu = _unimodular_nu(config, "module-axioms")
    cfg = LatticeConfig(nu, 1)
    report = SuiteReport("module-axioms", config.echo(nu, 1))
    rng = random.Random(config.seed)
    lams = [cfg.d_basis(1)]
    if nu >= 2:
        lams.append(cfg.d_basis(1) + cfg.d_basis(2))
    gens = _generators(cfg)
    window = range(-config.jacobi_window, config.jacobi_window + 1)
    faces = _faces(window)  # they decide the whole box
    pair_sample = [(0, 2 * nu), (1, 2 * nu), (0, 1), (2 * nu, 2 * nu + 1)]

    for lam_idx, lam in enumerate(lams):
        for kind, ctx in _module_contexts(cfg, [lam]):
            tag = f"lam{lam_idx}-{kind}"
            cache = ActionCache(ctx)
            probes = [ctx.state_of_label(ctx.handle.base_label())] + _probe_states(rng, ctx, 1)

            # probes above the weight formula's bound, which is also the
            # independent check on where the field's own support ends
            report.sweep(f"truncation/{tag}", (
                ((name, widx, n),
                 f"support top {field.top} exceeds the truncation bound {bound}"
                 if field.top > bound else field.coefficient(n))
                for name, u in gens
                for widx, w in enumerate(probes)
                for field, bound in [(Field(u, w, ctx), truncation_bound(u, w, ctx))]
                for n in range(bound + 1, bound + 4)
            ))

            one = vacuum(nu)
            report.sweep(f"identity-field/{tag}", (
                ((widx, n), field.coefficient(n) != (w if n == -1 else ctx.zero))
                for widx, w in enumerate(probes)
                for field in [Field(one, w, ctx)]
                for n in window
            ))

            report.sweep(f"jacobi-window/{tag}", (
                ((gens[gi][0], gens[gj][0], widx, (m, n, kk)),
                 borcherds_residual(gens[gi][1], gens[gj][1], w, m, n, kk, ctx, cache))
                for gi, gj in pair_sample
                for widx, w in enumerate(probes)
                for m, n, kk in faces
            ))
    return report.finish()


# -- suite: vacuum-roundtrip ----------------------------------------------------------------------------


def suite_vacuum_roundtrip(config: SuiteConfig) -> SuiteReport:
    from .bridge import (
        charge_sector,
        is_vacuum_vector,
        recovered_action_cases,
        recovered_relation_cases,
        vacuum_basis,
        z_operator,
    )

    nu = _unimodular_nu(config, "vacuum-roundtrip")
    cfg = LatticeConfig(nu, 1)
    report = SuiteReport("vacuum-roundtrip", config.echo(nu, 1))

    for kind, mctx in _module_contexts(cfg):
        handle = mctx.handle
        labels = handle.probe_labels()[:4]
        basis = vacuum_basis(mctx, min(config.max_degree, 3), labels)
        stray = [i for i, v in enumerate(basis) if not is_vacuum_vector(v, mctx)]
        report.add(f"vacuum-slice/{kind}", len(basis) == len(labels) and not stray,
                   f"{len(basis)} basis vectors for {len(labels)} labels; not vacuum: {stray}")
        report.sweep(f"recovered-action/{kind}", recovered_action_cases(mctx, labels[:3]))
        report.sweep(f"recovered-relations/{kind}", recovered_relation_cases(mctx, labels[:3]))

        alpha = (1,) + (0,) * (nu - 1)
        w = mctx.state_of_label(handle.base_label())
        z_of = {n: z_operator(alpha, n, w, mctx) for n in range(-3, 2)}

        def commutation_cases():
            for bdir in range(cfg.ndirs):
                beta = cfg.dir_vector(bdir)
                for m in range(-2, 3):
                    bw = apply_heisenberg_mode(beta, m, w, mctx)
                    for n in range(-3, 2):
                        lhs = apply_heisenberg_mode(beta, m, z_of[n], mctx)
                        rhs = z_operator(alpha, n, bw, mctx)
                        want = (
                            cfg.pairing(beta, cfg.from_charge(alpha)) * z_of[n]
                            if m == 0
                            else mctx.zero
                        )
                        yield (bdir, m, n), lhs - rhs != want

        report.sweep(f"dressing-commutation/{kind}", commutation_cases())

        a0w = apply_heisenberg_mode(cfg.from_charge(alpha), 0, w, mctx)

        def derivative_cases():
            for n in range(-3, 2):
                yield n, z_operator(alpha, n, a0w, mctx) != (-n - 1) * z_of[n]

        report.sweep(f"dressing-derivative/{kind}", derivative_cases())

        def coherence_cases():
            for label in labels[:3]:
                state = mctx.state_of_label(label)
                for i in range(nu):
                    unit = tuple(int(t == i) for t in range(nu))
                    sector = charge_sector(unit, state, mctx)
                    yield (label, i, sector), (cfg.k * sector).denominator != 1

        report.sweep(f"weight-coherence/{kind}", coherence_cases())
    return report.finish()


# -- suite: zhu ----------------------------------------------------------------------------------------


def suite_zhu(config: SuiteConfig) -> SuiteReport:
    from .probes import rand_a_element, rand_velement
    from .zhu import circ_general, zero_mode, zhu_embed, zhu_iso_cases, zhu_reduce

    nu, k = config.resolved(2, 1)
    cfg = LatticeConfig(nu, k)
    report = SuiteReport("zhu", config.echo(nu, k))
    rng = random.Random(config.seed)

    def circle_cases():
        # e^a1 o e^b1 = sum_i a1_i c_i(-1) e^(a1 + b1), over one grid of charges
        grid = [(a, charge_element(nu, a)) for a in itertools.product(range(-2, 3), repeat=nu)]
        for a1, ea in grid:
            for b1, eb in grid:
                total = tuple(x + y for x, y in zip(a1, b1))
                want = VElement(nu, {(((i, 1),), total): m for i, m in enumerate(a1) if m})
                yield (a1, b1), circ_general(cfg, ea, eb, 0) != want

    report.sweep("charge-circle-product", circle_cases())

    def ideal_cases(trials, max_weight, depths):
        for trial in range(trials):
            u = rand_velement(rng, cfg, max_weight=max_weight)
            v = rand_velement(rng, cfg, max_weight=max_weight)
            for n in depths:
                yield (trial, n), zhu_reduce(cfg, circ_general(cfg, u, v, n))

    report.sweep("ideal-membership", ideal_cases(config.probe_count, 3, [0]))
    report.sweep("deep-ideal-membership", ideal_cases(10, 2, range(3)))

    pairs = [
        (rand_a_element(rng, cfg, d_degree=3, charge_bound=3),
         rand_a_element(rng, cfg, d_degree=3, charge_bound=3))
        for _ in range(config.probe_count)
    ]
    report.sweep("product-identification", zhu_iso_cases(cfg, pairs))

    # the zero modes o(v) on the adjoint's charge states e^beta, a top level
    states = [charge_element(nu, e) for e in itertools.product(range(4), repeat=nu)]

    def injectivity_cases():
        for trial in range(10):
            a = rand_a_element(rng, cfg, d_degree=3, charge_bound=2)
            if a.is_zero():
                continue
            v = zhu_embed(a)
            yield (trial, a), not any(zero_mode(v, w, adjoint_context(cfg)) for w in states)

    report.sweep("bottom-level-injectivity", injectivity_cases())
    return report.finish()


# -- registry --------------------------------------------------------------------------------------------


SUITES: dict[str, Callable[[SuiteConfig], SuiteReport]] = {
    "heisenberg": suite_heisenberg,
    "locality": suite_locality,
    "borcherds": suite_borcherds,
    "virasoro": suite_virasoro,
    "d-derivative": suite_d_derivative,
    "omega-relations": suite_omega_relations,
    "classification": suite_classification,
    "module-axioms": suite_module_axioms,
    "vacuum-roundtrip": suite_vacuum_roundtrip,
    "zhu": suite_zhu,
}


def run_verification(suite: str, config: SuiteConfig | None = None) -> SuiteReport:
    """Run one named suite; unknown names raise ValueError."""
    if suite not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {suite!r}; expected one of: {known}")
    config = config or SuiteConfig()
    start = time.perf_counter()
    report = SUITES[suite](config)
    report.wall_time_s = time.perf_counter() - start
    return report
