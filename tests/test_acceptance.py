"""Acceptance gate: every criterion runs at its stated scale, exact over Q.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s`` and in the failure report otherwise) and asserts that the
corresponding verification suite is fully green.  Zero tolerance everywhere:
all comparisons are exact rational equalities.  A bounded seed sweep runs
the fast suites at contiguous seeds from 0.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from halflattice.suites import SuiteConfig, run_verification

CONFIG = SuiteConfig()  # desk scale defaults: windows 3/6, 50 probes, seed 7

# sha256 of each suite's canonical report at CONFIG: the bytes `verify --json`
# prints, without the trailing newline.  A change that alters a report on
# purpose regenerates the table with
#   for s in borcherds classification d-derivative heisenberg locality \
#            module-axioms omega-relations vacuum-roundtrip virasoro zhu; do
#     printf '%s ' $s; PYTHONPATH=src python -m halflattice --json verify $s \
#       | tr -d '\n' | sha256sum; done
GOLDEN = {
    "borcherds": "1329c45e48f67cff19153fda2a168620308b58f8ddefb6b2d9f61812fb0f4df7",
    "classification": "942fc944fb06c67616971f3b8d5896bfbb59a2d32f35e0458b5a2b2f1ddb233e",
    "d-derivative": "826f43ab365d1c707689ad15db998da5f47ff49be6698cde0c16ef826dfed92b",
    "heisenberg": "326703f6055d1def7e37beba1d57c9d7c3c45839dbae5c64802dc32c0b4c40de",
    "locality": "70d9e6b2310a27e1ffb4b6ebbad47683147bce3993146abc315032ee8164a3cb",
    "module-axioms": "f2ab9a6436fa69ed0607074da04ba1f4821c2bd8c65571ff88bd51304ad8cbf0",
    "omega-relations": "0b943f039b4113ebd1eecc356b7ab7b738b6b5417591eda69ca2426469b03d4d",
    "vacuum-roundtrip": "24683aba60c080d8a3f749de83e1ad171ca32c425ffdab92f9bcd06be36f7dea",
    "virasoro": "964b8b52477b79ced7a7c15453fdd0524e81c54ec8bc9cfaf78f7b274ada5662",
    "zhu": "c41b27de0789a007b34f8fabde60d02a55db62d466eedf87002d7114cf5bf4da",
}


def _run(criterion: str, suite: str):
    report = run_verification(suite, CONFIG)
    status = "PASS" if report.ok else "FAIL"
    print(f"{status} {criterion}: {report.passed}/{len(report.checks)} checks "
          f"({report.wall_time_s:.1f}s)")
    if not report.ok:
        for line in report.summary_lines():
            print("   ", line)
    assert report.ok, f"{criterion}: {report.failed} checks failed"
    canonical = json.dumps(report.to_data(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == GOLDEN[suite]
    return report


def test_criterion_01_heisenberg_bracket():
    # [h(m), h'(n)] s = m (h,h') delta_{m+n,0} s for all basis pairs,
    # |m|, |n| <= 6, on 50 seeded probe states
    report = _run("criterion-01 heisenberg", "heisenberg")
    assert len(report.checks) == 16  # all ordered basis pairs at nu = 2


def test_criterion_02_locality_orders():
    # exact orders 2 / 1 / 0 for mode-mode, mode-translation, and
    # translation-translation fields, plus detection of failure at order
    # k - 1 for a pair with nonzero pairing
    report = _run("criterion-02 locality", "locality")
    ids = {c.check_id for c in report.checks}
    assert any(i.startswith("underprovisioned-order-detected") for i in ids)


def test_criterion_03_component_jacobi():
    # component identity for all generator triples over [-3,3]^3 in the
    # adjoint context and for generator pairs in one module context per kind
    report = _run("criterion-03 borcherds", "borcherds")
    kinds = {c.check_id.split("/")[0] for c in report.checks}
    assert kinds == {"adjoint", "module-weight", "module-omega"}


def test_criterion_04_virasoro_bracket():
    # [L(m), L(n)] = (m-n) L(m+n) + (m^3-m)/6 delta nu for |m|,|n| <= 4 and
    # nu in {1,2,3}; in particular L(2)L(-2) on the vacuum gives nu
    report = _run("criterion-04 virasoro", "virasoro")
    ids = {c.check_id for c in report.checks}
    for nu in (1, 2, 3):
        assert f"nu{nu}/central-charge-on-vacuum" in ids


def test_criterion_05_translation_derivative():
    # (L(-1)u)_n = -n u_{n-1} across the window, adjoint and module targets
    _run("criterion-05 d-derivative", "d-derivative")


def test_criterion_06_function_module_relations():
    # defining relations on 100 random (j, alpha, f); the shift identity up
    # to m = 5; commutator probe nonzero on the non-symmetric spec and zero
    # on symmetric ones
    report = _run("criterion-06 omega-relations", "omega-relations")
    ids = {c.check_id for c in report.checks}
    assert "non-symmetric-spec-commutator-nonzero" in ids
    assert "shift-identity" in ids


def test_criterion_07_classification():
    # decision procedure against windowed brute force on 10 spec pairs,
    # potential decomposition round trips, and 25 witness replays per spec
    report = _run("criterion-07 classification", "classification")
    brute = [c for c in report.checks if c.check_id.startswith("iso-brute-agree/")]
    assert len(brute) == 10


def test_criterion_08_module_axioms():
    # truncation, identity field, and the component identity window on the
    # built modules for both coefficient-module kinds and both weights
    report = _run("criterion-08 module-axioms", "module-axioms")
    tags = {c.check_id.split("/")[1] for c in report.checks}
    assert tags == {"lam0-weight", "lam0-omega", "lam1-weight", "lam1-omega"}


def test_criterion_09_vacuum_roundtrip():
    # recovered action tables equal the original coefficient-module action;
    # transport operators compose additively and satisfy the straightening
    # commutator; dressing-operator identities hold on probes
    report = _run("criterion-09 vacuum-roundtrip", "vacuum-roundtrip")
    ids = {c.check_id for c in report.checks}
    for kind in ("weight", "omega"):
        assert f"recovered-action/{kind}" in ids
        assert f"dressing-commutation/{kind}" in ids


def test_criterion_10_degree_zero_quotient():
    # translation circle products, ideal membership for 50 probe pairs,
    # multiplicativity of the identification on 50 pairs, bottom-level
    # injectivity probe
    report = _run("criterion-10 zhu", "zhu")
    ids = {c.check_id for c in report.checks}
    assert {"charge-circle-product", "ideal-membership",
            "product-identification", "bottom-level-injectivity"} <= ids


SWEEP = [(suite, nu, range(10)) for nu in (1, 2)
         for suite in ("classification", "omega-relations", "vacuum-roundtrip")]
SWEEP.append(("classification", 3, range(2)))


@pytest.mark.parametrize("suite, nu, seeds", SWEEP, ids=[f"{s}-nu{n}" for s, n, _ in SWEEP])
def test_seed_sweep(suite, nu, seeds):
    # contiguous seeds from 0: a report must not depend on a lucky draw
    failing = {}
    for seed in seeds:
        report = run_verification(suite, replace(CONFIG, nu=nu, seed=seed))
        if not report.ok:
            failing[seed] = report.summary_lines()[1:]
    assert not failing, failing
