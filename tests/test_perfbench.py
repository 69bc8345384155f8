"""The benchmark in perfbench/ still finds the layers and workloads it names.

perfbench rebinds package functions by (module, qualified name) and builds
its workloads from the package's public suites and checkers; a rename or a
signature change in the package would otherwise only show as a "not traced"
line or a failed gate in a benchmark run.
"""

import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name: str) -> dict:
    """A perfbench script's globals, executed from source so nothing is written there."""
    path = PERFBENCH / f"{name}.py"
    namespace = {"__name__": f"perfbench_{name}"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def test_every_traced_layer_resolves():
    tracer = _load("tracer")
    for module_name, qualname in tracer["TRACED"]:
        target = importlib.import_module(f"{tracer['PACKAGE']}.{module_name}")
        for part in qualname.split("."):
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{qualname}"


def test_every_workload_plans():
    workloads = _load("workloads")
    for name in workloads["NAMES"]:
        calls = workloads["plan"](name, 7)
        assert calls and all(callable(call) for _, call in calls), name


def test_every_workload_passes_its_expected_checks():
    # one sample per workload at seed 7, gated the way perfbench/run.py gates
    # it: the passing (suite, check id) multiset equals perfbench/expected.json
    workloads = _load("workloads")
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    for name in workloads["NAMES"]:
        passing = Counter()
        for _, call in workloads["plan"](name, 7):
            report = call()
            passing.update((report.suite, c.check_id) for c in report.checks if c.ok)
        assert passing == Counter(map(tuple, expected[name])), name


def test_fixed_shape_workloads_extract_the_pinned_coefficients(monkeypatch):
    # The fields prepared, the coefficients computed, the terms those hold
    # and the forms read, at seed 7.  perfbench's tracer counts coefficients
    # at vertex.y_coefficient, which the cache's prepared fields bypass, so
    # they are counted here at Field.__init__ and where a field computes a
    # coefficient's integer form: a miss of its own table at an n no larger
    # than its top, past which it computes nothing.  Every integer_form call
    # is a form read.  On jacobi the checkers compute each adjoint product
    # once, in the one table the adjoint context shares, never act on a zero
    # inner product and read no form past its field's top, which would be
    # empty: 6,936 of the 18,040 reads they made before were such.  The
    # last two counts are the calls to vertex.dressing and
    # vertex.act_on_labels: a field runs its zero modes and charge shift once
    # per annihilation pattern, not once per level a, which cut them from
    # 988 and 440 on jacobi and from 2,014 and 800 on dressing.  The seventh
    # count is the residuals that reach identities._commutator_sum: a
    # Borcherds residual past its triple's weight top returns zero before
    # it, which cut 8,000 to 4,000 on jacobi.  That cut changes no output,
    # so this count is what fails when the top is made too large.  On
    # dressing, the residual at n = 0 adds 0 times u_{n-1} w, which the
    # cache neither computes nor reads: 16 coefficients and 16 form reads
    # fewer than 100.  The eighth count is the c-direction zero modes a
    # field applies at a zero scalar (c_i, lam) while it is prepared, each
    # of which empties its state: the annihilation patterns offer such a
    # mode only where the pairing is nonzero, never in the adjoint, which
    # cut them from 218 on jacobi and 460 on dressing, and the sixth count
    # by the d zero modes that ran before one of them, 370 -> 366 and
    # 504 -> 488.
    from halflattice import identities, vertex
    from halflattice.vertex import Field

    workloads = _load("workloads")
    init, integer_form, dir_mode = Field.__init__, Field.integer_form, vertex._dir_mode
    counts = [0] * 8
    preparing = [False]

    def counted_init(self, u, w, ctx):
        preparing[0] = True
        try:
            init(self, u, w, ctx)
        finally:
            preparing[0] = False
        counts[0] += 1

    def counted_mode(out, x, dir_, n, states, ctx):
        if preparing[0] and n == 0 and dir_ < ctx.cfg.nu and not ctx.pairings[dir_]:
            counts[7] += 1
        return dir_mode(out, x, dir_, n, states, ctx)

    def counted(self, n):
        computed = n <= self.top and n not in self._forms
        form = integer_form(self, n)
        counts[3] += 1
        if computed:
            counts[1] += 1
            counts[2] += len(form[0])
        return form

    def calls(slot, rule):
        def counted_rule(*args):
            counts[slot] += 1
            return rule(*args)
        return counted_rule

    monkeypatch.setattr(Field, "__init__", counted_init)
    monkeypatch.setattr(Field, "integer_form", counted)
    monkeypatch.setattr(vertex, "dressing", calls(4, vertex.dressing))
    monkeypatch.setattr(vertex, "act_on_labels", calls(5, vertex.act_on_labels))
    monkeypatch.setattr(identities, "_commutator_sum", calls(6, identities._commutator_sum))
    monkeypatch.setattr(vertex, "_dir_mode", counted_mode)
    for name, want in (("jacobi", [280, 1524, 5100, 11104, 644, 366, 4000, 0]),
                       ("dressing", [36, 84, 1784, 84, 842, 488, 0, 0])):
        counts[:] = [0] * 8
        for _, call in workloads["plan"](name, 7):
            call()
        assert counts == want, name


COUNT_FRACTIONS = """
import sys
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
namespace = {"__name__": "perfbench_workloads"}
exec(compile(open(sys.argv[2]).read(), sys.argv[2], "exec"), namespace)
calls = namespace["plan"](sys.argv[3], 7)
new, built = Fraction.__new__, [0]

def counted(cls, *args, **kwargs):
    built[0] += 1
    return new(cls, *args, **kwargs)

Fraction.__new__ = counted
for _, call in calls:
    call()
print(built[0])
"""


def _fractions_built(workload: str) -> int:
    """Fractions built by one sample of the workload at seed 7, after its
    inputs are built, in a fresh interpreter as perfbench runs it: the
    engine's process-wide caches start empty."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, "-c", COUNT_FRACTIONS, str(ROOT / "src"), str(PERFBENCH / "workloads.py"),
         workload],
        env=env, capture_output=True, text=True, check=True,
    )
    return int(out.stdout)


def test_jacobi_sample_builds_the_pinned_fractions():
    # The checkers sum integer forms and every residual is zero, so all of
    # these come from the engine, which sums as integer numerators too: 187
    # are the prepared fields' term-pair scalars and 19 the values that are
    # not whole in the inner products divided back to elements.  The
    # outer coefficients are read as integer forms and never divided back.
    # The same under PYTHONHASHSEED 0 and 1.
    assert _fractions_built("jacobi") == 206


def test_dressing_sample_builds_the_pinned_fractions():
    # The engine builds 54 for the prepared fields' term-pair scalars and 8
    # for the values that are not whole in the L(-1)u divided back to
    # elements, and one is the conformal vector's 1/k.  The residuals sum
    # integer forms, divide none back and build none.  The same under
    # PYTHONHASHSEED 0 and 1.
    assert _fractions_built("dressing") == 63


def test_modes_sample_builds_the_pinned_fractions():
    # The probes draw 73 rational coefficients, the central terms of the
    # m + n = 0 residuals build 112, and the rest are the mode terms'
    # products and sums on the probes' coefficients, in the one mode rule,
    # whose scalar is folded before its term loop.  The d-direction zero
    # mode adds its label action into the caller's dict with its scalar
    # folded into each integer label scalar, so it copies no coefficient;
    # the creation and c-direction zero modes add a coefficient itself at
    # scalar 1.  The 316 creation products at scalar -1 still build one
    # each, since a negated Fraction is a new one.  A contraction removes one
    # factor per distinct partner factor and scales by its multiplicity, so a
    # repeated factor builds one product, not one per occurrence.  The suite
    # evaluates one residual per orbit of the bracket's antisymmetry, one
    # sweep for bracket/x:y and bracket/y:x and m <= n for bracket/x:x, so
    # half as many m + n = 0 residuals carry a central term as when every
    # ordered pair was swept (224 then), and 600 creation products fell to
    # 316: 3,269 Fractions fell to 1,818.  The same under PYTHONHASHSEED 0
    # and 1.
    assert _fractions_built("modes") == 1818
