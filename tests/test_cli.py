import itertools
import json

import pytest

from halflattice.cli import main
from halflattice.fock import VElement, vacuum
from halflattice.laurent import LaurentPoly, LaurentRing
from halflattice.suites import SUITES, SuiteConfig, SuiteReport


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def charge_doc(charge):
    return {"terms": [{"coeff": "1", "fock": [], "charge": list(charge)}]}


def test_eval_product(tmp_path, capsys):
    u = write(tmp_path, "u.json", charge_doc((1, 0)))
    v = write(tmp_path, "v.json", charge_doc((0, 1)))
    assert main(["--json", "eval", "product", u, "-2", v]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"terms": [{"charge": [1, 1], "coeff": "1", "fock": [[0, 1]]}]}


def test_eval_product_json_bytes(tmp_path, capsys):
    # negative charges and a mode-2 factor; the records come in the order of
    # the decoded (direction, mode) pairs, then the charge
    u = write(tmp_path, "u.json", {"terms": [
        {"coeff": "1", "fock": [[0, 2]], "charge": [-1, 0]},
        {"coeff": "-2", "fock": [], "charge": [-2, 1]}]})
    v = write(tmp_path, "v.json", {"terms": [{"coeff": "1/2", "fock": [[3, 1]], "charge": [1, -1]}]})
    assert main(["--json", "eval", "product", u, "-1", v]) == 0
    assert capsys.readouterr().out == (
        '{"terms":[{"charge":[-1,0],"coeff":"-2","fock":[[0,1]]},'
        '{"charge":[0,-1],"coeff":"1/2","fock":[[0,2],[3,1]]},'
        '{"charge":[-1,0],"coeff":"1","fock":[[1,1]]},'
        '{"charge":[-1,0],"coeff":"-1","fock":[[3,1]]}]}\n')
    assert main(["eval", "product", u, "-1", v]) == 0
    assert capsys.readouterr().out == (
        "-2*c1(-1)e^{-c1} + 1/2*c1(-2)d2(-1)e^{-c2} + c2(-1)e^{-c1} - d2(-1)e^{-c1}\n")


def test_eval_zhu_emits_raw_and_reduced(tmp_path, capsys):
    u = write(tmp_path, "u.json", {"terms": [{"coeff": "1", "fock": [[2, 1]], "charge": [0, 0]}]})
    v = write(tmp_path, "v.json", charge_doc((1, 0)))
    assert main(["--json", "eval", "zhu", u, v]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"raw", "reduced"}
    assert len(out["raw"]["terms"]) == 2


def test_eval_zhu_text(tmp_path, capsys):
    u = write(tmp_path, "u.json", {"terms": [{"coeff": "1", "fock": [[2, 1]], "charge": [0, 0]}]})
    v = write(tmp_path, "v.json", charge_doc((1, 0)))
    assert main(["eval", "zhu", u, v]) == 0
    assert capsys.readouterr().out == (
        "raw:     e^{c1} + d1(-1)e^{c1}\n"
        "reduced: e[1,0] + e[1,0]*d1\n")


def test_eval_act_on_omega(tmp_path, capsys):
    x = write(tmp_path, "x.json", {"words": [{"coeff": "1", "factors": [{"d": 1}]}]})
    f = write(tmp_path, "f.json", [{"coeff": "1", "exponents": [1, 0]}])
    module = write(
        tmp_path, "w.json",
        {"kind": "omega", "mu": 2, "f": [[{"coeff": "1", "exponents": [1, 0]}]], "a": ["2"]},
    )
    assert main(["--json", "eval", "act", x, f, "--module", module]) == 0
    out = json.loads(capsys.readouterr().out)
    # degree action on t1: t1 + t1^2
    assert out == [
        {"coeff": "1", "exponents": [1, 0]},
        {"coeff": "1", "exponents": [2, 0]},
    ]


def test_eval_act_rejects_a_function_module_at_k_other_than_1(tmp_path, capsys):
    # the spec parses, then the module record is refused: function modules
    # exist only at k = 1
    x = write(tmp_path, "x.json", {"words": [{"coeff": "1", "factors": [{"d": 1}]}]})
    f = write(tmp_path, "f.json", [{"coeff": "1", "exponents": [1, 0]}])
    module = write(
        tmp_path, "w.json",
        {"kind": "omega", "mu": 2, "f": [[{"coeff": "1", "exponents": [1, 0]}]], "a": ["2"]},
    )
    for flags in ([], ["--json"]):
        assert main(["--k", "2", *flags, "eval", "act", x, f, "--module", module]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: module: function modules are defined for k = 1 only\n"


def test_eval_act_checks_the_exponents_of_a_zero_coefficient(tmp_path, capsys):
    # t2 is polynomial-only on the cutoff-2 function module: the record is
    # refused by the same path and text whether its coefficient is 1 or 0
    x = write(tmp_path, "x.json", {"words": [{"coeff": "1", "factors": [{"d": 1}]}]})
    module = write(
        tmp_path, "w.json",
        {"kind": "omega", "mu": 2, "f": [[{"coeff": "1", "exponents": [1, 0]}]], "a": ["2"]},
    )
    errors = []
    for coeff in ("1", "0"):
        f = write(tmp_path, f"f{coeff}.json", [{"coeff": coeff, "exponents": [1, -1]}])
        assert main(["eval", "act", x, f, "--module", module]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1] == (
        "input error: m[0].exponents: variable t2 is polynomial-only but has exponent -1\n")


def test_eval_act_refuses_large_polynomial_exponents(tmp_path, capsys, monkeypatch):
    # e_alpha expands a polynomial-only t_j^e densely into a_j^m (t_j - m)^e
    # over alpha's entry m, so an exponent of t2 in m, or an entry of x's
    # charge in direction 2, above 64 in absolute value is refused before
    # the module acts; 64 acts, and the Laurent variable t1, which e_alpha
    # only shifts, is not bounded
    from halflattice import assoc

    module = write(
        tmp_path, "w.json",
        {"kind": "omega", "mu": 2, "f": [[{"coeff": "1", "exponents": [1, 0]}]], "a": ["2"]},
    )

    def word(charge):
        return {"words": [{"coeff": "1", "factors": [{"e": list(charge)}]}]}

    def run(x, exponents):
        x = write(tmp_path, "x.json", x)
        m = write(tmp_path, "m.json", [{"coeff": "1", "exponents": list(exponents)}])
        return main(["--json", "eval", "act", x, m, "--module", module])

    assert run(word((0, 1)), (0, 64)) == 0
    assert len(json.loads(capsys.readouterr().out)) == 65  # 2 (t2 - 1)^64
    assert run(word((0, 64)), (100, 1)) == 0
    assert json.loads(capsys.readouterr().out) == [
        {"coeff": str(-64 * 2**64), "exponents": [100, 0]},
        {"coeff": str(2**64), "exponents": [100, 1]},
    ]
    assert run(word((-1000, -64)), (-1000, 0)) == 0
    assert json.loads(capsys.readouterr().out) == [{"coeff": "1/18446744073709551616",
                                                    "exponents": [-2000, 0]}]

    def refused(*args):
        raise AssertionError("the module acted on a refused input")

    monkeypatch.setattr(assoc, "act_on_omega_module", refused)
    for e in (65, 2**70):
        assert run(word((0, 1)), (0, e)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"input error: m: polynomial-variable exponent {e}"
                                " exceeds the limit of 64 in absolute value\n")
    for e in (65, -65, 2**70, -2**70):
        assert run(word((0, e)), (0, 1)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"input error: x: polynomial-direction charge entry {abs(e)}"
                                " exceeds the limit of 64 in absolute value\n")


def test_eval_act_on_weight(tmp_path, capsys):
    x = write(tmp_path, "x.json", {"words": [{"coeff": "1", "factors": [{"e": [0, 1]}]}]})
    m = write(tmp_path, "m.json", [{"coeff": "1", "point": ["1/2", "0"]}])
    module = write(tmp_path, "w.json", {"kind": "weight", "lambda0": ["1/2", "0"]})
    assert main(["--json", "eval", "act", x, m, "--module", module]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == [{"coeff": "1", "point": ["1/2", "1"]}]


def test_eval_act_on_weight_prints_the_module_state(tmp_path, capsys):
    # the text form of a weight vector is the module state at the empty word
    x = write(tmp_path, "x.json", {"words": [{"coeff": "1", "factors": [{"e": [0, 1]}]},
                                             {"coeff": "2", "factors": [{"d": 1}]}]})
    m = write(tmp_path, "m.json", [{"coeff": "1", "point": ["1/2", "0"]}])
    module = write(tmp_path, "w.json", {"kind": "weight", "lambda0": ["1/2", "0"]})
    assert main(["eval", "act", x, m, "--module", module]) == 0
    assert capsys.readouterr().out == "w[(1/2, 0)] + w[(1/2, 1)]\n"


def test_eval_act_on_half_integer_weights_json_bytes(tmp_path, capsys):
    # the records come by label, numerically: -3/2 before -1/2
    x = write(tmp_path, "x.json", {"words": [
        {"coeff": "1", "factors": [{"e": [-1, 2]}]},
        {"coeff": "-3", "factors": [{"d": 2}, {"e": [1, -2]}]},
        {"coeff": "1/2", "factors": [{"d": 1}, {"d": 1}]}]})
    m = write(tmp_path, "m.json", [{"coeff": "1", "point": ["1/2", "0"]},
                                   {"coeff": "-3", "point": ["-1/2", "1"]},
                                   {"coeff": "5", "point": ["3/2", "-2"]}])
    module = write(tmp_path, "w.json", {"kind": "weight", "lambda0": ["1/2", "0"]})
    assert main(["--json", "eval", "act", x, m, "--module", module]) == 0
    assert capsys.readouterr().out == (
        '[{"coeff":"-3","point":["-3/2","3"]},{"coeff":"-3/8","point":["-1/2","1"]},'
        '{"coeff":"1","point":["-1/2","2"]},{"coeff":"-9","point":["1/2","-1"]},'
        '{"coeff":"41/8","point":["1/2","0"]},{"coeff":"93/8","point":["3/2","-2"]},'
        '{"coeff":"60","point":["5/2","-4"]}]\n')


def test_eval_act_on_weight_rejects_bad_record(tmp_path, capsys):
    x = write(tmp_path, "x.json", {"words": [{"coeff": "1", "factors": [{"e": [0, 1]}]}]})
    m = write(tmp_path, "m.json", [5])
    module = write(tmp_path, "w.json", {"kind": "weight", "lambda0": ["1/2", "0"]})
    assert main(["--json", "eval", "act", x, m, "--module", module]) == 2
    assert "m[0]: expected an object" in capsys.readouterr().err


def test_eval_product_rejects_misspelled_term_key(tmp_path, capsys):
    u = write(tmp_path, "u.json", {"terms": [{"cofef": "5", "fock": [], "charge": [1, 0]}]})
    v = write(tmp_path, "v.json", charge_doc((0, 1)))
    assert main(["eval", "product", u, "-2", v]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: u.terms[0].cofef: unknown key" in captured.err


def test_eval_act_rejects_misspelled_module_key(tmp_path, capsys):
    x = write(tmp_path, "x.json", {"words": [{"coeff": "1", "factors": [{"e": [0, 1]}]}]})
    m = write(tmp_path, "m.json", [{"coeff": "1", "point": ["1/2", "0"]}])
    module = write(tmp_path, "w.json", {"kind": "weight", "lambd0": ["1/2", "0"]})
    assert main(["--json", "eval", "act", x, m, "--module", module]) == 2
    assert "input error: module.lambd0: unknown key" in capsys.readouterr().err


def test_decide_iso_rejects_kind_in_a_spec(tmp_path, capsys):
    doc = {"mu": 2, "f": [[{"coeff": "1", "exponents": [1, 0]}]], "a": ["2"]}
    s1 = write(tmp_path, "s1.json", {**doc, "kind": "omega"})
    s2 = write(tmp_path, "s2.json", doc)
    assert main(["decide", "iso", s1, s2]) == 2
    assert "input error: spec1.kind: unknown key" in capsys.readouterr().err


def test_eval_act_label_error_prints_rationals(tmp_path, capsys):
    x = write(tmp_path, "x.json", {"words": [{"coeff": "1", "factors": [{"e": [0, 1]}]}]})
    m = write(tmp_path, "m.json", [{"coeff": "1", "point": ["0", "0"]}])
    module = write(tmp_path, "w.json", {"kind": "weight", "lambda0": ["1/2", "0"]})
    assert main(["eval", "act", x, m, "--module", module]) == 2
    err = capsys.readouterr().err
    assert "m[0].point: label (0, 0) is not in the charge coset of (1/2, 0)" in err
    assert "Fraction(" not in err


def test_decide_iso(tmp_path, capsys):
    s1 = write(tmp_path, "s1.json", {"mu": 2, "f": [[{"coeff": "1", "exponents": [1, 0]}]], "a": ["2"]})
    s2 = write(
        tmp_path, "s2.json",
        {"mu": 2,
         "f": [[{"coeff": "1", "exponents": [1, 0]}, {"coeff": "3", "exponents": [0, 0]}]],
         "a": ["2"]},
    )
    assert main(["--json", "decide", "iso", s1, s2]) == 0
    assert json.loads(capsys.readouterr().out) == {"isomorphic": True, "shifts": [3]}
    s3 = write(tmp_path, "s3.json", {"mu": 2, "f": [[{"coeff": "1", "exponents": [1, 0]}]], "a": ["7"]})
    assert main(["--json", "decide", "iso", s1, s3]) == 0
    assert json.loads(capsys.readouterr().out) == {"isomorphic": False, "shifts": None}


def test_decide_iso_text(tmp_path, capsys):
    s1 = write(tmp_path, "s1.json", {"mu": 2, "f": [[{"coeff": "1", "exponents": [1, 0]}]], "a": ["2"]})
    s2 = write(
        tmp_path, "s2.json",
        {"mu": 2,
         "f": [[{"coeff": "1", "exponents": [1, 0]}, {"coeff": "3", "exponents": [0, 0]}]],
         "a": ["2"]},
    )
    s3 = write(tmp_path, "s3.json", {"mu": 2, "f": [[{"coeff": "1", "exponents": [1, 0]}]], "a": ["7"]})
    assert main(["decide", "iso", s1, s2]) == 0
    assert capsys.readouterr().out == "isomorphic; monomial shifts [3]\n"
    assert main(["decide", "iso", s1, s3]) == 0
    assert capsys.readouterr().out == "not isomorphic\n"


def test_decide_amodule(tmp_path, capsys):
    good = write(
        tmp_path, "good.json",
        {"mu": 3,
         "f": [[{"coeff": "1", "exponents": [1, 1]}], [{"coeff": "1", "exponents": [1, 1]}]],
         "a": []},
    )
    assert main(["--json", "decide", "amodule", good]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["commuting"] and out["potential"] == [{"coeff": "1", "exponents": [1, 1]}]
    bad = write(
        tmp_path, "bad.json",
        {"mu": 3,
         "f": [[{"coeff": "1", "exponents": [0, 1]}], [{"coeff": "1", "exponents": [1, 0]}]],
         "a": []},
    )
    assert main(["--json", "decide", "amodule", bad]) == 0
    out = json.loads(capsys.readouterr().out)
    assert not out["commuting"] and out["failing_pair"] == [1, 2]


def test_decide_amodule_text(tmp_path, capsys):
    good = write(
        tmp_path, "good.json",
        {"mu": 3,
         "f": [[{"coeff": "1", "exponents": [1, 1]}], [{"coeff": "1", "exponents": [1, 1]}]],
         "a": []},
    )
    bad = write(
        tmp_path, "bad.json",
        {"mu": 3,
         "f": [[{"coeff": "1", "exponents": [0, 1]}], [{"coeff": "1", "exponents": [1, 0]}]],
         "a": []},
    )
    assert main(["decide", "amodule", good]) == 0
    assert capsys.readouterr().out == (
        "descends to the commutative quotient; potential P = t1*t2\n")
    assert main(["decide", "amodule", bad]) == 0
    assert capsys.readouterr().out == (
        "does not descend: degree derivations disagree on pair (1, 2)\n")


def test_witness_simplicity(tmp_path, capsys):
    spec = write(tmp_path, "s.json", {"mu": 2, "f": [[{"coeff": "1", "exponents": [1, 0]}]], "a": ["2"]})
    f = write(tmp_path, "f.json", [{"coeff": "1", "exponents": [1, 1]}])
    assert main(["--json", "witness", "simplicity", spec, f]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["replay_matches"] and out["result"] == "-1"
    assert [s["kind"] for s in out["steps"]] == ["derive", "difference"]
    # the words come in their natural order: ("d", j) before ("e", charge),
    # and the unit word first
    assert [s["element"]["words"] for s in out["steps"]] == [
        [{"coeff": "1", "factors": [{"e": [-1, 0]}, {"d": 1}]},
         {"coeff": "-1", "factors": [{"e": [-1, 0]}, {"e": [1, 0]}]}],
        [{"coeff": "-1", "factors": []}, {"coeff": "1/2", "factors": [{"e": [0, 1]}]}],
    ]
    assert main(["witness", "simplicity", spec, f]) == 0
    assert capsys.readouterr().out == (
        "2 steps reduce the element to -1 * symbol\n"
        "  [0] derive on t1: e[-1,0]*d1 - e[-1,0]*e[1,0]\n"
        "  [1] difference on t2: -1 + 1/2*e[0,1]\n")


def test_witness_simplicity_refuses_large_exponents(tmp_path, capsys):
    # the reduction's cost grows about as the cube of the exponent, so the
    # command stops at 64, and an exponent of 2^70 is refused before any work
    spec = write(tmp_path, "s.json", {"mu": 1, "f": [], "a": ["2"]})
    f = write(tmp_path, "f.json", [{"coeff": "1", "exponents": [64]}])
    assert main(["--nu", "1", "--json", "witness", "simplicity", spec, f]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["replay_matches"] and len(out["steps"]) == 64
    for e in (65, 2**70):
        f = write(tmp_path, "f.json", [{"coeff": "1", "exponents": [e]}])
        assert main(["--nu", "1", "witness", "simplicity", spec, f]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"input error: f: exponent {e} exceeds the witness limit of 64 in absolute value\n")
    # a negative exponent on a Laurent variable is bounded the same way
    spec = write(tmp_path, "s.json", {"mu": 2, "f": [[{"coeff": "1", "exponents": [1, 0]}]],
                                      "a": ["2"]})
    f = write(tmp_path, "f.json", [{"coeff": "1", "exponents": [-65, 1]}])
    assert main(["witness", "simplicity", spec, f]) == 2
    assert "f: exponent 65 exceeds the witness limit" in capsys.readouterr().err


def test_verify_unknown_suite_is_input_error(capsys):
    assert main(["verify", "bogus"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    cfgfile = write(tmp_path, "c.json", {"probe_count": 10, "seed": 3})
    assert main(["--json", "--config", cfgfile, "verify", "omega-relations"]) == 0
    first = capsys.readouterr().out
    assert main(["--json", "--config", cfgfile, "verify", "omega-relations"]) == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["failed"] == 0 and data["config"]["seed"] == 3


def test_verify_failure_exit_code(monkeypatch, capsys):
    def failing(config):
        report = SuiteReport("stub", {})
        report.add("always-fails", False, "residual-text")
        return report.finish()

    monkeypatch.setitem(SUITES, "stub", failing)
    assert main(["verify", "stub"]) == 1
    assert "FAIL always-fails" in capsys.readouterr().out


def test_schema_error_exit_code(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", {"terms": [{"coeff": "1", "fock": [], "charge": [1]}]})
    ok = write(tmp_path, "ok.json", charge_doc((0, 1)))
    assert main(["eval", "product", bad, "0", ok]) == 2
    assert "charge" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, flags, message",
    [
        pytest.param({"probes": 5}, [], "unknown config fields", id="unknown-field"),
        pytest.param({}, ["--nu", "0", "--k", "0"], "--nu: must be at least 1, got 0",
            id="nu-k-zero-flags"),
        pytest.param({}, ["--k", "0"], "--k: k must be a nonzero integer", id="zero-k-flag"),
        pytest.param({"nu": 2}, ["--nu", "-1"], "--nu: must be at least 1, got -1",
            id="negative-nu-flag-over-config"),
        pytest.param({"nu": 2.9}, [], "c.json.nu: expected an integer", id="float-nu"),
        pytest.param({"k": True}, [], "c.json.k: expected an integer", id="bool-k"),
        pytest.param({"seed": "7"}, [], "c.json.seed: expected an integer", id="string-seed"),
        pytest.param({"nu": 0}, [], "c.json.nu: must be at least 1", id="zero-nu"),
        pytest.param({"k": 0}, [], "c.json.k: k must be a nonzero integer", id="zero-k"),
        pytest.param({"probe_count": -5}, [], "c.json.probe_count: must be at least 1",
            id="negative-probe-count"),
        pytest.param({"probe_count": 0}, [], "c.json.probe_count: must be at least 1",
            id="zero-probe-count"),
        pytest.param({"mode_window": -1}, [], "c.json.mode_window: must be at least 0",
            id="negative-mode-window"),
        pytest.param({"jacobi_window": -1}, [], "c.json.jacobi_window: must be at least 0",
            id="negative-jacobi-window"),
        pytest.param({"max_degree": -1}, [], "c.json.max_degree: must be at least 0",
            id="negative-max-degree"),
    ],
)
def test_unknown_config_field_rejected(tmp_path, capsys, doc, flags, message):
    cfgfile = write(tmp_path, "c.json", doc)
    assert main(["--config", cfgfile, *flags, "--json", "verify", "zhu"]) == 2
    assert message in capsys.readouterr().err


def test_nu_flag_is_checked_before_a_suite_runs(capsys):
    # a --nu of 0 once reached the classification suite, which failed
    # inside the function module with no flag named
    assert main(["--nu", "0", "--json", "verify", "classification"]) == 2
    assert "input error: --nu: must be at least 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite", ["omega-relations", "classification", "module-axioms", "vacuum-roundtrip"]
)
def test_function_module_suites_reject_k(tmp_path, capsys, suite):
    cfgfile = write(tmp_path, "c.json", {"nu": 2, "k": 3})
    for flags in (["--config", cfgfile], ["--k", "3"]):
        assert main([*flags, "--json", "verify", suite]) == 2
        err = capsys.readouterr().err
        assert f"suite {suite} runs only at k = 1" in err and "got k = 3" in err


def test_nu_k_overrides(tmp_path, capsys):
    u = write(tmp_path, "u.json", {"terms": [{"coeff": "1", "fock": [], "charge": [1]}]})
    v = write(tmp_path, "v.json", {"terms": [{"coeff": "1", "fock": [[1, 1]], "charge": [0]}]})
    # (e^{c1})_0 applied to the depth-one d-mode at nu=1, frozen from the
    # skew-symmetry relation u_0 v = -v_0 u with v_0 u = d1(0) e^{c1}
    assert main(["--nu", "1", "--json", "eval", "product", u, "0", v]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"terms": [{"charge": [1], "coeff": "-1", "fock": []}]}


def test_classification_at_nu_one(capsys):
    assert main(["--nu", "1", "--json", "verify", "classification"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["failed"] == 0


@pytest.mark.parametrize("nu, seed", [(2, 5019), (1, 512)])
def test_classification_seeds_that_drew_only_cutoff_one(capsys, nu, seed):
    # potential-roundtrip once drew its cutoffs at random, and at these seeds
    # every trial drew cutoff 1, which has no multiplier to decompose
    flags = ["--nu", str(nu), "--seed", str(seed)]
    assert main([*flags, "--json", "verify", "classification"]) == 0
    assert json.loads(capsys.readouterr().out)["failed"] == 0


def test_vacuous_check_fails(monkeypatch, capsys):
    def vacuous(config):
        report = SuiteReport("stub", {})
        report.sweep("no-cases", [])
        report.sweep("one-case", [((0,), 0)])
        return report.finish()

    monkeypatch.setitem(SUITES, "stub", vacuous)
    assert main(["--json", "verify", "stub"]) == 1
    data = json.loads(capsys.readouterr().out)
    failed = [c for c in data["checks"] if c["status"] == "fail"]
    assert failed == [{"id": "no-cases", "status": "fail",
                       "residual": "vacuous: no case evaluated"}]


def test_json_flag_after_the_subcommand(tmp_path, capsys):
    cfgfile = write(tmp_path, "c.json", {"mode_window": 0, "probe_count": 2})
    assert main(["--config", cfgfile, "--json", "verify", "heisenberg"]) == 0
    before = capsys.readouterr().out
    assert main(["--config", cfgfile, "verify", "heisenberg", "--json"]) == 0
    assert capsys.readouterr().out == before
    assert json.loads(before)["passed"] == 16
    u = write(tmp_path, "u.json", charge_doc((1, 0)))
    v = write(tmp_path, "v.json", charge_doc((0, 1)))
    assert main(["eval", "product", u, "-2", v, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"terms": [{"charge": [1, 1], "coeff": "1", "fock": [[0, 1]]}]}
    # without the flag in either place the output is text
    assert main(["--config", cfgfile, "verify", "heisenberg"]) == 0
    assert capsys.readouterr().out.startswith("suite heisenberg: 16/16")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "heisenberg", "--bogus"], "unrecognized arguments: --bogus"),
        (["verify", "heisenberg", "--nu", "1"], "unrecognized arguments: --nu 1"),
        (["eval", "zhu", "u.json", "v.json", "--json=1"], "ignored explicit argument '1'"),
        (["verify", "zhu", "--config", "c.json"], "unrecognized arguments: --config c.json"),
    ],
)
def test_other_flags_after_the_subcommand_are_rejected(capsys, argv, message):
    # only --json may follow the subcommand
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_json_after_the_subcommand_keeps_input_errors(capsys):
    assert main(["verify", "bogus", "--json"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_sweep_decides_a_check():
    report = SuiteReport("stub", {})
    report.sweep("empty", [])
    report.sweep("passing", [((0,), 0), ((1,), False)])
    report.sweep("failing", [((0,), 0), ((1,), "bad"), ((2,), "later")])
    assert [(c.check_id, c.ok, c.residual) for c in report.finish().checks] == [
        ("empty", False, "vacuous: no case evaluated"),
        ("failing", False, "((1,), 'bad')"),
        ("passing", True, ""),
    ]


def test_suite_records_are_values_that_print_their_fields():
    config = SuiteConfig(nu=2, seed=3)
    again = SuiteConfig()._replace(nu=2, seed=3)
    assert config == again and hash(config) == hash(again)
    assert repr(config) == ("SuiteConfig(nu=2, k=None, mode_window=6, jacobi_window=3,"
                            " probe_count=50, max_degree=4, seed=3)")
    assert config.echo(2, 1) == {"nu": 2, "k": 1, "mode_window": 6, "jacobi_window": 3,
                                 "probe_count": 50, "max_degree": 4, "seed": 3}
    with pytest.raises(AttributeError):
        config.nu = 1
    report = SuiteReport("stub", {})
    report.add("a", False, "why")
    assert repr(report.checks) == "[CheckRecord(check_id='a', ok=False, residual='why')]"
    with pytest.raises(AttributeError):
        report.checks[0].ok = True


def test_combination_residuals_are_bounded():
    # a failing combination reads as its term count, its first three terms
    # and the failing index, however many terms it has
    big = VElement(1, {(((0, m),), (0,)): m for m in range(1, 1001)})
    report = SuiteReport("stub", {})
    report.sweep("huge", [((0, 1), VElement(1, {})), ((2, 5), big)])
    report.add("bare", False, big)
    report.add("small", False, ((3,), vacuum(1)))
    # a Laurent polynomial prints by exponent, not by the repr of its keys
    ring = LaurentRing(1, 1)
    poly = LaurentPoly(ring, {(e,): 1 for e in (-1, 0, 2, 3, 10)})
    assert str(poly) == "t1^-1 + 1 + t1^2 + t1^3 + t1^10"
    report.add("tail", False, ((0,), poly))
    report.finish()
    bare, huge, small, tail = (c.residual for c in report.checks)
    first = "c1(-1) + 2*c1(-2) + 3*c1(-3)"
    assert huge == f"at (2, 5): 1000 terms: {first} + ..."
    assert bare == f"1000 terms: {first} + ..."
    assert small == "at (3,): 1 term: 1"
    assert tail == "at (0,): 5 terms: t1^-1 + 1 + t1^2 + ..."
    assert len(str(big)) > 10_000


@pytest.mark.parametrize(
    "factor, path, message",
    [
        pytest.param({"e": [1, "x"]}, "x.words[0].factors[0].e", "expected an integer",
                     id="bad-charge-entry"),
        pytest.param({"e": [1, 0], "d": 1}, "x.words[0].factors[0]",
                     "factor needs exactly one key", id="e-and-d"),
    ],
)
def test_eval_act_rejects_bad_factor(tmp_path, capsys, factor, path, message):
    x = write(tmp_path, "x.json", {"words": [{"coeff": "1", "factors": [factor]}]})
    m = write(tmp_path, "m.json", [{"coeff": "1", "point": ["1/2", "0"]}])
    module = write(tmp_path, "w.json", {"kind": "weight", "lambda0": ["1/2", "0"]})
    assert main(["--json", "eval", "act", x, m, "--module", module]) == 2
    assert f"input error: {path}: {message}" in capsys.readouterr().err


def test_module_docstring_matches_the_parser():
    import re

    from halflattice import cli

    listing = cli.__doc__.split("Subcommands:")[1].split("Every subcommand")[0]
    lines = listing.strip().splitlines()
    assert len(lines) == 7
    parser = cli.build_parser()
    for line in lines:
        tokens = line.split()
        command = list(itertools.takewhile(lambda t: re.fullmatch("[a-z]+", t), tokens))
        rest = tokens[len(command):]
        args = list(itertools.takewhile(lambda t: re.fullmatch(r"[A-Z][\w.]*|--[a-z]+", t), rest))
        argv = command + ["0" if a == "N" else a for a in args]
        assert callable(parser.parse_args(argv).func), line

    listed = re.search(r"JSON with ([^)]*)\)", cli.__doc__).group(1)
    names = [name.strip() for name in listed.split(",")]
    assert names == list(SuiteConfig._fields)
