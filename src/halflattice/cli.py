"""Command-line front end.

Subcommands:

    eval product   U.json N V.json      algebra product u_n v
    eval zhu       U.json V.json        star product, raw and reduced
    eval act       X.json F.json --module W.json  straightened-algebra action on a module
    decide iso     SPEC1.json SPEC2.json
    decide amodule SPEC.json
    witness simplicity SPEC.json F.json
    verify SUITE                        run a named verification suite

Every subcommand accepts ``--config FILE`` (JSON with nu, k, mode_window,
jacobi_window, probe_count, max_degree, seed) and ``--json``, for canonical
machine-readable output on stdout, before the subcommand; only ``--json``
may also follow it.  Exit codes: 0 all checks pass, 1 a check failed, 2 bad
input.  The module loads the suites and the parsers; each command imports
the other layers it reads when it runs.

``main`` reads the config once and prints: each command returns its exit
code, JSON data and text, and writes nothing to stdout.  ``verify`` writes
its wall time, which the JSON report leaves out, to stderr.  ``witness
simplicity`` refuses an f with an exponent above 64 in absolute value, as
the reduction's cost grows about as the cube of the exponent.
"""

from __future__ import annotations

import argparse
import json
import sys

from .lattice import LatticeConfig
from .serialize import (
    SchemaError,
    b_element_to_data,
    b_element_from_data,
    format_fraction,
    laurent_from_data,
    laurent_to_data,
    omega_spec_from_data,
    velement_from_data,
    velement_to_data,
    w_handle_from_data,
    weight_vector_from_data,
    weight_vector_to_data,
)
from .suites import SUITES, SuiteConfig, run_verification

WITNESS_EXPONENT_LIMIT = 64


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _load_doc(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(path, f"cannot read file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON: {exc}") from None


def _suite_config(args) -> SuiteConfig:
    """The suite config from the config file, then the --nu, --k and --seed
    flags over it, every value checked by one rule and named by its source."""
    values = []  # (where it came from, field, value)
    if args.config:
        doc = _load_doc(args.config)
        if not isinstance(doc, dict):
            raise SchemaError(args.config, "config must be a JSON object")
        unknown = set(doc) - set(SuiteConfig._fields)
        if unknown:
            raise SchemaError(args.config, f"unknown config fields: {sorted(unknown)}")
        values += [(f"{args.config}.{name}", name, value) for name, value in doc.items()]
    values += [(f"--{name}", name, getattr(args, name)) for name in ("nu", "k", "seed")
               if getattr(args, name) is not None]
    lower = {"nu": 1, "probe_count": 1, "mode_window": 0, "jacobi_window": 0, "max_degree": 0}
    for path, name, value in values:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(path, f"expected an integer, got {value!r}")
        if name in lower and value < lower[name]:
            raise SchemaError(path, f"must be at least {lower[name]}, got {value}")
        if name == "k" and value == 0:
            raise SchemaError(path, "k must be a nonzero integer")
    return SuiteConfig(**{name: value for _, name, value in values})


def _lattice(config: SuiteConfig) -> LatticeConfig:
    return LatticeConfig(*config.resolved(2, 1))


def _cmd_eval_product(args, config):
    from .vertex import nth_product

    cfg = _lattice(config)
    u = velement_from_data(_load_doc(args.u), cfg, "u")
    v = velement_from_data(_load_doc(args.v), cfg, "v")
    result = nth_product(cfg, u, args.n, v)
    return 0, velement_to_data(result), str(result)


def _cmd_eval_zhu(args, config):
    from .zhu import zhu_embed, zhu_reduce, zhu_star

    cfg = _lattice(config)
    u = velement_from_data(_load_doc(args.u), cfg, "u")
    v = velement_from_data(_load_doc(args.v), cfg, "v")
    raw = zhu_star(cfg, u, v)
    reduced = zhu_reduce(cfg, raw)
    data = {"raw": velement_to_data(raw), "reduced": velement_to_data(zhu_embed(reduced))}
    return 0, data, f"raw:     {raw}\nreduced: {reduced}"


def _cmd_eval_act(args, config):
    from .assoc import OmegaSpec, act_on_module, act_on_omega_module

    cfg = _lattice(config)
    x = b_element_from_data(_load_doc(args.x), cfg, "x")
    handle = w_handle_from_data(_load_doc(args.module), cfg, "module")
    if isinstance(handle, OmegaSpec):
        f = laurent_from_data(_load_doc(args.m), handle.ring, "m")
        result = act_on_omega_module(x, f, handle)
        return 0, laurent_to_data(result), str(result)
    m = weight_vector_from_data(_load_doc(args.m), handle, "m")
    result = act_on_module(x, m)
    return 0, weight_vector_to_data(result), str(result)


def _cmd_decide_iso(args, config):
    from .assoc import iso_decide

    cfg = _lattice(config)
    s1 = omega_spec_from_data(_load_doc(args.spec1), cfg, "spec1")
    s2 = omega_spec_from_data(_load_doc(args.spec2), cfg, "spec2")
    iso = iso_decide(s1, s2)
    if iso is None:
        return 0, {"isomorphic": False, "shifts": None}, "not isomorphic"
    shifts = list(iso.shifts)
    return 0, {"isomorphic": True, "shifts": shifts}, f"isomorphic; monomial shifts {shifts}"


def _cmd_decide_amodule(args, config):
    from .assoc import decompose_potential, is_a_module_spec

    spec = omega_spec_from_data(_load_doc(args.spec), _lattice(config), "spec")
    ok, pair = is_a_module_spec(spec)
    if not ok:
        return (0, {"commuting": False, "failing_pair": list(pair)},
                f"does not descend: degree derivations disagree on pair {pair}")
    # the potential exists exactly when the derivations commute
    P, parts = decompose_potential(spec)
    data = {"commuting": True, "potential": laurent_to_data(P),
            "pure_parts": [laurent_to_data(p) for p in parts]}
    return 0, data, f"descends to the commutative quotient; potential P = {P}"


def _cmd_witness_simplicity(args, config):
    from .assoc import simplicity_witness

    spec = omega_spec_from_data(_load_doc(args.spec), _lattice(config), "spec")
    f = laurent_from_data(_load_doc(args.f), spec.ring, "f")
    if f.is_zero():
        raise SchemaError("f", "the zero element admits no reduction witness")
    top = max(abs(e) for exps in f.terms for e in exps)
    if top > WITNESS_EXPONENT_LIMIT:
        raise SchemaError("f", f"exponent {top} exceeds the witness limit"
                               f" of {WITNESS_EXPONENT_LIMIT} in absolute value")
    witness = simplicity_witness(spec, f)
    matches = witness.replay(f) == spec.ring.constant(witness.result)
    data = {
        "steps": [
            {"kind": s.kind, "j": s.j, "element": b_element_to_data(s.element)}
            for s in witness.steps
        ],
        "result": format_fraction(witness.result),
        "replay_matches": matches,
    }
    text = [f"{len(witness.steps)} steps reduce the element to {witness.result} * symbol"]
    text += [f"  [{i}] {s.kind} on t{s.j}: {s.element}" for i, s in enumerate(witness.steps)]
    return 0 if matches else 1, data, "\n".join(text)


def _cmd_verify(args, config):
    report = run_verification(args.suite, config)
    print(f"wall time {report.wall_time_s:.2f}s", file=sys.stderr)
    return 0 if report.ok else 1, report.to_data(), "\n".join(report.summary_lines())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halflattice",
        description="Exact computations in the half-lattice vertex algebra.",
    )
    parser.add_argument("--config", help="JSON config file", default=None)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--nu", type=int, default=None, help="rank override")
    parser.add_argument("--k", type=int, default=None, help="pairing constant override")
    parser.add_argument("--seed", type=int, default=None, help="probe seed override")
    sub = parser.add_subparsers(dest="command", required=True)
    # --json may also follow the subcommand; there an absent flag sets nothing
    late = argparse.ArgumentParser(add_help=False)
    late.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                      help="machine-readable output")

    ev = sub.add_parser("eval", help="evaluate a product or action")
    evsub = ev.add_subparsers(dest="what", required=True)
    p = evsub.add_parser("product", parents=[late], help="algebra product u_n v")
    p.add_argument("u"), p.add_argument("n", type=int), p.add_argument("v")
    p.set_defaults(func=_cmd_eval_product)
    p = evsub.add_parser("zhu", parents=[late], help="star product with its reduced class")
    p.add_argument("u"), p.add_argument("v")
    p.set_defaults(func=_cmd_eval_zhu)
    p = evsub.add_parser("act", parents=[late], help="act on a coefficient module")
    p.add_argument("x"), p.add_argument("m")
    p.add_argument("--module", required=True, help="coefficient module JSON")
    p.set_defaults(func=_cmd_eval_act)

    de = sub.add_parser("decide", help="classification decisions")
    desub = de.add_subparsers(dest="what", required=True)
    p = desub.add_parser("iso", parents=[late], help="decide isomorphism of function modules")
    p.add_argument("spec1"), p.add_argument("spec2")
    p.set_defaults(func=_cmd_decide_iso)
    p = desub.add_parser("amodule", parents=[late], help="does the spec descend to commuting d's")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_decide_amodule)

    wi = sub.add_parser("witness", help="constructive reductions")
    wisub = wi.add_subparsers(dest="what", required=True)
    p = wisub.add_parser("simplicity", parents=[late], help="reduction witness to the cyclic symbol")
    p.add_argument("spec"), p.add_argument("f")
    p.set_defaults(func=_cmd_witness_simplicity)

    p = sub.add_parser("verify", parents=[late], help="run a verification suite")
    p.add_argument("suite", help=f"one of: {', '.join(sorted(SUITES))}")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, data, text = args.func(args, _suite_config(args))
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_dump(data) if args.json else text)
    return code


if __name__ == "__main__":
    sys.exit(main())
