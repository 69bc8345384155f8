"""JSON schemas for elements, module specs, and configuration.

Rationals travel as the text "p/q", or "p" when the denominator is one.
Diagnostics name the offending field by path so CLI users can locate schema
violations without reading tracebacks.
"""

from __future__ import annotations

from fractions import Fraction

from .assoc import AElement, BElement, OmegaModule, OmegaSpec, WeightModule, WeightVector, gen_d, gen_e
from .combination import accumulate
from .fock import ModuleElement, VElement, fock_word
from .lattice import LatticeConfig
from .laurent import LaurentPoly, LaurentRing


class SchemaError(ValueError):
    """Input document violates a schema or an element invariant."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def format_fraction(q) -> str:
    return str(Fraction(q))


def parse_fraction(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError(path, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(path, f"cannot parse rational {value!r}: {exc}") from None
    raise SchemaError(path, f"expected a rational string, got {type(value).__name__}")


def _expect_list(doc, path: str, length: int | None = None) -> list:
    if not isinstance(doc, list):
        raise SchemaError(path, f"expected a list, got {type(doc).__name__}")
    if length is not None and len(doc) != length:
        raise SchemaError(path, f"expected length {length}, got {len(doc)}")
    return doc

def _expect_dict(doc, path: str) -> dict:
    if not isinstance(doc, dict):
        raise SchemaError(path, f"expected an object, got {type(doc).__name__}")
    return doc


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    return value


# -- Laurent polynomials ----------------------------------------------------------


def laurent_to_data(f: LaurentPoly) -> list:
    return [
        {"coeff": format_fraction(c), "exponents": list(e)} for e, c in f.sorted_terms()
    ]


def laurent_from_data(doc, ring: LaurentRing, path: str = "poly") -> LaurentPoly:
    out = ring.zero()
    for i, rec in enumerate(_expect_list(doc, path)):
        rec = _expect_dict(rec, f"{path}[{i}]")
        coeff = parse_fraction(rec.get("coeff", 1), f"{path}[{i}].coeff")
        exps = _expect_list(rec.get("exponents"), f"{path}[{i}].exponents", ring.nvars)
        try:
            out = out + ring.monomial([_int(e, f"{path}[{i}].exponents") for e in exps], coeff)
        except ValueError as exc:
            raise SchemaError(f"{path}[{i}].exponents", str(exc)) from None
    return out


# -- algebra elements ----------------------------------------------------------------


def velement_to_data(v: VElement) -> dict:
    terms = []
    for (word, charge), coeff in sorted(v.terms.items()):
        terms.append(
            {
                "coeff": format_fraction(coeff),
                "fock": [[d, m] for d, m in word],
                "charge": list(charge),
            }
        )
    return {"terms": terms}


def _fock_from_data(doc, cfg: LatticeConfig, path: str):
    """Canonical Fock word from a list of [direction, mode] pairs."""
    fock = []
    for j, pair in enumerate(_expect_list(doc, path)):
        where = f"{path}[{j}]"
        pair = _expect_list(pair, where, 2)
        dir_, mode = _int(pair[0], where), _int(pair[1], where)
        if not 0 <= dir_ < cfg.ndirs:
            raise SchemaError(where, f"direction {dir_} out of range 0..{cfg.ndirs - 1}")
        if mode < 1:
            raise SchemaError(where, f"mode {mode} must be positive")
        fock.append((dir_, mode))
    return fock_word(fock)


def velement_from_data(doc, cfg: LatticeConfig, path: str = "element") -> VElement:
    doc = _expect_dict(doc, path)
    terms: dict = {}
    for i, rec in enumerate(_expect_list(doc.get("terms"), f"{path}.terms")):
        rec = _expect_dict(rec, f"{path}.terms[{i}]")
        coeff = parse_fraction(rec.get("coeff", 1), f"{path}.terms[{i}].coeff")
        word = _fock_from_data(rec.get("fock", []), cfg, f"{path}.terms[{i}].fock")
        charge = _expect_list(rec.get("charge"), f"{path}.terms[{i}].charge", cfg.nu)
        charge = tuple(_int(m, f"{path}.terms[{i}].charge") for m in charge)
        accumulate(terms, (word, charge), coeff)
    return VElement(cfg.nu, terms)


def module_element_to_data(m: ModuleElement, handle) -> dict:
    terms = []
    for (word, label), coeff in sorted(m.terms.items(), key=lambda kv: repr(kv[0])):
        terms.append(
            {
                "coeff": format_fraction(coeff),
                "fock": [[d, mm] for d, mm in word],
                "w": _label_to_data(label, handle),
            }
        )
    return {"terms": terms}


def _label_to_data(label, handle):
    if handle.kind == "weight":
        return [format_fraction(x) for x in label]
    return list(label)


def _label_from_data(doc, handle, path: str):
    if handle.kind == "weight":
        coords = _expect_list(doc, path, handle.cfg.nu)
        label = tuple(parse_fraction(x, path) for x in coords)
    else:
        exps = _expect_list(doc, path, handle.spec.nu)
        label = tuple(_int(e, path) for e in exps)
    try:
        return handle.validate_label(label)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


def weight_vector_from_data(doc, handle, path: str = "m") -> WeightVector:
    """A weight-module vector from a list of {coeff, point} records."""
    terms: dict = {}
    for i, rec in enumerate(_expect_list(doc, path)):
        rec = _expect_dict(rec, f"{path}[{i}]")
        label = _label_from_data(rec.get("point"), handle, f"{path}[{i}].point")
        accumulate(terms, label, parse_fraction(rec.get("coeff", 1), f"{path}[{i}].coeff"))
    return WeightVector(terms)


def module_element_from_data(doc, cfg: LatticeConfig, handle, path: str = "element") -> ModuleElement:
    doc = _expect_dict(doc, path)
    terms: dict = {}
    for i, rec in enumerate(_expect_list(doc.get("terms"), f"{path}.terms")):
        rec = _expect_dict(rec, f"{path}.terms[{i}]")
        coeff = parse_fraction(rec.get("coeff", 1), f"{path}.terms[{i}].coeff")
        word = _fock_from_data(rec.get("fock", []), cfg, f"{path}.terms[{i}].fock")
        label = _label_from_data(rec.get("w"), handle, f"{path}.terms[{i}].w")
        accumulate(terms, (word, label), coeff)
    return ModuleElement(terms)


# -- straightened-algebra elements -----------------------------------------------------


def a_element_to_data(a: AElement) -> dict:
    return {
        "terms": [
            {
                "coeff": format_fraction(c),
                "charge": list(charge),
                "d_exponents": list(dexp),
            }
            for (charge, dexp), c in sorted(a.terms.items())
        ]
    }


def a_element_from_data(doc, cfg: LatticeConfig, path: str = "element") -> AElement:
    doc = _expect_dict(doc, path)
    terms: dict = {}
    for i, rec in enumerate(_expect_list(doc.get("terms"), f"{path}.terms")):
        rec = _expect_dict(rec, f"{path}.terms[{i}]")
        coeff = parse_fraction(rec.get("coeff", 1), f"{path}.terms[{i}].coeff")
        charge = _expect_list(rec.get("charge"), f"{path}.terms[{i}].charge", cfg.nu)
        dexp = _expect_list(rec.get("d_exponents"), f"{path}.terms[{i}].d_exponents", cfg.nu)
        dexp = [_int(e, f"{path}.terms[{i}].d_exponents") for e in dexp]
        if any(e < 0 for e in dexp):
            raise SchemaError(f"{path}.terms[{i}].d_exponents", "exponents must be nonnegative")
        key = (tuple(_int(m, "charge") for m in charge), tuple(dexp))
        accumulate(terms, key, coeff)
    return AElement(cfg.nu, terms)


def b_element_to_data(x: BElement) -> dict:
    words = []
    for word, coeff in sorted(x.terms.items(), key=lambda kv: repr(kv[0])):
        factors = []
        for g in word:
            if g[0] == "e":
                factors.append({"e": list(g[1])})
            else:
                factors.append({"d": g[1]})
        words.append({"coeff": format_fraction(coeff), "factors": factors})
    return {"words": words}


def b_element_from_data(doc, cfg: LatticeConfig, path: str = "element") -> BElement:
    doc = _expect_dict(doc, path)
    words: dict = {}
    for i, rec in enumerate(_expect_list(doc.get("words"), f"{path}.words")):
        rec = _expect_dict(rec, f"{path}.words[{i}]")
        coeff = parse_fraction(rec.get("coeff", 1), f"{path}.words[{i}].coeff")
        word = []
        for j, fac in enumerate(_expect_list(rec.get("factors", []), f"{path}.words[{i}].factors")):
            fac = _expect_dict(fac, f"{path}.words[{i}].factors[{j}]")
            if "e" in fac:
                charge = _expect_list(fac["e"], f"{path}.words[{i}].factors[{j}].e", cfg.nu)
                word.append(gen_e([_int(m, "charge entry") for m in charge]))
            elif "d" in fac:
                idx = _int(fac["d"], f"{path}.words[{i}].factors[{j}].d")
                if not 1 <= idx <= cfg.nu:
                    raise SchemaError(
                        f"{path}.words[{i}].factors[{j}].d",
                        f"index {idx} out of range 1..{cfg.nu}",
                    )
                word.append(gen_d(idx))
            else:
                raise SchemaError(
                    f"{path}.words[{i}].factors[{j}]", "factor needs an 'e' or 'd' key"
                )
        key = tuple(word)
        accumulate(words, key, coeff)
    return BElement(words)


# -- module specs ---------------------------------------------------------------------


def omega_spec_to_data(spec: OmegaSpec) -> dict:
    return {
        "mu": spec.mu,
        "f": [laurent_to_data(fj) for fj in spec.f],
        "a": [format_fraction(x) for x in spec.a],
    }


def omega_spec_from_data(doc, cfg: LatticeConfig, path: str = "spec") -> OmegaSpec:
    doc = _expect_dict(doc, path)
    mu = _int(doc.get("mu"), f"{path}.mu")
    if not 1 <= mu <= cfg.nu + 1:
        raise SchemaError(f"{path}.mu", f"mu {mu} out of range 1..{cfg.nu + 1}")
    ring = LaurentRing(cfg.nu, mu - 1)
    f_docs = _expect_list(doc.get("f", []), f"{path}.f", mu - 1)
    fs = [laurent_from_data(fd, ring, f"{path}.f[{i}]") for i, fd in enumerate(f_docs)]
    a_docs = _expect_list(doc.get("a", []), f"{path}.a", cfg.nu - mu + 1)
    a = [parse_fraction(x, f"{path}.a[{i}]") for i, x in enumerate(a_docs)]
    try:
        return OmegaSpec(cfg.nu, mu, tuple(fs), tuple(a))
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


def w_handle_from_data(doc, cfg: LatticeConfig, path: str = "W"):
    doc = _expect_dict(doc, path)
    kind = doc.get("kind")
    if kind == "weight":
        coords = _expect_list(doc.get("lambda0", [0] * cfg.nu), f"{path}.lambda0", cfg.nu)
        return WeightModule(cfg, [parse_fraction(x, f"{path}.lambda0") for x in coords])
    if kind == "omega":
        spec = omega_spec_from_data(doc, cfg, path)
        try:
            return OmegaModule(cfg, spec)
        except ValueError as exc:
            raise SchemaError(path, str(exc)) from None
    raise SchemaError(f"{path}.kind", f"unknown coefficient module kind {kind!r}")


# -- dispatcher --------------------------------------------------------------------------


def parse_element(doc, kind: str, cfg: LatticeConfig, handle=None):
    """Parse one of the documented element kinds, or raise a SchemaError."""
    if kind == "velement":
        return velement_from_data(doc, cfg)
    if kind == "module":
        if not handle:
            raise SchemaError("element", "module elements need a coefficient module")
        return module_element_from_data(doc, cfg, handle)
    if kind == "omega-spec":
        return omega_spec_from_data(doc, cfg)
    if kind == "a-element":
        return a_element_from_data(doc, cfg)
    if kind == "b-element":
        return b_element_from_data(doc, cfg)
    raise SchemaError("kind", f"unknown element kind {kind!r}")
