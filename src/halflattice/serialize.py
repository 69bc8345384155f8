"""JSON schemas for elements, module vectors and module specs.

The configuration document is read by the CLI (``cli._suite_config``).
Rationals travel as the text "p/q", or "p" when the denominator is one.
A weight-module vector is a ``fock.ModuleElement`` at the empty Fock word.
Diagnostics name the offending field by path so CLI users can locate schema
violations without reading tracebacks.  A record with a key its schema does
not list is rejected, so a misspelled key cannot fall back to a default.
The module loads only the engine; each parser imports the straightened
algebra or the Laurent rings when it builds one of their objects.
"""

from __future__ import annotations

from fractions import Fraction

from .combination import accumulate
from .fock import ModuleElement, VElement, pair_key
from .lattice import LatticeConfig, WeightModule


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


def _expect_record(doc, path: str, keys: tuple) -> dict:
    """An object with no key outside keys; absent optional keys keep their defaults."""
    doc = _expect_dict(doc, path)
    for key in doc:
        if key not in keys:
            raise SchemaError(f"{path}.{key}", f"unknown key; expected one of {', '.join(keys)}")
    return doc


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    return value


# -- Laurent polynomials ----------------------------------------------------------


def laurent_to_data(f) -> list:
    return [
        {"coeff": format_fraction(c), "exponents": list(e)} for e, c in f.sorted_terms()
    ]


def laurent_from_data(doc, ring, path: str = "poly"):
    """A ``LaurentPoly`` of the ``LaurentRing`` ring from {coeff, exponents}
    records.  Each record's exponents are checked before its term is
    collected, so a zero coefficient does not hide a bad key."""
    from .laurent import LaurentPoly

    terms: dict = {}
    for i, rec in enumerate(_expect_list(doc, path)):
        rec = _expect_record(rec, f"{path}[{i}]", ("coeff", "exponents"))
        coeff = parse_fraction(rec.get("coeff", 1), f"{path}[{i}].coeff")
        exps = _expect_list(rec.get("exponents"), f"{path}[{i}].exponents", ring.nvars)
        try:
            exps = ring.check_exponents([_int(e, f"{path}[{i}].exponents") for e in exps])
        except ValueError as exc:
            raise SchemaError(f"{path}[{i}].exponents", str(exc)) from None
        accumulate(terms, exps, coeff)
    return LaurentPoly(ring, terms)


# -- algebra elements ----------------------------------------------------------------


def velement_to_data(v: VElement) -> dict:
    terms = []
    # in the order of the decoded keys, (direction, mode) pairs then charge
    for (pairs, charge), coeff in sorted((pair_key(key), c) for key, c in v.terms.items()):
        terms.append(
            {
                "coeff": format_fraction(coeff),
                "fock": [[d, m] for d, m in pairs],
                "charge": list(charge),
            }
        )
    return {"terms": terms}


def velement_from_data(doc, cfg: LatticeConfig, path: str = "element") -> VElement:
    doc = _expect_record(doc, path, ("terms",))
    terms: dict = {}
    for i, rec in enumerate(_expect_list(doc.get("terms"), f"{path}.terms")):
        rec = _expect_record(rec, f"{path}.terms[{i}]", ("coeff", "fock", "charge"))
        coeff = parse_fraction(rec.get("coeff", 1), f"{path}.terms[{i}].coeff")
        fock = []
        for j, pair in enumerate(_expect_list(rec.get("fock", []), f"{path}.terms[{i}].fock")):
            where = f"{path}.terms[{i}].fock[{j}]"
            pair = _expect_list(pair, where, 2)
            dir_, mode = _int(pair[0], where), _int(pair[1], where)
            if not 0 <= dir_ < cfg.ndirs:
                raise SchemaError(where, f"direction {dir_} out of range 0..{cfg.ndirs - 1}")
            if mode < 1:
                raise SchemaError(where, f"mode {mode} must be positive")
            fock.append((dir_, mode))
        charge = _expect_list(rec.get("charge"), f"{path}.terms[{i}].charge", cfg.nu)
        charge = tuple(_int(m, f"{path}.terms[{i}].charge") for m in charge)
        accumulate(terms, (tuple(fock), charge), coeff)
    return VElement(cfg.nu, terms)


def weight_vector_to_data(m: ModuleElement) -> list:
    """The {coeff, point} records of a weight-module state, by label; a
    state with a Fock factor, which they cannot hold, raises ``ValueError``."""
    if any(word for word, _ in m.terms):
        raise ValueError(f"a weight vector lies at the empty Fock word, got {m}")
    return [
        {"coeff": format_fraction(c), "point": [format_fraction(p) for p in pt]}
        for (_, pt), c in sorted(m.terms.items())
    ]


def weight_vector_from_data(doc, handle: WeightModule, path: str = "m") -> ModuleElement:
    """The state of the weight module at the empty Fock word from {coeff,
    point} records, each point checked by the module, path-named."""
    terms: dict = {}
    for i, rec in enumerate(_expect_list(doc, path)):
        rec = _expect_record(rec, f"{path}[{i}]", ("coeff", "point"))
        where = f"{path}[{i}].point"
        coords = _expect_list(rec.get("point"), where, handle.cfg.nu)
        try:
            label = handle.validate_label(tuple(parse_fraction(x, where) for x in coords))
        except ValueError as exc:
            raise SchemaError(where, str(exc)) from None
        accumulate(terms, ((), label), parse_fraction(rec.get("coeff", 1), f"{path}[{i}].coeff"))
    return ModuleElement(handle, terms)


# -- straightened-algebra elements -----------------------------------------------------


def b_element_to_data(x) -> dict:
    words = []
    for word, coeff in x.sorted_terms():
        factors = []
        for g in word:
            if g[0] == "e":
                factors.append({"e": list(g[1])})
            else:
                factors.append({"d": g[1]})
        words.append({"coeff": format_fraction(coeff), "factors": factors})
    return {"words": words}


def b_element_from_data(doc, cfg: LatticeConfig, path: str = "element"):
    """An ``assoc.BElement`` from a {words} record."""
    from .assoc import BElement, gen_d, gen_e

    doc = _expect_record(doc, path, ("words",))
    words: dict = {}
    for i, rec in enumerate(_expect_list(doc.get("words"), f"{path}.words")):
        rec = _expect_record(rec, f"{path}.words[{i}]", ("coeff", "factors"))
        coeff = parse_fraction(rec.get("coeff", 1), f"{path}.words[{i}].coeff")
        word = []
        for j, fac in enumerate(_expect_list(rec.get("factors", []), f"{path}.words[{i}].factors")):
            where = f"{path}.words[{i}].factors[{j}]"
            fac = _expect_dict(fac, where)
            if set(fac) == {"e"}:
                charge = _expect_list(fac["e"], f"{where}.e", cfg.nu)
                word.append(gen_e([_int(m, f"{where}.e") for m in charge]))
            elif set(fac) == {"d"}:
                idx = _int(fac["d"], f"{where}.d")
                if not 1 <= idx <= cfg.nu:
                    raise SchemaError(f"{where}.d", f"index {idx} out of range 1..{cfg.nu}")
                word.append(gen_d(idx))
            else:
                raise SchemaError(
                    where, f"factor needs exactly one key, 'e' or 'd', got {sorted(fac)}"
                )
        key = tuple(word)
        accumulate(words, key, coeff)
    return BElement(words)


# -- module specs ---------------------------------------------------------------------


def omega_spec_from_data(doc, cfg: LatticeConfig, path: str = "spec"):
    """An ``assoc.OmegaSpec`` of rank cfg.nu from a {mu, f, a} record."""
    from .assoc import OmegaSpec
    from .laurent import LaurentRing

    doc = _expect_record(doc, path, ("mu", "f", "a"))
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
    """A ``WeightModule`` on cfg, or an ``assoc.OmegaSpec``, which needs k = 1."""
    doc = _expect_dict(doc, path)
    kind = doc.get("kind")
    if kind == "weight":
        doc = _expect_record(doc, path, ("kind", "lambda0"))
        coords = _expect_list(doc.get("lambda0", [0] * cfg.nu), f"{path}.lambda0", cfg.nu)
        return WeightModule(cfg, [parse_fraction(x, f"{path}.lambda0") for x in coords])
    if kind == "omega":
        doc = _expect_record(doc, path, ("kind", "mu", "f", "a"))
        spec = omega_spec_from_data({k: v for k, v in doc.items() if k != "kind"}, cfg, path)
        if cfg.k != 1:
            raise SchemaError(path, "function modules are defined for k = 1 only")
        return spec
    raise SchemaError(f"{path}.kind", f"unknown coefficient module kind {kind!r}")
