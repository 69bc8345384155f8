"""Fock monomials and the states they span.

A Fock monomial is a finite multiset of creation factors (direction, mode)
applied to a degree-zero slot, where the direction indexes the lattice basis
(0..nu-1 for c_1..c_nu, nu..2nu-1 for d_1..d_nu) and the mode is a positive
integer.  Its canonical form sorts factors by descending mode, then by
direction, and its weight is the sum of the modes.

A ``VElement`` is a rational linear combination of (Fock monomial, charge)
pairs with charges in the integer c-span; a ``ModuleElement`` carries an
opaque coefficient-module label in place of the charge.  Both constructors
put every word through ``fock_word`` and merge the keys that then coincide.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .combination import Combination, accumulate, integer, rational

FockWord = tuple  # tuple[tuple[int, int], ...]


def fock_word(factors: Iterable) -> FockWord:
    """Canonical Fock monomial from (direction, mode) pairs of integers."""
    out = []
    for dir_, mode in factors:
        dir_, mode = integer(dir_), integer(mode)
        if dir_ < 0:
            raise ValueError(f"direction index {dir_} must be nonnegative")
        if mode < 1:
            raise ValueError(f"creation mode {mode} must be a positive integer")
        out.append((dir_, mode))
    return tuple(sorted(out, key=_factor_order))


def merge_words(word: FockWord, other: FockWord) -> FockWord:
    """Canonical product of two canonical Fock monomials."""
    return tuple(sorted(word + other, key=_factor_order))


def _factor_order(factor: tuple) -> tuple:
    return (-factor[1], factor[0])


def fock_weight(word: FockWord) -> int:
    return sum(mode for _, mode in word)


class VElement(Combination):
    """Element of the half-lattice algebra: Fock part tensor a charge."""

    __slots__ = ("nu",)

    def __init__(self, nu: int, terms: Mapping):
        self.nu = integer(nu)
        checked: dict = {}
        for (word, charge), coeff in terms.items():
            word = fock_word(word)
            charge = tuple(integer(m) for m in charge)
            if len(charge) != self.nu:
                raise ValueError(f"charge {charge} must have {self.nu} entries")
            for dir_, _ in word:
                if dir_ >= 2 * self.nu:
                    raise ValueError(f"direction index {dir_} out of range for nu={self.nu}")
            accumulate(checked, (word, charge), rational(coeff))
        super().__init__(checked)

    def shape(self) -> int:
        return self.nu

    def _make(self, terms: Mapping) -> "VElement":
        new = super()._make(terms)
        new.nu = self.nu
        return new

    def __str__(self) -> str:
        return _format_terms(self.sorted_terms(), self.nu, _charge_str)

    __repr__ = __str__


class ModuleElement(Combination):
    """Fock part tensor an opaque coefficient-module basis label."""

    __slots__ = ()

    def __init__(self, terms: Mapping):
        checked: dict = {}
        for (word, label), coeff in terms.items():
            accumulate(checked, (fock_word(word), label), rational(coeff))
        super().__init__(checked)

    def __str__(self) -> str:
        return _format_terms(self.sorted_terms(), None,
                             lambda lab: f"w[({', '.join(map(str, lab))})]")

    __repr__ = __str__


# -- constructors ---------------------------------------------------------------


def vacuum(nu: int) -> VElement:
    """The degree-zero generator: empty Fock part at charge zero."""
    return VElement(nu, {((), (0,) * nu): 1})


def charge_element(nu: int, charge: Iterable[int], coeff=1) -> VElement:
    return VElement(nu, {((), tuple(charge)): coeff})


def fock_element(nu: int, factors: Iterable, charge: Iterable[int] = None, coeff=1) -> VElement:
    if charge is None:
        charge = (0,) * nu
    return VElement(nu, {(fock_word(factors), tuple(charge)): coeff})


# -- grading ----------------------------------------------------------------------


def homogeneous_components(v: VElement) -> dict[int, VElement]:
    buckets: dict[int, dict] = {}
    for (word, charge), coeff in v.terms.items():
        buckets.setdefault(fock_weight(word), {})[(word, charge)] = coeff
    return {n: v._make(data) for n, data in sorted(buckets.items())}


# -- printing ----------------------------------------------------------------------


def _charge_str(charge: tuple) -> str:
    if all(m == 0 for m in charge):
        return "1"
    parts = []
    for i, m in enumerate(charge):
        if m == 1:
            parts.append(f"c{i + 1}")
        elif m:
            parts.append(f"{m}c{i + 1}")
    return "e^{" + "+".join(parts).replace("+-", "-") + "}"


def _fock_str(word: FockWord, nu) -> str:
    names = []
    for dir_, mode in word:
        if nu is None:
            base = f"h{dir_}"
        else:
            base = f"c{dir_ + 1}" if dir_ < nu else f"d{dir_ - nu + 1}"
        names.append(f"{base}(-{mode})")
    return "".join(names)


def _format_terms(terms: list, nu, label_fmt) -> str:
    if not terms:
        return "0"
    chunks = []
    for (word, label), coeff in terms:
        body = _fock_str(word, nu)
        lab = label_fmt(label)
        piece = body + ("" if lab == "1" and body else lab)
        if not piece:
            piece = "1"
        if coeff == 1:
            chunks.append(piece)
        elif coeff == -1:
            chunks.append("-" + piece)
        else:
            chunks.append(f"{coeff}*{piece}")
    return " + ".join(chunks).replace("+ -", "- ")
