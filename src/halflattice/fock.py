"""Fock monomials and the states they span.

A Fock monomial is a finite multiset of creation factors applied to a
degree-zero slot.  A factor is a lattice direction and a positive integer
mode, where the direction indexes the lattice basis (0..nu-1 for
c_1..c_nu, nu..2nu-1 for d_1..d_nu); its weight is the mode.  A word stores
each factor as one ``int``, its code -mode * 2**16 + direction, so a word
is a tuple of ints and the code's natural order is the canonical order of
factors: descending mode, then ascending direction.  A canonical word is
its codes sorted, merging two canonical words is one plain sort, and words
hash as tuples of ints.  ``encode`` and ``decode`` are the one way between
a factor's (direction, mode) and its code; ``encode`` rejects a direction
at or past ``DIRECTION_LIMIT`` = 2**16.

The public constructors take (direction, mode) pairs: the ``_key`` of a
``VElement`` or ``ModuleElement`` puts every word through ``fock_word``,
which validates and encodes it against the rank, and the combination core
merges the keys that then coincide.  A ``ModuleElement``'s shape is its
coefficient module, which checks each label and gives the rank, so states
of two modules never add.  Words the package builds itself are coded and
canonical already, and go through the core's trusted ``_make``.  Both
classes order their terms by ``pair_key``, each word decoded to its
(direction, mode) pairs, so no printed or serialized order depends on the
codes.  Both name a factor c_i(-mode) or d_i(-mode) from the rank, and a
module state names its label w[(...)].  ``act_on_labels`` is the one place
a coefficient module acts, on the labels under each word, in place.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .combination import Combination, accumulate, integer

FockWord = tuple  # tuple[int, ...]: factor codes in ascending order

_SHIFT = 16  # bits of a code below its mode: the direction's
DIRECTION_LIMIT = 1 << _SHIFT
_DIRECTION_MASK = DIRECTION_LIMIT - 1


def encode(dir_: int, mode: int) -> int:
    """The code of the factor (direction, mode) of integers.  A direction
    outside 0..DIRECTION_LIMIT-1 or a mode below 1 raises ``ValueError``,
    so no word, whoever builds it, holds a factor its code misreads."""
    if not 0 <= dir_ < DIRECTION_LIMIT:
        raise ValueError(f"direction index {dir_} must lie in 0..{DIRECTION_LIMIT - 1}")
    if mode < 1:
        raise ValueError(f"creation mode {mode} must be a positive integer")
    return dir_ - (mode << _SHIFT)


def decode(code: int) -> tuple:
    """The (direction, mode) of a factor code."""
    return code & _DIRECTION_MASK, -(code >> _SHIFT)


def fock_word(factors: Iterable, nu: int) -> FockWord:
    """Canonical Fock monomial of rank nu from (direction, mode) pairs of
    integers; a direction at or past 2 nu raises ``ValueError``."""
    out = []
    for factor in factors:
        if isinstance(factor, int):
            raise TypeError(f"a Fock factor is a (direction, mode) pair, got the int {factor}")
        dir_, mode = map(integer, factor)
        if dir_ >= 2 * nu:
            raise ValueError(f"direction index {dir_} out of range for nu={nu}")
        out.append(encode(dir_, mode))
    out.sort()
    return tuple(out)


def merge_words(word: FockWord, other: FockWord) -> FockWord:
    """Canonical product of two canonical Fock monomials."""
    return tuple(sorted(word + other))


def fock_weight(word: FockWord) -> int:
    """The sum of the modes, the high part of each code as ``decode`` reads it."""
    return -sum(code >> _SHIFT for code in word)


def pair_key(key: tuple) -> tuple:
    """A (word, label) term key with its word decoded to (direction, mode)
    pairs: the key as the constructors take it, and the ``_order`` of the
    states' terms."""
    word, label = key
    return tuple(map(decode, word)), label


class VElement(Combination):
    """Element of the half-lattice algebra: Fock part tensor a charge, of rank nu."""

    __slots__ = ()

    def __init__(self, nu: int, terms: Mapping):
        super().__init__(terms, integer(nu))

    nu = property(lambda self: self.shape)

    def _key(self, key) -> tuple:
        word, charge = key
        charge = tuple(integer(m) for m in charge)
        if len(charge) != self.shape:
            raise ValueError(f"charge {charge} must have {self.shape} entries")
        return fock_word(word, self.shape), charge

    _order = staticmethod(pair_key)

    def _name(self, key) -> str:
        word, charge = key
        return _fock_str(word, self.shape) + _charge_str(charge)


class ModuleElement(Combination):
    """Fock part tensor a basis label of its coefficient module, its shape: a
    ``lattice.WeightModule`` or an ``assoc.OmegaSpec``, whose ``validate_label``
    checks each label and whose lattice ``cfg`` gives the rank of each word."""

    __slots__ = ()

    def __init__(self, module, terms: Mapping):
        super().__init__(terms, module)

    def _key(self, key) -> tuple:
        word, label = key
        return fock_word(word, self.shape.cfg.nu), self.shape.validate_label(label)

    _order = staticmethod(pair_key)

    def _name(self, key) -> str:
        word, label = key
        return _fock_str(word, self.shape.cfg.nu) + f"w[({', '.join(map(str, label))})]"


# -- coefficient-module actions -------------------------------------------------


def act_on_labels(out: dict, x, states: dict, action, arg) -> dict:
    """Add x times a label action, a module's e_action(charge, label) or
    d_action(j, label) -> [(q, label')], under each Fock word of the
    (word, label) states into out, in place, and return out: the one place
    a module acts, for the vertex engine and ``assoc.act_on_module``.  x
    scales each q, except at x = 1, where the product would only copy q."""
    scaled = x != 1
    for (word, label), coeff in states.items():
        for q, lab in action(arg, label):
            accumulate(out, (word, lab), coeff * (q * x if scaled else q))
    return out


# -- constructors ---------------------------------------------------------------


def vacuum(nu: int) -> VElement:
    """The degree-zero generator: empty Fock part at charge zero."""
    return VElement(nu, {((), (0,) * nu): 1})


def charge_element(nu: int, charge: Iterable[int], coeff=1) -> VElement:
    return VElement(nu, {((), tuple(charge)): coeff})


def fock_element(nu: int, factors: Iterable, charge: Iterable[int] = None, coeff=1) -> VElement:
    """The monomial of the (direction, mode) factors at the charge (zero by
    default); the constructor validates and sorts the factors once."""
    if charge is None:
        charge = (0,) * nu
    return VElement(nu, {(tuple(map(tuple, factors)), tuple(charge)): coeff})


# -- grading ----------------------------------------------------------------------


def homogeneous_components(v: VElement) -> dict[int, VElement]:
    buckets: dict[int, dict] = {}
    for (word, charge), coeff in v.terms.items():
        buckets.setdefault(fock_weight(word), {})[(word, charge)] = coeff
    return {n: v._make(data) for n, data in sorted(buckets.items())}


# -- printing ----------------------------------------------------------------------


def _charge_str(charge: tuple) -> str:
    """e^{...} of a nonzero charge; "" at charge zero."""
    parts = []
    for i, m in enumerate(charge):
        if m:
            coeff = {1: "", -1: "-"}.get(m, m)  # a unit entry prints as its sign
            parts.append(f"{coeff}c{i + 1}")
    return "e^{" + "+".join(parts).replace("+-", "-") + "}" if parts else ""


def _fock_str(word: FockWord, nu: int) -> str:
    """The factors as c_i(-mode) or d_i(-mode) at rank nu."""
    return "".join(f"{'c' if dir_ < nu else 'd'}{dir_ % nu + 1}(-{mode})"
                   for dir_, mode in map(decode, word))
