"""The package's one sparse rational combination.

Every object the package computes with is a finitely supported map from
hashable term keys to rationals: Fock and module states, straightened-algebra
elements, weight-module vectors and Laurent polynomials.  ``Combination``
holds that map in ``terms``, which never stores a zero, and gives it the
vector-space operations.  Subclasses add only what differs: key validation,
the shape that must agree before two combinations are added or compared (a
rank or a ring), their own products, and their printing.  Key validation runs
only in the public constructors: ``_make`` builds a combination from terms
the package computed itself and skips it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping


def accumulate(data: dict, key, value) -> None:
    """Add value to data[key] in place, dropping the key when the sum is zero."""
    new = data.get(key, 0) + value
    if new:
        data[key] = new
    else:
        data.pop(key, None)


class Combination:
    """Finitely supported rational combination over hashable term keys."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping):
        self.terms = {t: Fraction(c) for t, c in terms.items() if c}
        self._hash = None

    def shape(self):
        """What besides the terms two combinations must share; None by default."""
        return None

    def _make(self, terms: Mapping):
        """A combination of this class and shape with terms the package built.

        The keys are trusted, so the subclass's key validation is skipped;
        zeros are still dropped and every value is held as a ``Fraction``.
        Subclasses with a shape copy it onto the result.
        """
        new = object.__new__(type(self))
        new.terms = {t: c if type(c) is Fraction else Fraction(c) for t, c in terms.items() if c}
        new._hash = None
        return new

    def _check(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.shape() != self.shape():
            raise ValueError(f"shape mismatch: {self.shape()} vs {other.shape()}")

    def __add__(self, other):
        self._check(other)
        data = dict(self.terms)
        for t, c in other.terms.items():
            accumulate(data, t, c)
        return self._make(data)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._make({t: -c for t, c in self.terms.items()})

    def __mul__(self, scalar):
        q = Fraction(scalar)
        return self._make({t: q * c for t, c in self.terms.items()})

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.shape() == other.shape() and self.terms == other.terms

    def __hash__(self) -> int:
        """Computed once: a combination must not be mutated after it is hashed."""
        if self._hash is None:
            self._hash = hash((type(self).__name__, self.shape(), frozenset(self.terms.items())))
        return self._hash
