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

Values are integer-first: a value is an ``int`` when it is integral and a
``Fraction`` with denominator > 1 otherwise, never a float.  ``rational``
is the one normalizer, applied wherever a combination is built.  Almost
every coefficient the package meets is an integer, and ``int`` arithmetic
runs at machine speed where ``Fraction`` arithmetic is pure Python.  Since
``Fraction(3) == 3`` and the two hash alike, equality, hashing and the
printed "p/q" text do not depend on which type holds a value.  The price
is that ``/`` on two ``int``s is a float: every division of coefficients
is written ``Fraction(a, b)``.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Mapping


def rational(value):
    """An exact value in canonical form: an ``int`` when it is integral, else
    a ``Fraction`` with denominator > 1.  A float, or anything else that is
    not a rational number, raises ``TypeError``."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        if not isinstance(value, Rational):
            raise TypeError(f"coefficients are exact rationals, got {type(value).__name__} {value!r}")
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def integer(value) -> int:
    """An exact integer entry of a key (a charge, direction, mode or exponent):
    an ``int`` passes through untouched and a whole ``Fraction`` becomes its
    numerator; a float or a proper fraction raises ``TypeError``."""
    q = value if type(value) is int else rational(value)
    if type(q) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return q


def accumulate(data: dict, key, value) -> None:
    """Add value to data[key] in place, dropping the key when the sum is zero.

    A new key stores value as it is; only an update adds.
    """
    old = data.get(key)
    if old is None:
        if value:
            data[key] = value
        return
    new = old + value
    if new:
        data[key] = new
    else:
        del data[key]


class Combination:
    """Finitely supported rational combination over hashable term keys."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping):
        self.terms = {t: q for t, c in terms.items() if (q := rational(c))}
        self._hash = None

    def shape(self):
        """What besides the terms two combinations must share; None by default."""
        return None

    def sorted_terms(self) -> list:
        """The terms in printing order: by the repr of each key, unless a
        subclass prints its keys in their own order."""
        return sorted(self.terms.items(), key=lambda kv: repr(kv[0]))

    def _make(self, terms: Mapping):
        """A combination of this class and shape with terms the package built.

        The keys are trusted, so the subclass's key validation is skipped;
        zeros are still dropped and every value is normalized by
        ``rational``.  Values the package computes are sums and products of
        normalized values, which stay ``int`` exactly while no proper
        fraction enters, so the common ``int`` case is passed through
        untouched.  Subclasses with a shape copy it onto the result.
        """
        new = object.__new__(type(self))
        new.terms = {t: q for t, c in terms.items()
                     if (q := c if type(c) is int else rational(c))}
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
        q = rational(scalar)
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
