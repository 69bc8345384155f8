"""The package's one sparse rational combination.

Every object the package computes with is a finitely supported map from
hashable term keys to rationals: Fock and module states, straightened-algebra
elements, lattice vectors (over their 2*nu directions) and Laurent
polynomials.  ``Combination`` holds that map in ``terms``, which never
stores a zero, and its ``shape``, what two combinations must share before
they are added or compared (a rank, a ring, a coefficient module, or None),
and gives it the vector-space operations.  ``_check`` is the one test of class and shape, and an operator
context's target check too.  The public
constructor puts every key through the subclass's ``_key`` and adds up the
keys that then coincide; a subclass states only that check, its own
products and ``_name``, the text of one monomial ("" for the unit).  The
core owns the order of terms, the natural order of ``_order`` of each key
(the key itself unless a subclass decodes it), and the one printer, which
puts each coefficient before its ``_name``.  ``_make`` builds a combination
of the same class and shape from terms the package computed itself and
skips ``_key``.

Values are integer-first: a value is an ``int`` when it is integral and a
``Fraction`` with denominator > 1 otherwise, never a float.  ``rational``
is the one normalizer, applied wherever a combination is built.  Almost
every coefficient the package meets is an integer, and ``int`` arithmetic
runs at machine speed where ``Fraction`` arithmetic is pure Python.  Since
``Fraction(3) == 3`` and the two hash alike, equality, hashing and the
printed "p/q" text do not depend on which type holds a value.  The price
is that ``/`` on two ``int``s is a float: every division of coefficients
is written ``Fraction(a, b)``.

Where many values are summed, the package adds ``int``s only, in one
integer form that this module alone owns: (nums, d), a dict of integer
numerators over one denominator d, the same shape as every running sum
(``numerators`` builds it from a dict of rationals, d the lcm of their
denominators).  ``add_scaled`` adds c times a form into a sum, ``rescale``
raises a sum to lcm(den, d) when a value over another denominator
arrives, ``reduce`` divides out the common gcd, and ``divided`` is the one
divide-back, which builds a ``Fraction`` only for a value that is not
whole.  The vertex engine's fields, its creation closed forms, the
identity checkers and the Zhu residue sums all sum in this form.

The fixed values that shapes and cache keys are made of, the lattice
``LatticeConfig``, the ring ``LaurentRing`` and the modules ``OmegaSpec``
and ``WeightModule``, are ``Value``s: a subclass names its ``_fields``,
sets them once through ``_set`` and states only its checks, and ``Value``
owns the rest, refusing later assignment and deletion, equality and
hashing on the field tuple (a value equals only a value of its class) and
the repr ``Class(field=repr, ...)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from operator import attrgetter
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
    numerator; a float, a string or a proper fraction raises ``TypeError``."""
    if type(value) is int:
        return value
    if not isinstance(value, Rational) or value.denominator != 1:
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value.numerator)


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


def rescale(data: dict, den: int, d: int) -> int:
    """Bring the integer numerators of data, over den, to numerators over
    lcm(den, d) in place, and return lcm(den, d).  Nothing changes when d
    divides den; the keys keep their order."""
    if den % d:
        scale = d // gcd(den, d)
        for key in data:
            data[key] *= scale
        den *= scale
    return den


def reduce(nums: dict, den: int) -> int:
    """Divide the integer numerators nums over den in place by the gcd of
    den and all of them, and return den divided by it."""
    g = gcd(den, *nums.values()) if den > 1 else 1
    if g > 1:
        for key in nums:
            nums[key] //= g
    return den // g


def numerators(values: dict) -> tuple:
    """The integer form (nums, d) of a dict of rationals, in the keys'
    order: values itself over 1 when every value is an ``int``."""
    dens = [c.denominator for c in values.values() if type(c) is not int]
    if not dens:
        return values, 1
    d = lcm(*dens)
    return {t: c * d if type(c) is int else c.numerator * (d // c.denominator)
            for t, c in values.items()}, d


def add_scaled(out: dict, den: int, c, form: tuple) -> int:
    """Add c times the integer form (nums, d) into the integer numerators
    out over den, in place, and return the denominator of the sum: out is
    first raised to lcm(den, d times c's denominator)."""
    nums, d = form
    d *= c.denominator
    den = rescale(out, den, d)
    c = c.numerator * (den // d)
    for t, x in nums.items():
        accumulate(out, t, c * x)
    return den


def divided(nums: dict, den: int) -> dict:
    """The values of the integer numerators nums over den: a whole one as
    an ``int``, the rest as ``Fraction``s, in the keys' order; nums itself
    when den is 1."""
    if den == 1:
        return nums
    return {key: x // den if x % den == 0 else Fraction(x, den) for key, x in nums.items()}


class Combination:
    """Finitely supported rational combination over hashable term keys, of
    one ``shape``.  A subclass's public constructor passes its terms and
    shape to ``__init__``, which checks every key with ``_key`` and every
    value with ``rational`` and adds up the keys that then coincide."""

    __slots__ = ("terms", "shape", "_hash")

    def __init__(self, terms: Mapping, shape=None):
        self.shape = shape
        checked: dict = {}
        for t, c in terms.items():
            accumulate(checked, self._key(t), rational(c))
        self.terms = checked
        self._hash = None

    def _key(self, t):
        """The key in canonical form, or an error; any key passes by default."""
        return t

    @staticmethod
    def _order(key):
        """What a term sorts by: the key itself, unless a subclass decodes it."""
        return key

    def sorted_terms(self) -> list:
        """The terms in the natural order of ``_order`` of their keys: the
        one order of printing and of the JSON writers."""
        return sorted(self.terms.items(), key=lambda kv: self._order(kv[0]))

    def __str__(self) -> str:
        """The terms in ``sorted_terms`` order, each by the subclass's
        ``_name`` of its key: the name at coefficient 1, -name at -1, else
        c*name, and the coefficient alone for the unit monomial, whose name
        is ""; "0" when there are none."""
        chunks = []
        for key, c in self.sorted_terms():
            name = self._name(key)
            if not name:
                chunks.append(str(c))
            else:
                chunks.append(name if c == 1 else f"-{name}" if c == -1 else f"{c}*{name}")
        return " + ".join(chunks).replace("+ -", "- ") or "0"

    def __repr__(self) -> str:
        return str(self)

    def _make(self, terms: Mapping):
        """A combination of this class and shape with terms the package built.

        The keys are trusted, so ``_key`` is skipped; zeros are still
        dropped and every value is normalized by ``rational``.  Values the
        package computes are sums and products of normalized values, which
        stay ``int`` exactly while no proper fraction enters, so the common
        ``int`` case is passed through untouched.
        """
        new = object.__new__(type(self))
        new.terms = {t: q for t, c in terms.items()
                     if (q := c if type(c) is int else rational(c))}
        new.shape = self.shape
        new._hash = None
        return new

    def _check(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

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
        return self.shape == other.shape and self.terms == other.terms

    def __hash__(self) -> int:
        """Computed once: a combination must not be mutated after it is hashed."""
        if self._hash is None:
            self._hash = hash((type(self).__name__, self.shape, frozenset(self.terms.items())))
        return self._hash


class Value:
    """An immutable value whose ``__init__`` sets each attribute once, through
    ``_set``; every attribute is a slot, and the ``_fields`` among them are
    what it is equal, hashed and printed by."""

    __slots__ = ()
    _fields: tuple

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the field tuple in one C call: a generator of getattr reads costs
        # about five times as much, and every module state hashes its module
        cls._astuple = property(attrgetter(*cls._fields))

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple == other._astuple

    def __hash__(self) -> int:
        return hash(self._astuple)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
