"""Sparse multivariate Laurent polynomials with exact rational coefficients.

Variables are numbered 1..nvars.  The first ``nlaurent`` of them are Laurent
variables (negative exponents allowed); the rest are ordinary polynomial
variables whose exponents must stay nonnegative.  Exponent vectors are the
dictionary keys and zero coefficients are never stored.  Terms print and
serialize in the combination core's order, lexicographic on the exponent
vectors, each monomial as t1^e1*t2^e2..., so output is reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Mapping

from .combination import Combination, Value, accumulate, integer


class CutoffError(ValueError):
    """A polynomial-only variable would receive a negative exponent."""


class LaurentRing(Value):
    """Shape of a Laurent polynomial ring: variable count and Laurent cutoff.
    An immutable value, equal and hashed by (nvars, nlaurent)."""

    __slots__ = _fields = ("nvars", "nlaurent")

    def __init__(self, nvars: int, nlaurent: int):
        self._set(nvars=integer(nvars), nlaurent=integer(nlaurent))
        if self.nvars < 0:
            raise ValueError("nvars must be nonnegative")
        if not 0 <= self.nlaurent <= self.nvars:
            raise ValueError("nlaurent must lie in 0..nvars")

    def check_exponents(self, exps: Iterable[int]) -> tuple[int, ...]:
        out = tuple(integer(e) for e in exps)
        if len(out) != self.nvars:
            raise ValueError(f"exponent vector must have {self.nvars} entries")
        for j in range(self.nlaurent, self.nvars):
            if out[j] < 0:
                raise CutoffError(
                    f"variable t{j + 1} is polynomial-only but has exponent {out[j]}"
                )
        return out

    def zero(self) -> "LaurentPoly":
        return LaurentPoly(self, {})

    def one(self) -> "LaurentPoly":
        return self.constant(1)

    def constant(self, value) -> "LaurentPoly":
        return LaurentPoly(self, {(0,) * self.nvars: value})

    def index(self, j: int) -> int:
        """The position of the 1-based variable t_j in an exponent vector;
        j must be an integer (``combination.integer``)."""
        j = integer(j)
        if not 1 <= j <= self.nvars:
            raise ValueError(f"variable index {j} out of range 1..{self.nvars}")
        return j - 1

    def variable(self, j: int) -> "LaurentPoly":
        """The variable t_j, 1-based."""
        jj = self.index(j)
        return self.monomial([int(i == jj) for i in range(self.nvars)])

    def monomial(self, exps: Iterable[int], coeff=1) -> "LaurentPoly":
        """coeff times the monomial of exps; the exponents are checked even
        when coeff is zero."""
        return LaurentPoly(self, {tuple(exps): coeff})


class LaurentPoly(Combination):
    """Immutable sparse Laurent polynomial over the rationals; its shape is its
    ring, against which the constructor checks each key."""

    __slots__ = ()

    def __init__(self, ring: LaurentRing, terms: Mapping):
        super().__init__(terms, ring)

    ring = property(lambda self: self.shape)

    def _key(self, exps) -> tuple:
        return self.shape.check_exponents(exps)

    # -- container-ish access -------------------------------------------------

    def is_constant(self) -> bool:
        zero = (0,) * self.ring.nvars
        return all(e == zero for e in self.terms)

    def constant_value(self) -> int | Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms.get((0,) * self.ring.nvars, 0)

    def max_variable(self) -> int:
        """Largest 1-based variable index with a nonzero exponent; 0 if none."""
        top = 0
        for exps in self.terms:
            for j in range(self.ring.nvars - 1, top - 1, -1):
                if exps[j]:
                    top = max(top, j + 1)
                    break
        return top

    # -- ring operations -------------------------------------------------------
    # p + q, q + p and p - q accept a rational scalar q as a constant; the
    # combination core checks that both sides live in the same ring.

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        return self.ring.constant(other)

    def __add__(self, other) -> "LaurentPoly":
        return super().__add__(self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return super().__mul__(other)
        self._check(other)
        data: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                accumulate(data, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return self._make(data)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of general polynomials are undefined")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- the two structural operators ------------------------------------------

    def shift(self, j: int, m: int) -> "LaurentPoly":
        """Substitute t_j -> t_j - m, expanded exactly.

        Only defined for polynomial variables (j > nlaurent): on a Laurent
        variable the substitution would not be a Laurent polynomial.
        Negative m performs the inverse substitution t_j -> t_j + |m|.
        """
        jj = self.ring.index(j)
        if j <= self.ring.nlaurent:
            raise CutoffError(f"shift is undefined for Laurent variable t{j}")
        if m == 0:
            return self
        data: dict = {}
        for exps, coeff in self.terms.items():
            e = exps[jj]
            for i in range(e + 1):
                new = exps[:jj] + (i,) + exps[jj + 1 :]
                accumulate(data, new, coeff * comb(e, i) * (-m) ** (e - i))
        return self._make(data)

    def degree_derivation(self, j: int) -> "LaurentPoly":
        """The operator t_j * d/dt_j: scales each term by its t_j exponent."""
        jj = self.ring.index(j)
        return self._make({e: c * e[jj] for e, c in self.terms.items() if e[jj]})

    def deg_plus(self, j: int) -> int:
        """Top t_j exponent, 0 on the zero polynomial by convention."""
        jj = self.ring.index(j)
        return max((e[jj] for e in self.terms), default=0)

    def deg_minus(self, j: int) -> int:
        """Bottom t_j exponent, 0 on the zero polynomial by convention."""
        jj = self.ring.index(j)
        return min((e[jj] for e in self.terms), default=0)

    def _name(self, exps) -> str:
        return "*".join(f"t{j + 1}" if e == 1 else f"t{j + 1}^{e}"
                        for j, e in enumerate(exps) if e)
