"""Rank-2*nu hyperbolic lattice with pairing (c_i, d_j) = k*delta_ij.

The ambient rational space has basis c_1..c_nu, d_1..d_nu.  Both families
are isotropic: (c_i, c_j) = (d_i, d_j) = 0, and the only nonzero pairings
are (c_i, d_j) = k*delta_ij for a fixed nonzero integer k.  A vector is
one of the combination core's combinations: ``LatticeVector`` maps direction
indices (0..nu-1 for c_1..c_nu, nu..2nu-1 for d_1..d_nu) to its nonzero
rational coordinates, and the core gives it its arithmetic, its rank check,
equality, hashing and printing.  The charge lattice is the integer span of
the c_i and the dual directions are spanned by the d_i.  ``WeightModule``
is the span of the points lam0 + alpha over the charge lattice: the
coefficient module of the vertex engine's adjoint and weight contexts, given
by its label actions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .combination import Combination, Value, integer, rational


def _coords(values: Iterable, nu: int, what: str) -> tuple:
    out = tuple(values)
    if len(out) != nu:
        raise ValueError(f"{what} must have {nu} coordinates, got {len(out)}")
    return out


def dir_name(idx: int, nu: int) -> str:
    """The name of direction idx at rank nu: c1..c{nu} for 0..nu-1, then
    d1..d{nu} for nu..2nu-1; the one spelling of a vector's terms, of a Fock
    factor and of the Heisenberg check ids."""
    return f"{'c' if idx < nu else 'd'}{idx % nu + 1}"


class LatticeVector(Combination):
    """A vector of the rank-nu lattice, its shape: the combination of the
    directions 0..2nu-1 (c_1..c_nu, then d_1..d_nu) with rational
    coordinates.

    ``support`` holds its (direction, coordinate) pairs in direction order,
    which the pairing and the Heisenberg modes read; it is taken once, since
    vectors key the operator caches and act many times.
    """

    def __init__(self, nu: int, terms: Mapping):
        super().__init__(terms, integer(nu))

    nu = property(lambda self: self.shape)

    def _key(self, idx) -> int:
        idx = integer(idx)
        if not 0 <= idx < 2 * self.shape:
            raise ValueError(f"direction index {idx} out of range 0..{2 * self.shape - 1}")
        return idx

    def __hash__(self) -> int:
        # the core's cached hash, read by this class's own code: a mode-cache
        # key hashes a vector beside a state, and a __hash__ that both classes
        # share misses CPython's per-site attribute cache on every lookup
        return self._hash if self._hash is not None else Combination.__hash__(self)

    def _name(self, idx) -> str:
        return dir_name(idx, self.shape)

    @property
    def c(self) -> tuple:
        return tuple(self.terms.get(i, 0) for i in range(self.shape))

    @property
    def d(self) -> tuple:
        return tuple(self.terms.get(i, 0) for i in range(self.shape, 2 * self.shape))

    @cached_property
    def support(self) -> tuple:
        return tuple(sorted(self.terms.items()))


class LatticeConfig(Value):
    """Rank parameter nu and pairing constant k of the hyperbolic lattice:
    an immutable value, equal and hashed by (nu, k)."""

    __slots__ = _fields = ("nu", "k")

    def __init__(self, nu: int, k: int):
        self._set(nu=integer(nu), k=integer(k))
        if self.nu < 1:
            raise ValueError("nu must be a positive integer")
        if self.k == 0:
            raise ValueError("k must be a nonzero integer")

    # -- vector constructors -------------------------------------------------

    def vector(self, c: Sequence | None = None, d: Sequence | None = None) -> LatticeVector:
        """The vector of nu c- and nu d-coordinates; an omitted family is zero."""
        terms = {}
        for start, values, what in ((0, c, "c"), (self.nu, d, "d")):
            if values is not None:
                terms.update(enumerate(_coords(values, self.nu, what), start))
        return LatticeVector(self.nu, terms)

    def zero(self) -> LatticeVector:
        return LatticeVector(self.nu, {})

    def c_basis(self, i: int) -> LatticeVector:
        """Basis vector c_i, 1-based."""
        return self.dir_vector(self._check_index(i) - 1)

    def d_basis(self, i: int) -> LatticeVector:
        """Basis vector d_i, 1-based."""
        return self.dir_vector(self.nu + self._check_index(i) - 1)

    def from_charge(self, charge: Sequence[int]) -> LatticeVector:
        charge = tuple(integer(m) for m in charge)
        if len(charge) != self.nu:
            raise ValueError(f"charge must have {self.nu} entries")
        return self.vector(c=charge)

    # -- direction indexing, shared with the Fock layer ----------------------
    # Directions 0..nu-1 are c_1..c_nu and nu..2nu-1 are d_1..d_nu.

    @property
    def ndirs(self) -> int:
        return 2 * self.nu

    def dir_vector(self, idx: int) -> LatticeVector:
        """Basis vector of direction idx, 0-based; ``LatticeVector._key``
        checks the range."""
        return LatticeVector(self.nu, {idx: 1})

    # -- the bilinear form ----------------------------------------------------

    def pairing(self, u: LatticeVector, v: LatticeVector) -> int | Fraction:
        """Bilinear extension of (c_i, d_j) = k*delta_ij, normalized like a
        combination value."""
        if u.shape != self.nu or v.shape != self.nu:
            raise ValueError(
                f"vector rank mismatch: pairing on rank {self.nu} lattice "
                f"got ranks {u.nu} and {v.nu}"
            )
        # a direction pairs only with its partner, c_i with d_i
        nu, coords, total = self.nu, v.terms, 0
        for i, a in u.support:
            if b := coords.get(i + nu if i < nu else i - nu):
                total += a * b
        return rational(self.k * total)

    def _check_index(self, i: int) -> int:
        """The 1-based basis index i as an ``int``, checked by ``integer``."""
        i = integer(i)
        if not 1 <= i <= self.nu:
            raise ValueError(f"basis index {i} out of range 1..{self.nu}")
        return i


class WeightModule(Value):
    """The span of lattice points lam0 + alpha, alpha in the charge lattice.

    Labels are the c-coordinates of the points (tuples of rationals, each
    an ``int`` when integral, as combination values are).  The
    translations act by addition and each d_i acts diagonally by its pairing
    with the point, for any value of the pairing constant.  A module is an
    immutable value, equal and hashed by (cfg, lam0): two modules on equal
    lattices with equal base points are equal, so their states add.
    """

    __slots__ = _fields = ("cfg", "lam0")

    def __init__(self, cfg: LatticeConfig, lam0_coords: Sequence = None):
        coords = list(lam0_coords) if lam0_coords is not None else [0] * cfg.nu
        if len(coords) != cfg.nu:
            raise ValueError(f"base point needs {cfg.nu} coordinates")
        self._set(cfg=cfg, lam0=tuple(rational(x) for x in coords))

    def base_label(self) -> tuple:
        return self.lam0

    def validate_label(self, label) -> tuple:
        label = tuple(rational(x) for x in label)
        if len(label) != self.cfg.nu:
            raise ValueError(f"label needs {self.cfg.nu} coordinates")
        if any((a - b).denominator != 1 for a, b in zip(label, self.lam0)):
            raise ValueError(f"label ({', '.join(map(str, label))}) is not in the charge "
                             f"coset of ({', '.join(map(str, self.lam0))})")
        return label

    def e_action(self, charge: tuple, label: tuple):
        return [(1, tuple(a + m for a, m in zip(label, charge)))]

    def d_action(self, j: int, label: tuple):
        scalar = rational(self.cfg.k * label[j - 1])
        return [(scalar, label)] if scalar else []

    def probe_labels(self) -> list[tuple]:
        box = range(-1, 2)
        out = []
        for alpha in itertools.product(box, repeat=self.cfg.nu):
            out.append(tuple(a + m for a, m in zip(self.lam0, alpha)))
        return out
