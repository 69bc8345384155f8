"""Rank-2*nu hyperbolic lattice with pairing (c_i, d_j) = k*delta_ij.

The ambient rational space has basis c_1..c_nu, d_1..d_nu.  Both families
are isotropic: (c_i, c_j) = (d_i, d_j) = 0, and the only nonzero pairings
are (c_i, d_j) = k*delta_ij for a fixed nonzero integer k.  Vectors carry
exact rational coordinates, held like combination values (an ``int`` when
integral); the charge lattice is the integer span of the c_i and the dual
directions are spanned by the d_i.  ``WeightModule`` is the span of the
points lam0 + alpha over the charge lattice: the coefficient module of the
vertex engine's adjoint and weight contexts, given by its label actions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .combination import integer, rational


def _coords(values: Iterable, nu: int, what: str) -> tuple:
    out = tuple(values)
    if len(out) != nu:
        raise ValueError(f"{what} must have {nu} coordinates, got {len(out)}")
    return out


@dataclass(frozen=True)
class LatticeVector:
    """Vector sum(c[i]*c_{i+1}) + sum(d[i]*d_{i+1}) with rational coords.

    ``support`` holds the (direction index, coordinate) pairs of the nonzero
    coordinates in direction order (c_1..c_nu are 0..nu-1, d_1..d_nu are
    nu..2nu-1), which the pairing and the Heisenberg modes read.
    """

    c: tuple
    d: tuple
    _hash: int = field(init=False, repr=False, compare=False)
    support: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.c) != len(self.d):
            raise ValueError("c- and d-coordinate lists must have equal length")
        object.__setattr__(self, "c", tuple(rational(a) for a in self.c))
        object.__setattr__(self, "d", tuple(rational(a) for a in self.d))
        # vectors key the operator caches, so hash the 2*nu coordinates once
        object.__setattr__(self, "_hash", hash((self.c, self.d)))
        object.__setattr__(self, "support",
                           tuple((i, a) for i, a in enumerate(self.c + self.d) if a))

    def __hash__(self) -> int:
        return self._hash

    @property
    def nu(self) -> int:
        return len(self.c)

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        self._check(other)
        return LatticeVector(
            tuple(a + b for a, b in zip(self.c, other.c)),
            tuple(a + b for a, b in zip(self.d, other.d)),
        )

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return self + (-other)

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(tuple(-a for a in self.c), tuple(-a for a in self.d))

    def __rmul__(self, scalar) -> "LatticeVector":
        q = rational(scalar)
        return LatticeVector(tuple(q * a for a in self.c), tuple(q * a for a in self.d))

    __mul__ = __rmul__

    def _check(self, other: "LatticeVector") -> None:
        if self.nu != other.nu:
            raise ValueError(f"rank mismatch: {self.nu} vs {other.nu}")

    def __str__(self) -> str:
        parts = []
        for i, a in enumerate(self.c):
            if a:
                parts.append(f"{a}*c{i + 1}")
        for i, a in enumerate(self.d):
            if a:
                parts.append(f"{a}*d{i + 1}")
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class LatticeConfig:
    """Rank parameter nu and pairing constant k of the hyperbolic lattice."""

    nu: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "nu", integer(self.nu))
        object.__setattr__(self, "k", integer(self.k))
        if self.nu < 1:
            raise ValueError("nu must be a positive integer")
        if self.k == 0:
            raise ValueError("k must be a nonzero integer")

    # -- vector constructors -------------------------------------------------

    def vector(self, c: Sequence | None = None, d: Sequence | None = None) -> LatticeVector:
        """The vector of nu c- and nu d-coordinates; an omitted family is zero."""
        zeros = (0,) * self.nu
        return LatticeVector(zeros if c is None else _coords(c, self.nu, "c"),
                             zeros if d is None else _coords(d, self.nu, "d"))

    def zero(self) -> LatticeVector:
        return self.vector()

    def c_basis(self, i: int) -> LatticeVector:
        """Basis vector c_i, 1-based."""
        i = self._check_index(i)
        return self.vector(c=[int(j == i - 1) for j in range(self.nu)])

    def d_basis(self, i: int) -> LatticeVector:
        """Basis vector d_i, 1-based."""
        i = self._check_index(i)
        return self.vector(d=[int(j == i - 1) for j in range(self.nu)])

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
        if not 0 <= idx < self.ndirs:
            raise ValueError(f"direction index {idx} out of range 0..{self.ndirs - 1}")
        if idx < self.nu:
            return self.c_basis(idx + 1)
        return self.d_basis(idx - self.nu + 1)

    def dir_name(self, idx: int) -> str:
        if idx < self.nu:
            return f"c{idx + 1}"
        return f"d{idx - self.nu + 1}"

    # -- the bilinear form ----------------------------------------------------

    def pairing(self, u: LatticeVector, v: LatticeVector) -> int | Fraction:
        """Bilinear extension of (c_i, d_j) = k*delta_ij, normalized like a
        combination value."""
        if u.nu != self.nu or v.nu != self.nu:
            raise ValueError(
                f"vector rank mismatch: pairing on rank {self.nu} lattice "
                f"got ranks {u.nu} and {v.nu}"
            )
        # only a c_i/d_i pair of the two supports pairs nonzero
        total = sum(a * b for i, a in u.support for j, b in v.support if abs(i - j) == self.nu)
        return rational(self.k * total)

    def _check_index(self, i: int) -> int:
        """The 1-based basis index i as an ``int``, checked by ``integer``."""
        i = integer(i)
        if not 1 <= i <= self.nu:
            raise ValueError(f"basis index {i} out of range 1..{self.nu}")
        return i


class WeightModule:
    """The span of lattice points lam0 + alpha, alpha in the charge lattice.

    Labels are the c-coordinates of the points (tuples of rationals, each
    an ``int`` when integral, as combination values are).  The
    translations act by addition and each d_i acts diagonally by its pairing
    with the point, for any value of the pairing constant.  Two modules on
    equal lattices with equal base points are equal, so their states add.
    """

    def __init__(self, cfg: LatticeConfig, lam0_coords: Sequence = None):
        self.cfg = cfg
        coords = list(lam0_coords) if lam0_coords is not None else [0] * cfg.nu
        if len(coords) != cfg.nu:
            raise ValueError(f"base point needs {cfg.nu} coordinates")
        self.lam0 = tuple(rational(x) for x in coords)

    def __repr__(self) -> str:
        return f"WeightModule({self.cfg}, ({', '.join(map(str, self.lam0))}))"

    def __eq__(self, other) -> bool:
        return type(other) is WeightModule and (self.cfg, self.lam0) == (other.cfg, other.lam0)

    def __hash__(self) -> int:
        return hash((self.cfg, self.lam0))

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
