"""The inverse vacuum functor on Fock modules over a coefficient module.

``vertex.module_operator_context`` attaches a weight vector with rational
d-coordinates to a coefficient module W, a ``lattice.WeightModule`` or an
``assoc.OmegaSpec``, producing the operator context, on W's lattice, under
which the Fock module M(1) tensor W carries the vertex action.  This module
runs the converse direction: it starts from the vacuum space (states killed
by every positive mode), dresses the lattice operators into z-independent
transport operators, and reads the straightened-algebra action back off the
vacuum: degree operators act by their zero modes and charge translations by
the transport operators.  The recovered action is compared with the
algebra's own action on the vacuum states, ``assoc.act_on_module``, and it
and its straightening relations are checked as lazy sweeps of (where,
residual) cases, each residual zero when the case holds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .assoc import BElement, act_on_module
from .combination import accumulate, integer, rational
from .fock import ModuleElement, charge_element, decode, encode, fock_weight, merge_words
from .lattice import LatticeConfig, LatticeVector
from .linalg import nullspace
from .vertex import Field, OperatorContext, apply_heisenberg_mode, dressing, mode_into


# -- vacuum space ---------------------------------------------------------------------


def _fock_level(cfg: LatticeConfig, weight: int) -> list:
    """All Fock monomials of the given weight, ordered by their decoded
    (direction, mode) pairs.  The levels below it are built once each,
    bottom-up: level w puts one factor of each mode m <= w on level w - m."""
    levels = [{()}]
    for w in range(1, weight + 1):
        levels.append({merge_words((encode(dir_, mode),), rest)
                       for mode in range(1, w + 1) for dir_ in range(cfg.ndirs)
                       for rest in levels[w - mode]})
    return sorted(levels[weight], key=lambda word: tuple(map(decode, word)))


def vacuum_basis(
    mctx: OperatorContext,
    degree_bound: int,
    labels: Sequence,
) -> list[ModuleElement]:
    """Exact solutions of the positive-mode annihilation conditions.

    The conditions are homogeneous in the Fock weight and do not touch the
    coefficient-module labels, so each weight level is solved once on the
    pure Fock space and tensored with the label slice.  A positive mode
    never reads the label slot, so one ``mode_into`` per (mode, direction)
    on a plain terms dict of the whole level, with each monomial's column
    index in its label slot, yields the sparse condition rows: one per lower
    monomial.  No state is built from those terms, as their labels are not
    the module's.  The solutions are read off the unique reduced echelon
    form, so they do not depend on the row order.  For the built modules
    only the weight-zero level survives, so the result is the slice itself
    under the unit Fock factor.
    """
    cfg = mctx.cfg
    fock_solutions: list[dict] = [{(): 1}]  # level 0
    for level in range(1, degree_bound + 1):
        basis = _fock_level(cfg, level)
        columns = {(word, col): 1 for col, word in enumerate(basis)}
        rows = []
        for n in range(1, level + 1):
            for dir_ in range(cfg.ndirs):
                image: dict = {}
                mode_into(image, 1, cfg.dir_vector(dir_), n, columns, mctx)
                by_lower: dict = {}
                for (lower, col), c in image.items():
                    by_lower.setdefault(lower, {})[col] = c
                rows.extend(by_lower.values())
        for vec in nullspace(rows, len(basis)):
            fock_solutions.append(
                {basis[i]: c for i, c in enumerate(vec) if c}
            )
    out = []
    for label in labels:
        checked = mctx.handle.validate_label(label)
        for sol in fock_solutions:
            # coded canonical words from the basis: the trusted path
            out.append(mctx.element({(word, checked): c for word, c in sol.items()}))
    return out


def is_vacuum_vector(w: ModuleElement, mctx: OperatorContext) -> bool:
    """True when every positive mode annihilates the state."""
    cfg = mctx.cfg
    top = max((fock_weight(word) for (word, _) in w.terms), default=0)
    for n in range(1, top + 1):
        for dir_ in range(cfg.ndirs):
            if not apply_heisenberg_mode(cfg.dir_vector(dir_), n, w, mctx).is_zero():
                return False
    return True


# -- transport operators -----------------------------------------------------------------


def z_operator(
    alpha: Sequence[int],
    n: int,
    w: ModuleElement,
    mctx: OperatorContext,
) -> ModuleElement:
    """Coefficient of the dressed lattice operator at index n.

    The dressing multiplies the field of e^alpha on the left by
    exp(-sum_{m>0} alpha(-m) z^m / m) and on the right by
    exp(+sum_{m>0} alpha(m) z^{-m} / m), the inverses of E^-(-alpha, z) and
    E^+(-alpha, z): both are the dressing of -alpha.  On a vacuum state the
    right factor is the identity; in general it contributes finitely many
    annihilation terms bounded by the state's Fock weight.  Either way the
    coefficient at z^(-n-1) is a finite double sum, cut off at the ``top``
    of each prepared field, past which its coefficients vanish.
    """
    cfg = mctx.cfg
    charge = tuple(integer(m) for m in alpha)
    inverse = tuple(-m for m in charge)
    e_alpha = charge_element(cfg.nu, charge)
    out: dict = {}
    b_max = max((fock_weight(word) for (word, _) in w.terms), default=0) if any(charge) else 0
    for b in range(b_max + 1):
        states = dressing(cfg, w.terms, inverse, b, -1)
        field = Field(e_alpha, mctx.element(states), mctx)
        for a in range(field.top + b - n + 1):
            inner = field.coefficient(n + a - b).terms
            for key, c in dressing(cfg, inner, inverse, a, 1).items():
                accumulate(out, key, c)
    return mctx.element(out)


class MixedSectorError(ValueError):
    """A state mixes distinct zero-mode eigenvalue sectors."""


def charge_sector(direction, w: ModuleElement, mctx: OperatorContext):
    """Eigenvalue of the zero mode of a lattice vector on w.

    Accepts a charge tuple or a general lattice vector; raises when the
    state is not an eigenvector (it mixes sectors).  The eigenvalue is
    normalized like a coefficient: an ``int`` when it is integral.
    """
    cfg = mctx.cfg
    vec = direction if isinstance(direction, LatticeVector) else cfg.from_charge(direction)
    if w.is_zero():
        raise ValueError("the zero state has no sector")
    image = apply_heisenberg_mode(vec, 0, w, mctx)
    key, coeff = next(iter(w.terms.items()))
    ratio = rational(Fraction(image.terms.get(key, 0), coeff))
    if image != ratio * w:
        raise MixedSectorError(f"state mixes zero-mode sectors of {vec}")
    return ratio


def t_operator(alpha: Sequence[int], w: ModuleElement, mctx: OperatorContext) -> ModuleElement:
    """The z-independent transport operator: the coefficient of the dressed
    operator at the definite power z^(alpha, lam), the context's
    ``charge_power``, since alpha(0) is that scalar on the whole Fock module.
    It is linear in w, so it is zero on the zero state."""
    charge = tuple(integer(m) for m in alpha)
    return z_operator(charge, -1 - mctx.charge_power(charge), w, mctx)


# -- recovering the coefficient module ---------------------------------------------------


def _unit_charges(nu: int) -> list:
    """The charges +c_i and -c_i, in that order for each i."""
    return [tuple(sign * (j == i) for j in range(nu)) for i in range(nu) for sign in (1, -1)]


def _vacuum_states(mctx: OperatorContext, labels: Sequence) -> dict:
    return {label: mctx.state_of_label(label) for label in labels}


def recovered_action_cases(mctx: OperatorContext, labels: Sequence):
    """Compare the recovered action with the algebra's own on the module.

    On the vacuum state of each label, the zero mode of d_j must act as d_j
    and the transport operator of each unit charge as its translation e_c,
    both by ``assoc.act_on_module``.  Yields ((kind, index, label),
    recovered - original).
    """
    cfg = mctx.cfg
    for label, state in _vacuum_states(mctx, labels).items():
        for j in range(1, cfg.nu + 1):
            got = apply_heisenberg_mode(cfg.d_basis(j), 0, state, mctx)
            yield ("d", j, label), got - act_on_module(BElement.d(j), state)
        for charge in _unit_charges(cfg.nu):
            got = t_operator(charge, state, mctx)
            yield ("e", charge, label), got - act_on_module(BElement.e(charge), state)


def recovered_relation_cases(mctx: OperatorContext, labels: Sequence):
    """The straightening relations on the recovered action.

    Each degree operator commutes with a transport operator up to the
    pairing, and transport operators compose additively in the charge.
    Yields ((relation, indices..., label), lhs - rhs).
    """
    cfg = mctx.cfg
    charges = _unit_charges(cfg.nu)
    for label, state in _vacuum_states(mctx, labels).items():
        t_of = {charge: t_operator(charge, state, mctx) for charge in charges}
        for j in range(1, cfg.nu + 1):
            d_j = cfg.d_basis(j)
            d_state = apply_heisenberg_mode(d_j, 0, state, mctx)
            for charge in charges:
                t_state = t_of[charge]
                lhs = apply_heisenberg_mode(d_j, 0, t_state, mctx)
                rhs = t_operator(charge, d_state, mctx) \
                    + cfg.pairing(d_j, cfg.from_charge(charge)) * t_state
                yield ("commutator", j, charge, label), lhs - rhs
        for c1 in charges:
            for c2 in charges:
                lhs = t_operator(c1, t_of[c2], mctx)
                total = tuple(a + b for a, b in zip(c1, c2))
                yield ("composition", c1, c2, label), lhs - t_operator(total, state, mctx)
