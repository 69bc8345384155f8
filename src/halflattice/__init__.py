"""Exact symbolic computations in a half-lattice vertex algebra.

The algebra is the Heisenberg Fock space over a rank-2*nu hyperbolic
lattice, tensored with the group algebra of the isotropic charge half
L_C = span_Z(c_1..c_nu), where (c_i, d_j) = k * delta_ij.  Everything is
computed over the rationals with no floating point: vertex-operator
coefficients, module constructions over the straightened algebra on
translations and degree operators, the vacuum-space functor, and the
degree-zero associative quotient.

The package imports none of its modules; import each name from the module
that defines it, e.g. ``from halflattice.vertex import Field``.  A module
loads at import only the layers it reads; the engine is the first four.
No module imports ``dataclasses``, which would load ``inspect``, ``ast``,
``dis`` and ``tokenize`` into every run: records are ``typing.NamedTuple``s
and the validated values (lattice, ring, function and weight modules) are
``combination.Value``s, which own their immutability, equality and repr.

    combination                   exact sparse sums and their integer form
    lattice                       the rank-2*nu lattice, its pairing, weight modules
    fock                          Fock monomials, the states they span, label actions
    vertex                        fields: vertex-operator coefficients and modes
    identities                    residuals of the vertex-algebra identities
    laurent, linalg               Laurent polynomials, nullspaces
    assoc                         the straightened algebra and its function modules
    bridge                        the vacuum functor back to the algebra
    zhu                           the degree-zero quotient
    probes, suites                seeded probes and the verification suites, which
                                  import the other layers when a suite runs
    serialize, cli                JSON schemas and ``python -m halflattice``
"""

__version__ = "0.1.0"
