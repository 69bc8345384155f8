"""Exact symbolic computations in a half-lattice vertex algebra.

The algebra is the Heisenberg Fock space over a rank-2*nu hyperbolic
lattice, tensored with the group algebra of the isotropic charge half
L_C = span_Z(c_1..c_nu), where (c_i, d_j) = k * delta_ij.  Everything is
computed over the rationals with no floating point: vertex-operator
coefficients, module constructions over the straightened algebra on
translations and degree operators, the vacuum-space functor, and the
degree-zero associative quotient.
"""

from .assoc import (
    AElement,
    BElement,
    IsoData,
    OmegaModule,
    OmegaSpec,
    SimplicityWitness,
    WeightModule,
    WeightVector,
    a_normal_form,
    act_on_omega_module,
    act_on_weight_module,
    decompose_potential,
    is_a_module_spec,
    iso_decide,
    mult_b_element,
    omega_d_act,
    omega_e_act,
    simplicity_witness,
)
from .bridge import (
    MixedSectorError,
    charge_sector,
    is_vacuum_vector,
    recovered_action_cases,
    recovered_relation_cases,
    t_operator,
    vacuum_basis,
    z_operator,
)
from .fock import (
    ModuleElement,
    VElement,
    charge_element,
    fock_element,
    fock_weight,
    fock_word,
    homogeneous_components,
    vacuum,
)
from .identities import (
    ActionCache,
    borcherds_residual,
    d_derivative_residual,
    heisenberg_residual,
    locality_residual,
    virasoro_residual,
)
from .lattice import LatticeConfig, LatticeVector
from .laurent import CutoffError, LaurentPoly, LaurentRing
from .serialize import SchemaError
from .suites import SuiteConfig, SuiteReport, run_verification
from .vertex import (
    OperatorContext,
    adjoint_context,
    apply_heisenberg_mode,
    conformal_vector,
    module_operator_context,
    nth_product,
    truncation_bound,
    y_coefficient,
)
from .zhu import (
    circ_general,
    o_action_on_v0,
    zhu_embed,
    zhu_iso_cases,
    zhu_reduce,
    zhu_star,
)

__version__ = "0.1.0"
