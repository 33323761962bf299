"""Exact simulator for quadrature-restricted classical theories and their quantum twins.

The package has two arithmetic regimes that never mix:

* the exact side (`fields`, `linalg`, `symplectic`, `epistemic`, and `exponents`, the
  stabilizer formalism in integer Weyl exponents) works in ints mod a prime, or
  `fractions.Fraction`, and produces exact rational probabilities;
* the array side (`quantum`, `wigner`, `stabilizer`) works in complex doubles behind a
  1e-10 tolerance (1e-9 for a probability computed by both theories).  Both sides'
  quantum objects live on Hilbert spaces of dimension d**n <= 128.

`wigner` and `stabilizer` sit across the two regimes and mechanically check where the
classical theory reproduces the quantum subtheory (odd prime d) and where it cannot
(d = 2).  `render`, `scenario`, `acceptance` and `cli` are the user-facing surface:
grid pictures, JSON experiment files, the numbered acceptance gates and the
``epistrict`` command.
"""

from .epistemic import (
    EpistemicState,
    OutcomeDistribution,
    SharpMeasurement,
    enumerate_states,
    measure,
    possible_values,
    transform,
)
from .exponents import hilbert_dim
from .fields import RATIONALS, PrimeField, RationalField
from .linalg import AffineSubspace, Matrix, rref, solve_affine
from .quantum import (
    CliffordChannel,
    born,
    chi,
    clifford,
    metaplectic,
    quadrature_pvm,
    quadrature_state,
    weyl,
    weyl_phase,
)
from .render import render
from .scenario import (
    Scenario,
    ScenarioError,
    parse_scenario,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    serialize_scenario,
)
from .stabilizer import (
    StabilizerGroup,
    Witness,
    ghz_test,
    mermin_square,
    quadrature_of_stabilizer,
    scan_for_witness,
    stabilizer_of_quadrature,
    state_from_stabilizer,
    weyl_value_report,
)
from .symplectic import (
    PhaseSpace,
    QuadratureFunctional,
    SizeCapExceeded,
    SymplecticAffine,
    UnsupportedOperation,
    enumerate_group,
    enumerate_isotropic,
    enumerate_symplectic,
    extend_to_symplectic,
    is_isotropic,
    is_symplectic,
    poisson_bracket_fd,
    random_symplectic_affine,
    symp_inner,
    symplectic_form,
    symplectic_group_order,
    transvection,
)
from .wigner import (
    classical_channel_table,
    classical_meas_table,
    classical_state_table,
    equivalence_suite,
    negativity,
    point_operators,
    verify_covariance,
    wigner_channel,
    wigner_meas,
    wigner_state,
)

__version__ = "0.1.0"

__all__ = [
    # fields / linear algebra
    "PrimeField",
    "RationalField",
    "RATIONALS",
    "Matrix",
    "AffineSubspace",
    "rref",
    "solve_affine",
    # phase space and symplectic structure
    "PhaseSpace",
    "QuadratureFunctional",
    "SymplecticAffine",
    "SizeCapExceeded",
    "UnsupportedOperation",
    "symplectic_form",
    "symp_inner",
    "poisson_bracket_fd",
    "is_symplectic",
    "is_isotropic",
    "transvection",
    "extend_to_symplectic",
    "symplectic_group_order",
    "enumerate_symplectic",
    "enumerate_group",
    "enumerate_isotropic",
    "random_symplectic_affine",
    # epistricted states and statistics
    "EpistemicState",
    "SharpMeasurement",
    "OutcomeDistribution",
    "enumerate_states",
    "transform",
    "measure",
    "possible_values",
    # quantum side
    "chi",
    "weyl",
    "weyl_phase",
    "metaplectic",
    "clifford",
    "CliffordChannel",
    "quadrature_state",
    "quadrature_pvm",
    "born",
    "hilbert_dim",
    # Wigner representation
    "point_operators",
    "wigner_state",
    "wigner_meas",
    "wigner_channel",
    "verify_covariance",
    "negativity",
    "classical_state_table",
    "classical_channel_table",
    "classical_meas_table",
    "equivalence_suite",
    # stabilizer bridge
    "StabilizerGroup",
    "stabilizer_of_quadrature",
    "state_from_stabilizer",
    "quadrature_of_stabilizer",
    "weyl_value_report",
    "mermin_square",
    "ghz_test",
    "scan_for_witness",
    "Witness",
    # rendering / scenarios
    "render",
    "Scenario",
    "ScenarioError",
    "parse_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "serialize_scenario",
    "run_scenario",
    "__version__",
]
