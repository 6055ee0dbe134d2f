"""fuzzylab: quantum mechanics on a rotationally invariant fuzzy 3D space.

Coordinates satisfying [x_i, x_j] = 2 i lam eps_ijk x_k are realized with two
bosonic modes on a truncated Fock space; wave functions are operators with
the weighted norm 4 pi lam^2 Tr[psi+ r psi].  The package provides

* :mod:`fuzzylab.fock` -- the truncated arena, coordinates, states, norms;
* :mod:`fuzzylab.operators` -- angular momentum, position, velocity, the
  free Hamiltonian, the modified Leibniz correction, acceleration, and the
  E(4) invariants as superoperators with declared shell bandwidths;
* :mod:`fuzzylab.algebra` / :mod:`fuzzylab.identities` -- an exact
  normal-ordering rewriting engine on sympy, loaded on first use, that
  proves the structural identities (velocity form, Leibniz correction sum,
  [V_i, V_j] = 0, the quadratic velocity-Hamiltonian relation, the
  acceleration decomposition);
* :mod:`fuzzylab.spectra` -- angular sectors, radial reduction, the kinetic
  cutoff 2/lam^2, and a finite-difference oracle for the commutative limit;
* :mod:`fuzzylab.checks` / :mod:`fuzzylab.cli` -- runnable verification
  suites with machine-readable reports.
"""

__version__ = "0.1.0"

from .fock import (FockBasis, NCState, WeightedInnerProduct,
                   coordinate_matrix, enumerate_basis, interior_projection,
                   ladder_matrix, radial_matrix, random_state,
                   state_from_text, state_to_text)
from .operators import RadialFunction, Space, SuperOp
from .spectra import (AngularSector, SpectrumResult,
                      build_sector, commutative_oracle, convergence_study,
                      eigen_solve, full_kappa0_spectrum, reduce_hamiltonian,
                      reduce_superop, shell_state, solve_sector,
                      v2_consistency)
from .checks import CheckConfig, POTENTIALS, SUITES, run_suite
from .report import CheckRecord, VerificationReport, emit_report

__all__ = [
    "__version__",
    "FockBasis", "NCState", "WeightedInnerProduct",
    "enumerate_basis", "ladder_matrix", "coordinate_matrix", "radial_matrix",
    "random_state", "interior_projection", "state_to_text", "state_from_text",
    "RadialFunction", "Space", "SuperOp",
    "AlgebraExpr", "aL", "aL_dag", "aR", "aR_dag", "coeff", "one",
    "expr_to_text", "expr_from_text",
    "to_superop", "IDENTITY_NAMES", "check_identity", "cross_validate",
    "AngularSector", "SpectrumResult", "build_sector",
    "shell_state", "reduce_hamiltonian", "reduce_superop", "eigen_solve",
    "solve_sector", "commutative_oracle", "full_kappa0_spectrum",
    "v2_consistency", "convergence_study",
    "CheckConfig", "POTENTIALS", "SUITES", "run_suite",
    "CheckRecord", "VerificationReport", "emit_report",
]

#: the symbolic names, imported on first use so that numeric work never
#: loads sympy (PEP 562)
_LAZY = {
    **dict.fromkeys(("AlgebraExpr", "aL", "aL_dag", "aR", "aR_dag", "coeff",
                     "one", "expr_to_text", "expr_from_text", "to_superop"),
                    "algebra"),
    **dict.fromkeys(("IDENTITY_NAMES", "check_identity", "cross_validate"),
                    "identities"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
