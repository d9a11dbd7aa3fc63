"""Lattice-valued set theory at desk scale.

Truth values live in a finite Boolean algebra or in the projection lattice
of a finite-dimensional inner-product space over the Gaussian rationals.
Sets are lattice-valued functions on earlier sets, formulas get truth values
through recursive clauses built on the Sasaki arrow, and the toolkit checks
which classical theorems survive, to what degree, and with what probability
in a given state.
"""

from .exactnum import GQ, ONE, ZERO, gq
from .formula import (Environment, FormulaError, desugar, eval_formula,
                      formula_from_json, formula_to_json, free_variables,
                      parse, parse_formula_lines, to_text)
from .lattice import (BooleanLattice, Lattice, LatticeError, LawReport,
                      ProjectionLattice, lattice_from_json, lattice_to_json,
                      verify_laws)
from .projections import (Projection, SpectralData, identity_projection,
                          lattice_commutator, matrix_from_json, matrix_to_json,
                          proj_from_span, projection_from_json,
                          projection_to_json, spectral_from_json,
                          spectral_to_json, subspace_join, subspace_meet,
                          zero_projection)
from .qreals import (ProbabilityResult, QReal, StateVector, born_probability,
                     classical_equal_value_probability, format_probability,
                     observational_atom, prob_equal, qreal_as_qset,
                     qreal_from_spectral, real_predicate_truth, truth_eq,
                     truth_leq)
from .universe import (EvalSession, QSet, UniverseFragment, check_embed,
                       empty_qset, enumerate_fragment, fragment_from_json,
                       fragment_to_json, make_qset, numerals,
                       predicted_fragment_size, qsets_from_json, qsets_to_json,
                       truth_equality, truth_membership)
from .verification import (CATALOG, CATALOG_BY_NAME, CheckReport, Schema,
                           SuiteReport, TheoremInstance, ViolationWitness,
                           check_scott_solovay, check_transfer,
                           evaluate_instance, find_equality_axiom_violation,
                           qset_commutator, scott_solovay_suite,
                           transfer_suite, violation_demo_collection)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
