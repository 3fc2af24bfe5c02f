"""Desk-scale CI-matrix quantum-simulation pipeline with built-in oracles."""

from .determinants import (Determinant, DiffReport, align_and_diff,
                           enumerate_basis)
from .orbitals import BasisBounds, SpinOrbital, derive_bounds
from .integrals import IntegralTable
from .coloring import (LEFT, RIGHT, ColorTuple, apply_color, color_of,
                       coloring_census)
from .cimatrix import (GammaIndex, OneSparseEntry, ci_entry, count_gamma,
                       enumerate_gammas, gamma_entry, sparsity_d)
from .quadrature import QuadratureSpec, lambda_exact, riemann_terms
from .selfinverse import DecompositionMeta, SelfInverseTerm
from .lcu import RegisterSim, SegmentPlan, TermFamily, evolve, plan_segments
from .driver import (ProblemConfig, RunReport, budget_errors, exact_evolve,
                     load_config, run_pipeline)

__version__ = "0.1.0"
