"""Central tolerance defaults.

Every numerical gate reads its default from here.  A defect package carries
the tolerances it was built with and everything computed from it reads them
there, so defect_package(tol=) or RunSettings.tol is the one entry.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    eps_id: float = 1e-10        # identity residuals (defect, convolution, row sums)
    eps_rank: float = 1e-10      # relative singular-value threshold for ranks
    eps_pure: float = 1e-8       # purity residual gate
    eps_cnp: float = 1e-10       # admissible negativity of derived b-coefficients
    comm_rel: float = 1e-10      # commutator residual, relative to max ||T_i||^2
    near_singular_cond: float = 1e12  # condition-number gate for resolvent solves


DEFAULT = Tolerances()
