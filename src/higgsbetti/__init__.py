"""Exact Poincare series and Betti numbers of rank-2 Higgs bundle moduli
spaces, for fixed and non-fixed determinant in degrees 0 and 1.

Three independent evaluation routes (Morse-stratified sums, closed-form
rational expressions, residue/coefficient-extraction calculus) over exact
rational arithmetic, plus the verification suite tying them together.
Everything else is imported from its submodule.
"""

from .spaces import Determinant
from .strata import ModuliSpec, moduli_series
from .verify import run_checks

__version__ = "0.1.0"

__all__ = ["Determinant", "ModuliSpec", "moduli_series", "run_checks"]
