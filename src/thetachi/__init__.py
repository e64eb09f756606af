"""Exact Mukai-lattice arithmetic and theta-bundle Euler characteristics
for moduli of sheaves on polarized abelian surfaces, with a mechanical
verification suite for the cohomological identities behind the formulas.
"""

from .abelian import Polarization, fm_transform, fm_transform_back, lambda_hat, mukai_pair
from .exterior import (
    ExteriorClass,
    MorphismH1,
    Space,
    exp_even,
    fiber_integrate,
    integrate,
    wedge,
)
from .formulas import (
    ChiResult,
    FormulaError,
    KummerClass,
    binom,
    chi_albanese_fiber,
    chi_arbitrary_det,
    chi_fixed_det,
    chi_fixed_fm_det,
    chi_hilbert,
    chi_k3_reference,
    chi_kummer,
)
from .identities import IdentityReport, run_identity, run_suite
from .mukai import (
    AdmissibilityReport,
    MukaiVector,
    NSClass,
    check_assumptions,
    c1_tensor,
    euler_chi_tensor,
    fm_vector,
    fm_vector_via_engine,
    mukai_pairing,
    parse_vector,
)
from .poly import Poly

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
