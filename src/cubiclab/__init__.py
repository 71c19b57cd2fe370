"""cubiclab: a desk-scale laboratory for the circle-method treatment of
cubic Diophantine equations — exact invariants, p-adic densities,
exponential sums, singular series/integral, lattice counting, and the
symbolic exponent system behind the uniform solubility bounds.

Every exported name, like every other top-level definition of the
package, is reached from a command, the benchmark's library call or an
acceptance criterion."""

__version__ = "0.1.0"

from .polynomials import CubicPolynomial, symmetrize, homogenize
from .invariants import (delta, rank_census, psi_good_report,
                         small_subspace_solution_bound, DeltaInvariant,
                         RankCensus)
from .local import (rho, rho_star, hensel_lift, lifting_level, ncc_certify,
                    local_factor, LocalReport, NCCCertificate)
from .expsums import (gauss_sum, weyl_sum, shrinking_check, bootstrap_check,
                      weyl_bound_probe)
from .majorarcs import (singular_integral, slice_volume, singular_series,
                        SeriesTruncation)
from .counting import count_solutions, smallest_solution, CountResult
from .exponents import (solve_parameters, psi_requirement,
                        theorem_exponent_check, paper_exponents,
                        ExponentSystem)
