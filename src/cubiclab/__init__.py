"""cubiclab: a desk-scale laboratory for the circle-method treatment of
cubic Diophantine equations — exact invariants, p-adic densities,
exponential sums, singular series/integral, lattice counting, and the
symbolic exponent system behind the uniform solubility bounds."""

__version__ = "0.1.0"

from .polynomials import (CubicPolynomial, symmetrize, homogenize,
                          normalize_leading, transform)
from .invariants import (delta, rank_census, psi_good_report, siegel_solve,
                         small_subspace_solution_bound, DeltaInvariant,
                         RankCensus)
from .local import (rho, rho_star, hensel_lift, lifting_level, ncc_certify,
                    local_factor, LocalReport, NCCCertificate)
from .expsums import (gauss_sum, weyl_sum, bilinear_count,
                      shrinking_check, bootstrap_check, weyl_bound_probe)
from .majorarcs import (real_point, build_box, singular_integral,
                        slice_volume, singular_series, asymptotic_compare,
                        BoxRegion, SeriesTruncation)
from .counting import count_solutions, smallest_solution, CountResult
from .exponents import (solve_parameters, psi_requirement, threshold_profile,
                        theorem_exponent_check, paper_exponents,
                        ExponentSystem)
