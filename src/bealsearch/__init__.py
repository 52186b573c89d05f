"""Exact-arithmetic search and verification for A^X + B^Y = C^Z.

Subpackage map:
    exact_arith  integer/rational kernels: roots, perfect powers, radicals
    identity     difference-of-powers expansion identities
    intervals    exact rational enclosures of irrational quantities
    coprime      coprimality propagation and exponent restrictions
    reparam      two-parameter reparameterization and its scaling factor
    slopes       origin-line slopes, lattice points, binomial series
    search       bounded exhaustive search plus brute-force oracle
    records      CSV/JSON persistence of hits
    svgplot      scatter-plot emission
    cli          command-line entry points
"""

from .exact_arith import (Radical, RadicalClass, classify_radical, factorize,
                          iroot, is_perfect_power, reduce_base)
from .triples import BealTriple
from .search import (SearchConfig, SearchHit, SearchReport, brute_force_oracle,
                     enumerate_powers, search_solutions, verify_hit)

__all__ = [
    "Radical", "RadicalClass", "classify_radical", "factorize", "iroot",
    "is_perfect_power", "reduce_base", "BealTriple", "SearchConfig",
    "SearchHit", "SearchReport", "brute_force_oracle", "enumerate_powers",
    "search_solutions", "verify_hit",
]

__version__ = "0.1.0"
