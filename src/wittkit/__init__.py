"""wittkit: exact necklace combinatorics, Witt transforms of power series,
unique infinite-product expansions, and high-precision Euler-product
constants."""

from .arith import bernoulli, divisors, moebius, multinomial, nth_prime, primes_up_to
from .characters import RealDirichletCharacter, kronecker
from .errors import (
    BudgetExceededError,
    DivergenceError,
    IntegralityError,
    PreconditionError,
)
from .expansion import (
    BiSeries,
    CyclotomicReport,
    Expansion1D,
    Expansion2D,
    cyclotomic_check,
    peel_1d,
    peel_2d,
    reconstruct_1d,
    reconstruct_2d,
)
from .necklace import necklace_closed, necklace_count, necklace_poly, v_count
from .series import RationalFunction, TruncatedSeries
from .analytic import (
    BChiResult,
    ConstantResult,
    ConvergenceReport,
    EulerProductSpec,
    b_chi,
    check_convergence_hypotheses,
    euler_product,
    euler_product_direct,
    hurwitz_zeta,
    l_series,
    partial_zeta,
    zeta,
)
from .witt import (
    IdentityReport,
    ScanReport,
    WittTable,
    c_transform,
    moebius_invert_series,
    moebius_sum_series,
    monotonicity_scan,
    verify_identity,
    witt_table,
    witt_transform,
)
from .words import aperiodic_count, is_lyndon, lyndon_words

__version__ = "0.1.0"

__all__ = [
    "moebius", "divisors", "multinomial", "primes_up_to", "nth_prime",
    "bernoulli",
    "TruncatedSeries", "RationalFunction",
    "necklace_poly", "necklace_count", "v_count", "necklace_closed",
    "is_lyndon", "lyndon_words", "aperiodic_count",
    "witt_transform", "c_transform", "witt_table", "WittTable",
    "moebius_invert_series", "moebius_sum_series",
    "verify_identity", "IdentityReport", "monotonicity_scan", "ScanReport",
    "peel_1d", "reconstruct_1d", "peel_2d", "reconstruct_2d",
    "Expansion1D", "Expansion2D", "BiSeries",
    "cyclotomic_check", "CyclotomicReport",
    "kronecker", "RealDirichletCharacter",
    "zeta", "hurwitz_zeta", "partial_zeta", "l_series",
    "EulerProductSpec", "ConstantResult", "euler_product",
    "euler_product_direct", "b_chi", "BChiResult",
    "check_convergence_hypotheses", "ConvergenceReport",
    "IntegralityError", "BudgetExceededError", "DivergenceError",
    "PreconditionError",
]
