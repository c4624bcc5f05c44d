"""Exact operator algebra and tau series for b-weighted constellation models."""

from .coeffring import Coeff
from .ppoly import PPoly
from .weyl import DegreeBudgetError, WeylOp
from .currents import YVector, build_A, build_M, clear_caches, current, esym
from .constraints import (
    BIP,
    BIPLE3,
    MODELS,
    THREECONST,
    Model,
    TGradedOp,
    build_D,
    build_Dtilde,
    build_L,
    verify_simplified,
    verify_commutators,
)
from .tau import (
    HSeries,
    TauSeries,
    check_constraints,
    check_rooted_fixed_point,
    h_series,
    tau_evolve,
    tau_from_h,
)
from .jack import (
    alpha_inner,
    calibrate_convention,
    compare_with_engine,
    content_product,
    jack,
    jack_to_ppoly,
    partitions,
    tau_jack,
)

__version__ = "0.1.0"

__all__ = [
    "Coeff",
    "PPoly",
    "WeylOp",
    "DegreeBudgetError",
    "YVector",
    "build_A",
    "build_M",
    "current",
    "esym",
    "clear_caches",
    "Model",
    "TGradedOp",
    "MODELS",
    "BIP",
    "THREECONST",
    "BIPLE3",
    "build_D",
    "build_Dtilde",
    "build_L",
    "verify_commutators",
    "verify_simplified",
    "TauSeries",
    "HSeries",
    "tau_evolve",
    "check_constraints",
    "check_rooted_fixed_point",
    "h_series",
    "tau_from_h",
    "partitions",
    "alpha_inner",
    "jack",
    "jack_to_ppoly",
    "content_product",
    "tau_jack",
    "calibrate_convention",
    "compare_with_engine",
]
