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
    TauSeries,
    check_constraints,
    check_rooted_fixed_point,
    h_series,
    tau_evolve,
)
from .jack import (
    calibrate_convention,
    compare_with_engine,
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
    "tau_evolve",
    "check_constraints",
    "check_rooted_fixed_point",
    "h_series",
    "partitions",
    "jack",
    "jack_to_ppoly",
    "tau_jack",
    "calibrate_convention",
    "compare_with_engine",
]
