"""Hybrid classical-quantum product codes.

Construction, syndrome extraction, lookup-table decoding (exact, or one
batched numpy nearest-key scan for noisy syndromes), logical-qubit
localization, analytic failure/overhead models, CNOT circuit Pauli
propagation, and Monte Carlo validation.
"""

from .gf2 import BitMatrix, GF2Error
from .classical import ClassicalCode, GaloisField
from .quantum import CssCode, PauliOp
from .product import LookupTable, ProductCode, ProductSyndrome
from .decoder import LocalizationResult
from .circuit import PauliFrame, SyndromeCircuit
from .sim import TrialConfig, TrialReport

__version__ = "0.1.0"

__all__ = [
    "BitMatrix", "GF2Error", "ClassicalCode", "GaloisField",
    "CssCode", "PauliOp", "LookupTable",
    "ProductCode", "ProductSyndrome", "LocalizationResult",
    "PauliFrame", "SyndromeCircuit", "TrialConfig", "TrialReport",
    "__version__",
]
