"""Certification of multi-mode light-matter effects in lossy 1D resonators.

The package computes exact cavity Green's functions for layered structures,
extracts complex poles and residues of the witness observable
delta(omega) = Delta - i Gamma / 2, evaluates pseudomode few-mode models, and
classifies single-mode / off-resonant / complex-residue / multi-pole behavior.
"""

from .errors import (
    AccuracyError,
    AmbiguityError,
    BranchPointError,
    ConfigurationError,
    DomainError,
    ExceptionalPointError,
    ModeCertError,
    NearPoleError,
    RegionTooSmallError,
    ThicknessOverflowError,
    UnresolvedRegionError,
)
from .layered import (
    EmitterSpec,
    LayerStack,
    Material,
    VACUUM,
    WaveProblem,
    build_fabry_perot,
    build_xray_cavity,
    green_function,
    load_material_table,
    reflection,
)

__all__ = [
    "AccuracyError", "AmbiguityError", "BranchPointError", "ConfigurationError",
    "DomainError", "ExceptionalPointError", "ModeCertError", "NearPoleError",
    "RegionTooSmallError", "ThicknessOverflowError", "UnresolvedRegionError",
    "EmitterSpec", "LayerStack", "Material", "VACUUM", "WaveProblem",
    "build_fabry_perot", "build_xray_cavity", "green_function",
    "load_material_table", "reflection",
]

__version__ = "0.1.0"
