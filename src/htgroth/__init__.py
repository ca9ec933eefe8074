"""Exact symbolic combinatorics of Harris-Taylor local systems.

Segment algebra, mod-l reduction rules, division-algebra transfer
coefficients, cohomology coefficient diagrams and tables, congruence
balance constraints and torsion certificates -- all over exact integer
and half-integer arithmetic with opaque symbolic multiplicities.

The package exports its names lazily (PEP 562): ``import htgroth`` loads no
submodule, and ``htgroth.<name>`` imports the module that ``_EXPORTS``
names for it on first use, so a run pays only for the layers it reads.
"""

from importlib import import_module

# module -> the names the package exports from it
_MODULES = {
    "symbolic": ("SymExpr", "atom", "integer"),
    "segments": (
        "CuspidalLabel", "GrothElement", "IrreducibleLabel", "Multisegment", "OpaqueFactor",
        "Partition", "Segment", "dominance_leq", "groth_product", "half", "ladder_cuts",
        "make_speh", "make_speh_st", "make_steinberg", "twist",
    ),
    "diagrams": (
        "DiagramSupport", "LocalComponent", "m_coeff", "m_support", "n_coeff", "n_support",
        "render", "superpose",
    ),
    "cells": ("check_hij", "check_se2", "euler_master_identity", "inclusion_exclusion_ramified"),
    "jl_red": (
        "Orientation", "R_cell", "S_cell", "SignedCharacter", "multisegment_of_orientation",
        "orientations", "r_tau_sign", "red_tau",
    ),
    "modl": (
        "FieldData", "SupercuspidalData", "TowerLevel", "chgt_cuspi_factor", "e_l", "is_banal",
        "is_cuspidal_st", "m_of", "matched_strata", "rl_division_rep", "rl_speh", "supercuspidal",
        "tower_rank",
    ),
    "cohomology": (
        "CohomologyTable", "CongruenceConstraint", "ProfileEntry", "SpectrumProfile",
        "TorsionCertificate", "coh_intermediate", "coh_shriek", "conj2_predicate", "dxi_support",
        "rl_hi_balance", "strong_congruence_filter", "torsion_detect",
    ),
}
# the submodules the package exports by their own names, as it did when it imported them eagerly
_SUBMODULES = ("cohomology", "diagrams", "jl_red", "modl", "segments", "symbolic")
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}
_EXPORTS.update((module, module) for module in _SUBMODULES)

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    """``htgroth.<name>``: the module, or its attribute, that ``_EXPORTS`` names, imported on first use."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")  # binds the module here as a submodule
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
