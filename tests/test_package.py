"""The package's lazy exports, and the names that moved into the label-free layer.

``htgroth`` exports its names through a PEP 562 ``__getattr__``: a bare
import loads no submodule, and each name resolves to the object of the
module that defines it.  The cut walk and the Euler identity live in
``htgroth.cells`` and ``Value`` in ``htgroth.symbolic``; every old path
reads the same object.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path
from types import GenericAlias

import pytest

import htgroth
from htgroth import cells, cohomology, jl_red, segments, symbolic

SRC = str(Path(__file__).resolve().parent.parent / "src")

# htgroth.__all__ as it was while the package imported every layer eagerly
EAGER_ALL = [
    "CohomologyTable", "CongruenceConstraint", "CuspidalLabel", "DiagramSupport", "FieldData",
    "GrothElement", "IrreducibleLabel", "LocalComponent", "Multisegment", "OpaqueFactor",
    "Orientation", "Partition", "ProfileEntry", "R_cell", "S_cell", "Segment", "SignedCharacter",
    "SpectrumProfile", "SupercuspidalData", "SymExpr", "TorsionCertificate", "TowerLevel", "atom",
    "check_hij", "check_se2", "chgt_cuspi_factor", "coh_intermediate", "coh_shriek", "cohomology",
    "conj2_predicate", "diagrams", "dominance_leq", "dxi_support", "e_l", "euler_master_identity",
    "groth_product", "half", "inclusion_exclusion_ramified", "integer", "is_banal",
    "is_cuspidal_st", "jl_red", "ladder_cuts", "m_coeff", "m_of", "m_support", "make_speh",
    "make_speh_st", "make_steinberg", "matched_strata", "modl", "multisegment_of_orientation",
    "n_coeff", "n_support", "orientations", "r_tau_sign", "red_tau", "render", "rl_division_rep",
    "rl_hi_balance", "rl_speh", "segments", "strong_congruence_filter", "supercuspidal",
    "superpose", "symbolic", "torsion_detect", "tower_rank", "twist",
]

# old path -> the names it re-exports from htgroth.cells
MOVED = {
    jl_red: ("Shape", "TermKey", "Terms", "_run_cuts", "frozen_terms", "marked_cells", "rectangle_shape_groups"),
    cohomology: (
        "_euler_core", "_shriek_core", "check_hij", "check_se2", "euler_master_identity",
        "euler_oracle_violations", "euler_shape_established", "hij_expand",
        "inclusion_exclusion_ramified", "se2_expand",
    ),
}


def run_fresh(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_all_holds_the_names_of_the_eager_package():
    assert htgroth.__all__ == EAGER_ALL


def test_each_export_is_the_defining_modules_object():
    for name in EAGER_ALL:
        value = getattr(htgroth, name)
        if name in ("cohomology", "diagrams", "jl_red", "modl", "segments", "symbolic"):
            assert value is importlib.import_module(f"htgroth.{name}")
        else:
            assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_star_import_reads_every_name_in_a_fresh_process():
    code = (
        "import htgroth\n"
        "from htgroth import *\n"
        "names = [n for n in htgroth.__all__ if globals()[n] is not getattr(htgroth, n)]\n"
        "print(len(htgroth.__all__), names)"
    )
    assert run_fresh(code) == f"{len(EAGER_ALL)} []\n"


def test_dir_lists_the_names_and_an_unknown_name_raises():
    assert set(EAGER_ALL) <= set(dir(htgroth)) and "__version__" in dir(htgroth)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        htgroth.no_such_name
    assert not hasattr(htgroth, "Value")  # exported by no module table entry


def test_a_bare_import_loads_no_submodule():
    code = "import sys; import htgroth; print(sorted(m for m in sys.modules if m.startswith('htgroth.')))"
    assert run_fresh(code) == "[]\n"


@pytest.mark.parametrize("module", list(MOVED), ids=lambda module: module.__name__)
def test_a_moved_name_reads_one_object_on_every_path(module):
    for name in MOVED[module]:
        value = getattr(cells, name)
        assert getattr(module, name) is value, (module.__name__, name)
        if callable(value) and not isinstance(value, GenericAlias):  # a function, defined once, in cells
            assert value.__module__ == "htgroth.cells", name
    assert segments.Value is symbolic.Value and symbolic.Value.__module__ == "htgroth.symbolic"


def test_the_label_free_layer_imports_only_symbolic():
    code = (
        "import sys; import htgroth.cells, htgroth.diagrams; "
        "print(sorted(m for m in sys.modules if m.startswith('htgroth.')))"
    )
    assert run_fresh(code) == "['htgroth.cells', 'htgroth.diagrams', 'htgroth.symbolic']\n"
