"""The package's public surface and the hygiene of its modules."""

import ast
from pathlib import Path

import pytest

import painleve_hh

# the exported names; a change removes none of them
PUBLIC = {
    "BranchSpec", "CandidateC", "ClassificationVerdict",
    "CompatibilityViolation", "ContractViolation", "ConvergenceCertificate",
    "DenseMatrix", "DominantBalance", "FitResult", "FourthOrderForm",
    "InsufficientPrefix", "LinearSolution", "PhaseState",
    "PolynomialODESystem", "PuiseuxSeries", "QuarticForm", "RecurrenceStep",
    "ResiduePair", "ResonanceSet", "Scalar", "SeriesSolution",
    "SingularityApproach", "SubequationAnsatz", "UnsupportedParameter",
    "as_scalar", "bound_step", "branch_residue", "build_henon_heiles",
    "build_series", "c1_fourth_power", "candidate_C_values", "certify",
    "classify", "compatibility_defect", "convergence", "default_precision",
    "determinant", "energy", "energy_series", "enumerate_branches", "errors",
    "f_minus1_squared", "find_dominant_balances", "fit", "integrate",
    "integrate_numeric", "laurent", "leading_x_coefficient", "linalg",
    "mobius_squared_series", "model", "nth_root", "painleve",
    "recurrence_determinant", "reduce_to_fourth_order", "residual_of_series",
    "residue_pairing", "resonances", "scalars", "series",
    "set_default_precision", "singular_step_indices", "solve_linear",
    "state_from_series", "step_recurrence", "subequation",
    "transform_quartic", "weierstrass_p_series",
}

MODULES = sorted(p for p in Path(painleve_hh.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def test_public_names_are_pinned():
    assert len(PUBLIC) == 68
    assert set(painleve_hh.__all__) == PUBLIC
    assert len(painleve_hh.__all__) == len(PUBLIC)


def _unread_imports(tree):
    """The names a module imports (but from __future__) and never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0]
                         for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - read


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert _unread_imports(ast.parse(path.read_text())) == set()


def test_an_unread_import_is_seen():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os\nfrom math import pi, tau as t\nprint(pi)\n")
    assert _unread_imports(tree) == {"os", "t"}
