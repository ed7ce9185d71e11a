import ast
import os

import pytest
from hypothesis import settings

from painleve_hh import PuiseuxSeries, set_default_precision
from painleve_hh.scalars import ScaledInts, cauchy_sum, rounded_sum
from painleve_hh.series import combine

settings.register_profile("fast", max_examples=30, deadline=None)
settings.register_profile("ci", max_examples=500, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fast"))


@pytest.fixture(autouse=True)
def _fixed_precision():
    previous = set_default_precision(256)
    yield
    set_default_precision(previous)


def cauchy(a, b, n):
    """Coefficient n of the product of a and b, rounded once; lists of
    Scalars are converted to ScaledInts here, a square (a is b) once."""
    if not isinstance(a, ScaledInts):
        square, a = a is b, ScaledInts(a)
        b = a if square else ScaledInts(b, a.slope)
    return rounded_sum(cauchy_sum(a, b, n))


def residual_series(ansatz, y: PuiseuxSeries) -> PuiseuxSeries:
    """sum h_jk y^j (y')^k for the SubequationAnsatz ansatz."""
    return combine([(c, y.pow_int(j), y.differentiate().pow_int(k))
                    for (j, k), c in ansatz.nonzero().items()], y.center)


def package_imports(tree):
    """(module, name) for each name imported from a painleve_hh module;
    (module, None) for a whole module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("painleve_hh."):
                    yield alias.name.split(".")[1], None
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "painleve_hh":
                    continue
                module = module[len("painleve_hh"):].lstrip(".")
            for alias in node.names:
                yield (module, alias.name) if module else (alias.name, None)
