"""The program names the benchmark in perfbench/ relies on.

perfbench imports some functions from the package and names its
per-layer metrics after the spans of others: a span is named
"<module>.<function>" after the module that defines the function.  A
rename, a move or a deletion of one of these names would make a
benchmark job fail or silently zero its metric, so each is pinned here.
"""

import importlib

import pytest

import hydrogrid

IMPORTED = ["alpha_inner", "ansatz_constraint_system",
            "solve_constraint_system", "build_truncated",
            "point_spectrum_above"]

SPANNED = ["pollaczek.pollaczek_mass_closed", "pollaczek.pollaczek_seq",
           "coordinate.wavefunction", "coordinate.difference_residual",
           "coordinate.alpha_inner", "coordinate.solve_constraint_system",
           "spectral.inner_product", "spectral.sturm_count",
           "spectral.eigen_residual", "numerics.surd_pow",
           "numerics.surd_to_float", "cli.run", "verify.run_verification"]


@pytest.mark.parametrize("name", IMPORTED)
def test_imported_name_exists(name):
    assert callable(getattr(hydrogrid, name))


def test_alpha_table_assembled_exists():
    table = hydrogrid.alpha_inner(2, 1)
    assert table.assembled(1, 1) == hydrogrid.eigen_data(2, 1).mu


@pytest.mark.parametrize("span", SPANNED)
def test_spanned_function_is_defined_in_its_module(span):
    module_name, attr = span.split(".")
    module = importlib.import_module(f"hydrogrid.{module_name}")
    fn = getattr(module, attr)
    assert callable(fn)
    assert fn.__module__ == module.__name__
