"""Run the library's docstring examples as tests.

Keeps the documentation honest: every ``>>>`` example in the listed
modules (and the package-level quickstart) must execute and produce the
shown output.
"""

import doctest

import pytest

import repro
import repro.core.quality
import repro.core.revenue
import repro.flow.bipartite
import repro.flow.graph
import repro.spatial.grid
import repro.utils.timer

MODULES = [
    repro,
    repro.core.quality,
    repro.core.revenue,
    repro.flow.bipartite,
    repro.flow.graph,
    repro.spatial.grid,
    repro.utils.timer,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failures in {module.__name__}"
    # Every module in this list is expected to actually contain examples.
    assert result.attempted > 0, f"no doctests found in {module.__name__}"
