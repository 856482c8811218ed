import sys
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# print_blob alone: a failing property test prints its @reproduce_failure blob,
# so a failure in a test log can be replayed exactly
settings.register_profile("resbeam", print_blob=True)
settings.load_profile("resbeam")

from resbeam import CavityGeometry, explorer, reference_defaults


def forced(path: str):
    """A context in which every grid runs on one path, "rows" or "columns".

    explorer._tabulate picks columns where numpy is loaded, as it always is
    here; the driver of the path named stands in for both.  A driver only
    evaluates the rules, and _tabulate joins the flags and zeroes overflowed rows
    for both, so a forced path still runs that assembly.
    """
    body = getattr(explorer, f"_by_{path}")
    return patch.multiple(explorer, _by_rows=body, _by_columns=body)


@pytest.fixture
def default_params():
    return reference_defaults()


@pytest.fixture
def default_geometry(default_params) -> CavityGeometry:
    return default_params.geometry
