import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# print_blob alone: a failing property test prints its @reproduce_failure blob,
# so a failure in a test log can be replayed exactly
settings.register_profile("resbeam", print_blob=True)
settings.load_profile("resbeam")

from resbeam import CavityGeometry, reference_defaults


@pytest.fixture
def default_params():
    return reference_defaults()


@pytest.fixture
def default_geometry(default_params) -> CavityGeometry:
    return default_params.geometry
