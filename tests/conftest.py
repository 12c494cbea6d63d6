import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from hypothesis import settings

# `pytest --hypothesis-profile=differential tests/test_differential.py` runs
# the differential guard at the size CI gives it.
settings.register_profile("differential", max_examples=3000, deadline=None)
