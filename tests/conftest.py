"""Hypothesis settings shared by the test modules.

When the ``CI`` environment variable is set, as hosted runners set it, the
property tests draw their examples deterministically, so a failure on a
runner replays locally with ``CI=true python -m pytest``.  Otherwise they
keep drawing fresh examples on every run.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
