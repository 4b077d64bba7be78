"""Shared test settings.

``HYPOTHESIS_PROFILE=ci`` loads the ``ci`` profile: no deadlines, and every
failing example prints its ``@reproduce_failure`` blob, so a failure seen
only in CI can be replayed locally.
"""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
