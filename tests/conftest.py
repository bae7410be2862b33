"""Suite-wide Hypothesis settings: a failing property prints its blob.

The blob is the `@reproduce_failure(...)` line that replays the failing
draw exactly, on any machine and without the local example database.
Draws stay random from run to run (the profile does not derandomize), so
each run of the suite explores new draws while a failure stays
reproducible from its log.
"""

from hypothesis import settings

settings.register_profile("treepursuit", print_blob=True)
settings.load_profile("treepursuit")
