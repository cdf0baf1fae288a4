"""Test-wide settings.

Property tests draw their examples from a fixed derandomized profile, so
every run tries the same inputs and a failure reproduces. Each test keeps
its own `max_examples`.
"""

from hypothesis import settings

settings.register_profile("robustchow", derandomize=True, deadline=None)
settings.load_profile("robustchow")
