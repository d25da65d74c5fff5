"""Deterministic hypothesis settings for the property tests: every run
replays the same examples, no example database is written, and no
per-example deadline applies (exact arithmetic on a loaded host varies
widely in wall time)."""

from hypothesis import settings

settings.register_profile("pengeom", derandomize=True, deadline=None, max_examples=40, database=None)
settings.load_profile("pengeom")
