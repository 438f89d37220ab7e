"""Shared test settings."""

from hypothesis import settings

# How long one example takes varies with the host's load (by up to 1.7x
# between runs on a shared machine), so a per-example deadline fails
# property tests at random. Every property test runs without one.
settings.register_profile("steptrack", deadline=None)
settings.load_profile("steptrack")
