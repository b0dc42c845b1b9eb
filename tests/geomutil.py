"""Shared helpers for geometry tests."""
from stripflow.properties import random_null_homotopic_loop  # noqa: F401
