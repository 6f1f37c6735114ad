"""Exact-arithmetic smoothing-obstruction checks for ghost components of
stable maps, with a symbolic verifier for the resolved local model.

Library callers import from the modules, e.g. ``ghostcheck.obstruction``."""

__version__ = "0.1.0"
