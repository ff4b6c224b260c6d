"""Exception types shared across the package.

The CLI maps these onto exit codes: InputError -> 1, CapabilityError -> 2.
"""

__all__ = ["InputError", "CapabilityError"]


class InputError(ValueError):
    """Malformed or out-of-contract input (bad vertex id, bad file, bad flag)."""


class CapabilityError(RuntimeError):
    """The request is well-formed but outside what this build can compute
    exactly (e.g. subset-DP oracles above their size cutoffs)."""
