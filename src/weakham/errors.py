"""Exception types shared across the package.

The CLI maps these onto exit codes: InputError -> 1, CapabilityError -> 2.
"""


class InputError(ValueError):
    """Malformed or out-of-contract input (bad vertex id, bad file, bad flag)."""


class CapabilityError(RuntimeError):
    """The request is well-formed but outside what this build can compute
    exactly (e.g. subset-DP oracles above their size cutoffs)."""


class ScheduleInfeasibleError(InputError):
    """A sprinkling schedule whose inequality chain fails at the given n.

    Carries the name of the first violated inequality in ``failed``.
    """

    def __init__(self, failed: str, detail: str = ""):
        self.failed = failed
        self.detail = detail
        msg = f"schedule infeasible: {failed} violated"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)

    def __reduce__(self):
        # the default rebuilds from args, i.e. from the formatted message
        return type(self), (self.failed, self.detail)
