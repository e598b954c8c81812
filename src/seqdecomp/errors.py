"""Exception types shared across the package, and the frozen base of the
types that hold arrays."""


class ContractViolationError(ValueError):
    """An input failed a documented precondition or invariant."""


class NumericFailureError(RuntimeError):
    """An underlying numerical routine failed to converge or lost precision."""


class NotImplementableError(RuntimeError):
    """Requested step synthesis for an operator that admits none.

    The diagnostic :class:`~seqdecomp.sequencer.SequentialityReport` is
    attached as ``.report``.
    """

    def __init__(self, report):
        worst = max(report.per_site_residuals)
        super().__init__(
            "operator admits no single-pass sequential decomposition "
            f"(worst criterion residual {worst:.3e})"
        )
        self.report = report


class Frozen:
    """Base of the types that hold arrays: an instance refuses every
    assignment and deletion of an attribute, and compares and hashes by
    identity.  A subclass's ``__init__`` sets its attributes through
    ``self.__dict__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
