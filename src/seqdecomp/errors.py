"""Exception types shared across the package."""


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
