"""Exception types shared across the package."""


class ZgError(Exception):
    """Base class for all errors raised by this package."""


class NotAGroup(ZgError):
    def __init__(self, reason, witness=None):
        self.reason = reason
        self.witness = witness
        msg = reason if witness is None else f"{reason}; witness={witness}"
        super().__init__(msg)


class CapExceeded(ZgError):
    pass


class InconsistentPresentation(ZgError):
    pass


class NotNormal(ZgError):
    pass


class NotSubnormal(ZgError):
    pass


class NotSubgroup(ZgError):
    pass


class NotSolvable(ZgError):
    pass


class GroupMismatch(ZgError):
    pass


class NotInvertible(ZgError):
    pass


class BadCongruence(ZgError):
    pass


class NotIdempotent(ZgError):
    pass


class NotCentral(ZgError):
    pass


class NotShodaPair(ZgError):
    pass


class NotStrongInductiveChain(ZgError):
    pass


class PreconditionFailed(ZgError):
    def __init__(self, clause):
        self.clause = clause
        super().__init__(f"precondition failed: {clause}")


class IncompleteSet(ZgError):
    pass


class DivisibilityViolation(ZgError):
    pass


class InternalBoundExceeded(ZgError):
    pass
