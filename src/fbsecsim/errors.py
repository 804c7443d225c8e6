"""Exception hierarchy shared across the simulator."""


class SimError(Exception):
    """Base class for all simulator errors."""


class DuplicateIdError(SimError):
    pass


class UnknownPortError(SimError):
    pass


class KindMismatchError(SimError):
    pass


class VariantMismatchError(SimError):
    pass


class DataInConnectedError(SimError):
    """Second data connection into an already-connected data input."""


class BehaviorFault(SimError):
    """A behavior emitted a port it does not declare; dispatch rolled back."""


class EventBudgetExceeded(SimError):
    """Scheduler processed more events than the configured budget allows."""


class MalformedPayload(SimError):
    def __init__(self, offset: int, reason: str):
        super().__init__(f"malformed payload at offset {offset}: {reason}")
        self.offset = offset
        self.reason = reason


class StringTooLong(SimError):
    pass


class RuleSyntaxError(SimError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ConfigError(SimError):
    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason
