"""Exception types shared across the package."""


class NoActiveLinks(RuntimeError):
    """No Tx-Rx panel pair has line of sight in the given scene."""


class NoBracket(RuntimeError):
    """A requirement-crossing search found no sign change in the range.

    ``met_everywhere`` is True when the bound satisfies the requirement over
    the whole searched range, False when it satisfies it nowhere.
    """

    def __init__(self, message: str, met_everywhere: bool):
        super().__init__(message)
        self.met_everywhere = met_everywhere


class ConfigError(ValueError):
    """Run configuration failed validation."""
