"""Exception taxonomy shared by all modules."""
import numbers


class SimulationError(Exception):
    """Base class for all library errors."""


class ConfigError(SimulationError, ValueError):
    """Invalid or inconsistent configuration."""


class InvalidLength(SimulationError, ValueError):
    """A sequence does not have the length the operation requires."""


class InvalidIndex(SimulationError, IndexError):
    """Index outside the valid range of the transform geometry."""


class InvalidChannel(SimulationError, ValueError):
    """Channel taps incompatible with the frame they are applied to."""


class DopplerPresent(SimulationError, ValueError):
    """A delay-only operation was given a channel with Doppler taps."""


class PilotContaminated(SimulationError, ValueError):
    """Clean-pilot estimation requested on a frame whose pilot shares
    resources with data."""


class DegeneratePilot(SimulationError, ValueError):
    """Pilot observation too weak to divide by."""


class GuardViolation(SimulationError, ValueError):
    """Channel shifts exceed the affine-domain guard."""


class UnresolvableDoppler(SimulationError, ValueError):
    """A pilot peak cannot be split into (delay, Doppler) because the
    Doppler range exceeds the chirp spreading factor."""


class SingularChannel(SimulationError, ValueError):
    """Zero-forcing requested on a (near-)zero channel coefficient."""


def _refuse_non_integers(error: type[SimulationError], **values) -> None:
    """Raise ``error`` at the first of ``values`` that is no integer (numpy's are, bools not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise error(f"{name} must be an integer, got {value!r}")


def _refuse_non_numbers(error: type[SimulationError], kind: type = numbers.Real,
                        **values) -> None:
    """Raise ``error`` at the first of ``values`` that is no ``kind`` of number, a real
    one by default (numpy's are, bools and strings not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, kind):
            raise error(f"{name} must be a {kind.__name__.lower()} number, got {value!r}")
