"""Exception hierarchy and the one failure rule shared by all gqbm modules.

Each failure class carries its CLI exit code as exit_code: one code for bad
input or misuse, one for dynamics that blew up, one for a tripped quality
monitor.  Every monitor checks its values through guard(), which names the
first failing step and time, so a failure is reported where it starts.
"""

import numpy as np


class GqbmError(Exception):
    """Base class for all package errors; a subclass sets its exit code."""
    exit_code = 1


class ValidationError(GqbmError, ValueError):
    """Invalid parameter values or malformed configuration."""
    exit_code = 2


class ContractViolationError(GqbmError, ValueError):
    """An operation was called with inputs that break its preconditions."""
    exit_code = 2


class InstabilityError(GqbmError, RuntimeError):
    """The propagated solution grew beyond a physical bound."""
    exit_code = 3


class SingularityError(GqbmError, RuntimeError):
    """A matrix inversion hit an ill-conditioned propagator."""
    exit_code = 3


class NumericalQualityError(GqbmError, RuntimeError):
    """An internal consistency monitor (e.g. commutator drift) tripped."""
    exit_code = 4


class QuadratureConvergenceError(GqbmError, RuntimeError):
    """A frequency-integral rule failed its refinement or roundoff check."""
    exit_code = 4


def guard(values, bound: float, error: type, label: str, times=None,
          first: int | None = None) -> float:
    """The largest of values, each of which must be finite and <= bound.

    values is a scalar or a series over steps first, first + 1, ... at
    times[0], times[1], ...  The first entry that is NaN, infinite or past
    the bound raises error, naming its step if first is given and its time
    if times is.
    """
    vals = np.asarray(values, dtype=float)
    bad = ~np.isfinite(vals) | (vals > bound)
    if bad.any():
        j = int(np.argmax(bad))
        where = "" if first is None else f" at step {first + j}"
        if times is not None:
            where += f" at t = {np.ravel(times)[j]:.6g}"
        raise error(f"{label} reached {vals.flat[j]:.3e}{where} against the "
                    f"bound {bound:.1e}")
    return float(vals.max(initial=-np.inf))
