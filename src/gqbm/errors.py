"""Exception hierarchy and the rules every gqbm check goes through.

Each failure category is one class, which carries its CLI exit code as
exit_code: ValidationError (2) for bad input or misuse, InstabilityError (3)
for dynamics that blew up or a singular propagator, NumericalQualityError
(4) for a tripped quality monitor.  An input is checked at the library
boundary, before any work starts, by require (finite and in its domain),
require_vectors (finite 1-d real arrays of one length), require_count (an
integer of at least its minimum) or require_budget (the memory it needs
fits MEMORY_BUDGET_BYTES).  A monitor checks a computed series through
guard(), which names the first failing step and time, so a failure is
reported where it starts.
"""

import cmath
import math
import operator

import numpy as np

# The one memory budget: no table or store may need more.
MEMORY_BUDGET_BYTES = 1 << 30

# The domains of require, each tested elementwise on an array (NaN fails
# every comparison).  Each implies finite; the ordered ones take reals.
_DOMAINS = {
    "finite": np.isfinite,
    "> 0": lambda x: (x > 0.0) & (x < math.inf),
    ">= 0": lambda x: (x >= 0.0) & (x < math.inf),
    "in [0, 1]": lambda x: (x >= 0.0) & (x <= 1.0),
}


class GqbmError(Exception):
    """Base class for all package errors; a subclass sets its exit code."""
    exit_code = 1


class ValidationError(GqbmError, ValueError):
    """Invalid parameter values, malformed configuration, or an operation
    called with inputs that break its preconditions."""
    exit_code = 2


class InstabilityError(GqbmError, RuntimeError):
    """The propagated solution grew beyond a physical bound, or a matrix
    inversion hit an ill-conditioned propagator."""
    exit_code = 3


class NumericalQualityError(GqbmError, RuntimeError):
    """An internal consistency monitor tripped: e.g. commutator drift, a
    tabulated transform's roundoff guard, or the Gauss-Legendre Newton
    sweeps."""
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


def require(name: str, value, domain: str = "finite"):
    """value, a scalar or an array, real or complex, if it lies in domain;
    else a ValidationError naming the quantity and its first entry outside.
    A Python scalar skips numpy, which costs about twenty times as much."""
    if isinstance(value, (int, float, complex)):
        if cmath.isfinite(value) if domain == "finite" else _DOMAINS[domain](value):
            return value
        where = ""
    else:
        inside = _DOMAINS[domain](value)
        if np.all(inside):
            return value
        j = int(np.argmin(inside))
        value = np.ravel(value)[j]
        where = f" at entry {j}" if np.ndim(inside) else ""
    also = "" if domain == "finite" else " and finite"
    raise ValidationError(f"{name} must be {domain}{also}, got {value}{where}")


def require_vectors(owner, *names: str) -> None:
    """Set each named attribute of owner to its array as floats, if each is
    a finite 1-d array of reals and all have one length; else a
    ValidationError naming them."""
    for name in names:
        vec = np.asarray(getattr(owner, name))
        if vec.ndim != 1 or vec.dtype.kind not in "iuf":
            raise ValidationError(f"{name} must be a 1-d array of reals, got "
                                  f"shape {vec.shape} of {vec.dtype}")
        setattr(owner, name, require(name, vec).astype(float, copy=False))
    sizes = {name: getattr(owner, name).size for name in names}
    if len(set(sizes.values())) > 1:
        raise ValidationError(f"{', '.join(names)} must have one length, got "
                              + ", ".join(f"{k} {n}" for k, n in sizes.items()))


def require_count(name: str, value, minimum: int) -> int:
    """value as an int: an integer (Python or numpy) of at least minimum."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {count}")
    return count


def require_budget(who: str, need_bytes: float, what: str):
    """Reject, before allocation, work that needs more than the budget."""
    if need_bytes > MEMORY_BUDGET_BYTES:
        raise ValidationError(
            f"{who} needs {need_bytes / 2**30:.2f} GiB of {what}, above the "
            f"{MEMORY_BUDGET_BYTES / 2**30:.2f} GiB budget (MEMORY_BUDGET_BYTES)")
