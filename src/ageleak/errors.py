"""Exception hierarchy for ageleak, and the rules every outside value passes.

Everything raised on bad inputs or infeasible requests derives from
:class:`AgeLeakError`, so callers (and the CLI) can distinguish validation
failures from genuine numerical non-convergence (:class:`ConvergenceFailure`).
The input rules at the end decide what a valid whole number, seed,
probability, finite number and JSON object are; each public entry point
applies one rule per value it takes, with the error class it raises.
"""

import numbers
import sys


class AgeLeakError(Exception):
    """Base class for all ageleak errors."""


# --- probability mass function construction -------------------------------

class PmfError(AgeLeakError, ValueError):
    """Invalid finite pmf specification."""


class NegativeProbability(PmfError):
    pass


class UnnormalizedMass(PmfError):
    pass


class NonPositiveDuration(PmfError):
    pass


class DuplicateDuration(PmfError):
    pass


class TailTooHeavy(PmfError):
    """Geometric truncation would fold more than the allowed tail mass."""


# --- parameter validation ---------------------------------------------------

class InvalidBeta(AgeLeakError, ValueError):
    pass


class InvalidLambda(AgeLeakError, ValueError):
    pass


class InvalidTau(AgeLeakError, ValueError):
    pass


class InvalidRate(AgeLeakError, ValueError):
    pass


class NonHalfIntegerTau(AgeLeakError, ValueError):
    """Uniform inter-dump times need 2*tau - 1 to be a positive integer."""


class ZeroRate(AgeLeakError, ValueError):
    pass


class Unstable(AgeLeakError):
    """FCFS queue would have unbounded backlog at this load."""


class NoFeasibleAlpha(AgeLeakError):
    """No admission probability stabilizes the FCFS queue."""


# --- numerical / resource limits --------------------------------------------

class ConvergenceFailure(AgeLeakError):
    """Root finding did not reach the requested residual."""


class HorizonTooLarge(AgeLeakError):
    """Brute-force enumeration refuses horizons beyond its hard cap."""


class InvalidConfig(AgeLeakError, ValueError):
    """Malformed simulation configuration."""


# --- trade-off assembly -----------------------------------------------------

class BaselinePoint(AgeLeakError):
    """Efficiency is undefined at the zero-delay baseline."""


class NoOverlap(AgeLeakError):
    """Two trade-off series share no common age range."""


class TooFewPoints(AgeLeakError):
    pass


# --- input rules --------------------------------------------------------------
#
# A value passes a rule normalised to int or float, or the caller's error
# class refuses it: never a bool or a str, never rounded or truncated.

def _is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_int(value, what, error, low=0):
    """``value`` as an int >= ``low``: an int, or an integral float as JSON gives it."""
    integral = isinstance(value, float) and value.is_integer() or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )
    if integral and value >= low:
        return int(value)
    raise error(f"{what} {value!r} is not an integer >= {low}")


def _as_seed(value):
    """``value`` as a seed below 2^32, one word of SeedSequence entropy.

    A larger seed s + 2^32 r would split into (s, r), role r's key for seed s.
    """
    seed = _as_int(value, "seed", InvalidConfig)
    if seed >= 1 << 32:
        raise InvalidConfig(f"seed {seed} is not below 2**32")
    return seed


def _as_probability(value, what, error):
    """``value`` as a float in (0, 1]."""
    if _is_real(value) and 0.0 < value <= 1.0:
        return float(value)
    raise error(f"{what} {value!r} outside (0, 1]")


def _as_finite(value, what, error, low):
    """``value`` as a finite float >= ``low``."""
    if _is_real(value) and low <= value <= sys.float_info.max:
        return float(value)
    raise error(f"{what} {value!r} is not a finite number >= {low}")


def _as_dict(value, what):
    """``value`` if it is a JSON object (a dict), else :class:`InvalidConfig`."""
    if isinstance(value, dict):
        return value
    raise InvalidConfig(f"{what} is a JSON {type(value).__name__}, not an object")
