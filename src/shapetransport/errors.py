"""Exception hierarchy for the shape-space geometry and benchmark code."""

from contextlib import contextmanager


class ShapeSpaceError(Exception):
    """Base class for all numerical/geometric failures in this package."""


class RankDeficient(ShapeSpaceError):
    """Configuration rank < m-1: the Sylvester system has no unique solution."""


class AmbiguousAlignment(ShapeSpaceError):
    """Optimal rotation between two pre-shapes is not unique."""


class AntipodalPoints(ShapeSpaceError):
    """Log map requested at (or too close to) the cut locus."""


class DegenerateConfiguration(ShapeSpaceError):
    """All landmarks coincide; no pre-shape projection exists."""


class SamplingFailed(ShapeSpaceError):
    """Random problem generation did not produce a valid sample."""


class InsufficientData(ShapeSpaceError):
    """Too few usable records to estimate a convergence order or to plot."""


class ReferenceInconsistent(ShapeSpaceError):
    """Reference transport at n_ref and 2*n_ref disagree; run aborted."""


class IoFailure(ShapeSpaceError):
    """File input/output failed; message carries the offending path."""


@contextmanager
def io_failure(path):
    """Re-raise an OSError or a parse ValueError inside the block as an
    IoFailure that names ``path``."""
    try:
        yield
    except (OSError, ValueError) as err:
        raise IoFailure(f"{path}: {err}") from err
