"""Errors raised by sampling, spectral, and pipeline stages.

Plain ``ValueError`` is used for ordinary argument validation; the classes
here mark conditions callers may want to catch and handle (the experiment
harness records them per trial instead of aborting a sweep).
"""


class ConvergenceError(RuntimeError):
    """Iterative eigensolver failed: no convergence within its budget, or an ARPACK error."""


class DegenerateDegreeError(ValueError):
    """Degrees too small for a degree-based formula (e.g. mean degree <= 1)."""


class InsufficientSampleError(ValueError):
    """Fewer candidate centers than communities during initialization."""
