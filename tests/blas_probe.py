"""Probes of the OpenBLAS thread counts, for the process-pool tests.

``blas_threads_job`` and ``sparse_stack_job`` stand in for
``harness._run_trial_job`` so that a sweep's jobs report on their own
process instead of running trials.
"""

import ctypes
import sys
from types import SimpleNamespace

from hypersbm import harness


def blas_thread_counts() -> dict:
    """Path -> current thread count of each OpenBLAS library loaded here."""
    counts = {}
    for lib in harness._loaded_openblas():
        for symbol in harness._OPENBLAS_SET_THREADS:
            getter = getattr(lib, symbol.replace("_set_", "_get_"), None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                counts[lib._name] = getter()
                break
    return counts


def blas_threads_job(args):
    # eta_final is what phase_sweep aggregates; None counts as no recovery
    return SimpleNamespace(eta_final=None, threads=blas_thread_counts())


def sparse_stack_job(args):
    """Whether the sparse stack was loaded before this job began; then the
    thread counts once it is loaded, as a trial would load it."""
    loaded = "scipy.sparse.linalg" in sys.modules
    import scipy.sparse.linalg  # noqa: F401
    return SimpleNamespace(eta_final=None, loaded=loaded, threads=blas_thread_counts())
