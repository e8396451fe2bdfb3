"""Probes of the OpenBLAS thread counts, for the process-pool tests.

``blas_threads_job``, ``sparse_stack_job`` and ``os_threads_job`` stand in for
``harness._run_trial_job`` so that a sweep's jobs report on their own
process instead of running trials.
"""

import os
import sys
from types import SimpleNamespace

import numpy as np

from hypersbm import harness


def blas_thread_counts() -> dict:
    """Path -> current thread count of each OpenBLAS library loaded here."""
    return {path: getter() for path, getter, _ in harness._loaded_openblas()}


def blas_threads_job(args):
    # eta_final is what phase_sweep aggregates; None counts as no recovery
    return SimpleNamespace(eta_final=None, threads=blas_thread_counts())


def sparse_stack_job(args):
    """Whether the sparse stack was loaded before this job began; then the
    thread counts once it is loaded, as a trial would load it."""
    loaded = "scipy.sparse.linalg" in sys.modules
    import scipy.sparse.linalg  # noqa: F401
    return SimpleNamespace(eta_final=None, loaded=loaded, threads=blas_thread_counts())


def os_threads_job(args):
    """The OS threads of this process after a dense product large enough
    for OpenBLAS to split across its threads, if it has more than one."""
    a = np.ones((300, 300))
    a @ a
    return SimpleNamespace(eta_final=None, os_threads=len(os.listdir("/proc/self/task")))
