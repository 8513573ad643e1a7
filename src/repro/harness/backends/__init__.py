"""Pluggable execution backends for the experiment engine.

One seam, two strategies::

                 Backend (map / stream / close)
                               │
              ┌────────────────┴────────────────┐
        SerialBackend                    ProcessPoolBackend
        (in-process, reference,          (multiprocessing, CPU-bound
         fail-fast)                       scaling, graceful lifecycle)

Every experiment surface — :class:`~repro.harness.parallel.ExperimentEngine`,
``run_matrix``/``run_stream``, the Monte-Carlo estimators, the benches, and
``repro sweep --backend`` — executes through this seam, and both backends
keep the same hard guarantee: **bit-identical results in submission order
for identical specs**, because per-trial seeds are counter-derived
(scheduling-independent) and collection order is submission order.
Choosing a backend is purely a performance decision; see the
backend-selection guide in :mod:`repro.harness`.

:func:`make_backend` resolves a registry name (``serial`` / ``pool``) to a
configured instance; ``workers="auto"`` resolves to the machine's core
count.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Union

from .base import (
    STREAM_CHUNK,
    Backend,
    TrialError,
    TrialSpec,
    derive_seed,
    resolve_workers,
    spawn_seeds,
    workers_from_env,
)
from .pool import ProcessPoolBackend
from .serial import SerialBackend

__all__ = [
    "BACKENDS",
    "Backend",
    "ProcessPoolBackend",
    "STREAM_CHUNK",
    "SerialBackend",
    "TrialError",
    "TrialSpec",
    "backend_from_env",
    "derive_seed",
    "list_backends",
    "make_backend",
    "resolve_workers",
    "spawn_seeds",
    "workers_from_env",
]

#: Registry name → backend class.  The CLI's ``--backend`` choices and the
#: benches' ``REPRO_BENCH_BACKEND`` values come from here.
BACKENDS: Dict[str, type] = {
    SerialBackend.name: SerialBackend,
    ProcessPoolBackend.name: ProcessPoolBackend,
}


def list_backends() -> list:
    """All registered backend names, in presentation order."""
    return list(BACKENDS)


def make_backend(
    name: Optional[str],
    workers: Union[int, str] = 0,
    chunk_size: Optional[int] = None,
) -> Backend:
    """Build a configured backend from a registry name.

    ``name=None`` picks the historical default: serial for ``workers <= 1``,
    a process pool otherwise — so existing ``workers=k`` call sites keep
    their exact behavior.  ``workers="auto"`` (or ``0`` with an explicitly
    concurrent backend) resolves to the core count.  ``chunk_size`` applies
    to the pool backend; the serial backend ignores it.
    """
    workers = resolve_workers(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if name is None:
        name = "pool" if workers > 1 else "serial"
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; registered: {', '.join(BACKENDS)}"
        ) from None
    if cls is SerialBackend:
        return SerialBackend()
    # An explicitly concurrent backend with no worker count saturates the
    # hardware — the CLI's `--backend pool` without `--workers` case.
    if workers < 1:
        workers = resolve_workers("auto")
    return ProcessPoolBackend(workers=workers, chunk_size=chunk_size)


def backend_from_env(
    var: str = "REPRO_BACKEND", default: Optional[str] = None
) -> Optional[str]:
    """Backend name from an environment variable; unknown values → default.

    Shared by the benches (``REPRO_BENCH_BACKEND``) so the parsing rule
    lives in one place: an unregistered name falls back to ``default``
    rather than crashing at import time.
    """
    raw = os.environ.get(var)
    if raw is None:
        return default
    name = raw.strip().lower()
    return name if name in BACKENDS else default
