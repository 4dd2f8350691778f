"""Backend selection and the runtime kernel toggle.

The array backend is chosen **once at import time**: numpy when it is
importable, else the stdlib ``array('d')`` fallback. The micro bench
and the parity tests compare both backends inside one process through
the explicit ``backend=`` parameter of
:class:`~repro.kernels.rect_array.RectArray`.

Whether call sites *use* the kernels at all is a separate, per-call
decision: :func:`kernels_enabled` reads the ``REPRO_KERNELS``
environment variable on every call (default: enabled). Reading the
environment per call instead of caching it in a module flag keeps this
module free of mutable state (RPR005) and lets the differential tests
flip kernels on and off with ``monkeypatch.setenv`` — the hot paths
cache the answer once per join run, so the per-call cost never lands in
an inner loop.
"""

from __future__ import annotations

import os
from typing import Any

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as _numpy
except ImportError:  # pragma: no cover - numpy is present in CI images
    _numpy = None  # type: ignore[assignment]

np: Any = _numpy

HAVE_NUMPY = np is not None

#: The backend selected at import time: ``"numpy"`` or ``"python"``.
BACKEND = "numpy" if np is not None else "python"

_DISABLED_VALUES = ("0", "false", "no", "off")


def kernels_enabled() -> bool:
    """Whether the vectorized kernels are enabled for this call.

    Controlled by ``REPRO_KERNELS`` (default: enabled). Any of ``0``,
    ``false``, ``no``, ``off`` (case-insensitive) disables the kernels,
    falling back to the scalar reference path everywhere.
    """
    value = os.environ.get("REPRO_KERNELS")
    if value is None or value == "1":
        # Fast path for the two overwhelmingly common states: unset and
        # the bench harness's explicit "1".
        return True
    return value.strip().lower() not in _DISABLED_VALUES


def batch_enabled() -> bool:
    """Whether the batch-first traversal layer is enabled for this call.

    Controlled by ``REPRO_BATCH`` (default: enabled), read per call for
    the same reasons as :func:`kernels_enabled`. This is a *narrower*
    switch than ``REPRO_KERNELS``: it gates only the columnar
    node-store traversal plans (:mod:`repro.kernels.node_store`), so
    the differential harness can compare scalar control flow against
    batch control flow while the per-node kernels stay on. The batch
    path additionally requires numpy and ``REPRO_KERNELS`` itself —
    callers combine the three via their dispatch helpers.
    """
    value = os.environ.get("REPRO_BATCH")
    if value is None or value == "1":
        return True
    return value.strip().lower() not in _DISABLED_VALUES
