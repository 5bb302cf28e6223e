"""Optional numpy acceleration with a byte-identical stdlib fallback.

The hot Phase 3 bound kernel (:mod:`repro.core.bounds`) is written
twice: an array-native numpy fast path and a pure-Python loop.  This
module owns the choice between them, which is automatic — there is no
config knob:

* numpy is an *optional* dependency (the ``perf`` extra) — nothing in
  the package imports it unconditionally, and Phase 3 uses it whenever
  it is importable;
* the environment variable :data:`NO_NUMPY_ENV` forces the stdlib path
  even when numpy is installed (CI runs a leg with it set to keep the
  fallback honest).

The contract both paths satisfy: *decision-identical* results.  Kernels
may use vectorized arithmetic internally, but any comparison whose
floating-point rounding could differ from the scalar code must be
re-checked with the exact scalar expression (see the guard-band pattern
in :func:`repro.core.bounds.elb_far_mask`), so clusters and every
determinism counter are byte-identical with and without numpy.
"""

from __future__ import annotations

import os

from .errors import ConfigError

#: Set (to any non-empty value) to pretend numpy is not installed.
NO_NUMPY_ENV = "REPRO_NO_NUMPY"


def get_numpy():
    """The numpy module, or ``None`` when absent or disabled.

    Honors :data:`NO_NUMPY_ENV` so tests and CI can exercise the stdlib
    fallback on machines that do have numpy installed.
    """
    if os.environ.get(NO_NUMPY_ENV):
        return None
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def resolve_vector_backend(setting: str = "auto") -> str:
    """The backend Phase 3's bound kernel runs: ``"numpy"`` or ``"python"``.

    numpy when importable and not disabled via :data:`NO_NUMPY_ENV`,
    else the stdlib loops.  ``"auto"`` is the only setting; any other
    raises :class:`~repro.errors.ConfigError` (both paths decide alike,
    so there is nothing to choose).
    """
    if setting != "auto":
        raise ConfigError(f"vector backend must be 'auto', got {setting!r}")
    return "python" if get_numpy() is None else "numpy"
