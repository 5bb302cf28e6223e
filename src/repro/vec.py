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

#: Settings :func:`resolve_vector_backend` accepts.
VECTOR_BACKENDS = ("auto", "numpy", "python")


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
    """Resolve a backend setting to ``"numpy"`` or ``"python"``.

    ``auto`` (what Phase 3 asks for) picks numpy when importable and not
    disabled, else the stdlib loops.  Requesting ``numpy`` explicitly
    raises :class:`~repro.errors.ConfigError` when it cannot be honored,
    rather than silently degrading.
    """
    if setting not in VECTOR_BACKENDS:
        raise ConfigError(
            f"vector backend must be one of {VECTOR_BACKENDS}, got {setting!r}"
        )
    if setting == "python":
        return "python"
    numpy = get_numpy()
    if numpy is not None:
        return "numpy"
    if setting == "numpy":
        raise ConfigError(
            "vector backend 'numpy' requested but numpy is not importable "
            f"(or disabled via {NO_NUMPY_ENV}); install the 'perf' extra"
        )
    return "python"
