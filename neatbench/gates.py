"""Correctness gates: a run whose outputs are wrong produces no numbers.

Every gate raises :class:`GateFailed` carrying a stable gate name; the
runner turns it into ``"correct": false`` and prints the name.
"""

from __future__ import annotations

import hashlib
import marshal
from typing import Any

# Called through their modules so the traced run's wrappers see the calls.
from repro.core import serialize, validate


class GateFailed(AssertionError):
    """A correctness gate failed; ``gate`` names which one."""

    def __init__(self, gate: str, detail: str) -> None:
        super().__init__(f"{gate}: {detail}")
        self.gate = gate


def document_digest(document: dict[str, Any]) -> str:
    """SHA-256 of a result document's exact contents.

    ``result_to_dict`` builds its dicts in a fixed key order, so the
    marshal encoding is canonical for equal documents.  Format version 2
    writes no back-references: two equal documents encode identically
    however their objects happen to be shared.  It is ten times faster
    than canonical JSON, which matters when every repetition is hashed.
    """
    return hashlib.sha256(marshal.dumps(document, 2)).hexdigest()


def checked_document(result, network, *, shared_segments: bool = False) -> dict:
    """Validate ``result`` and return its serialized document.

    This is the read side of a clustering: the same validate-then-
    serialize step ``NeatService.get_clustering`` performs.
    """
    report = validate.validate_result(
        result, network, allow_shared_segments=shared_segments
    )
    if not report.ok:
        raise GateFailed("validate_result", "; ".join(report.errors[:3]))
    return serialize.result_to_dict(result, network_name=network.name)


def require_same(gate: str, expected: str, actual: str) -> None:
    if expected != actual:
        raise GateFailed(gate, f"digest {actual[:12]} != expected {expected[:12]}")


def check_repetitions(digests: list[str]) -> str:
    """Every repetition of a run must produce one and the same document."""
    if not digests:
        raise GateFailed("repetition_digest", "no repetitions ran")
    for digest in digests[1:]:
        require_same("repetition_digest", digests[0], digest)
    return digests[0]


def without_serving_flags(document: dict[str, Any]) -> dict[str, Any]:
    """A served document minus the per-response ``stale`` markers."""
    return {
        key: value for key, value in document.items()
        if key not in ("stale", "slo_degraded")
    }
