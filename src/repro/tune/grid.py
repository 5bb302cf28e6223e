"""Grid definition: ``tune_grid.yaml`` loading, expansion and scoring.

The committed grid document has three sections::

    base:                 # NEATConfig fields shared by every combination
      min_card: 0
    grid:                 # axes; the cartesian product is the sweep
      weights:            # (wq, wk, wv) triples applied together
        - [0.5, 0.5, 0.0]
      eps_scale: [0.5, 1.0, 2.0]   # multiplies the region's base eps
    objective:
      minimize: total_s   # any numeric field of a sweep row
      guardrails:         # min_<field> / max_<field> bounds; a config
        min_clusters: 1   # violating any bound is disqualified
        min_trajectory_coverage: 0.25

Axis names are :class:`~repro.core.config.NEATConfig` fields plus two
conveniences — ``weights`` (a three-item list applied to ``wq/wk/wv``
together, so the sum-to-1 invariant survives the product) and
``eps_scale`` (a multiplier on the base ``eps`` resolved per region, so
one grid serves networks of different extents).

Expansion is deterministic: axes are ordered by name, values keep their
listed order, and the product enumerates the last axis fastest.  Ties on
the objective resolve to the earliest grid index, so a re-run of the same
sweep always elects the same winner.

The loader prefers PyYAML but falls back to a minimal stdlib parser
covering exactly the subset above (nested mappings, block and inline
lists, scalars) so the sweep runs on bare-stdlib installs too.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..core.config import NEATConfig
from ..errors import ConfigError

#: Per-region base eps (metres) when neither the grid's ``base`` section
#: nor an absolute ``eps`` axis pins one — mirrors the figure harness.
REGION_BASE_EPS = {"ATL": 800.0, "SJ": 800.0, "MIA": 1000.0}


# --------------------------------------------------------------------------
# Loading


def load_grid(path: str | Path) -> dict:
    """Parse a tune grid document (PyYAML when present, fallback parser).

    Returns the raw mapping; :func:`validate_grid` checks its shape.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        import yaml
    except ImportError:
        return _parse_minimal_yaml(text)
    return yaml.safe_load(text)


def validate_grid(document: Any) -> dict:
    """Shape-check a loaded grid document; returns it on success."""
    if not isinstance(document, dict):
        raise ConfigError("tune grid: document must be a mapping")
    axes = document.get("grid")
    if not isinstance(axes, dict) or not axes:
        raise ConfigError("tune grid: 'grid' must be a non-empty mapping")
    for name, values in axes.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(
                f"tune grid: axis {name!r} must be a non-empty list"
            )
    base = document.get("base", {})
    if not isinstance(base, dict):
        raise ConfigError("tune grid: 'base' must be a mapping")
    objective = document.get("objective", {})
    if not isinstance(objective, dict):
        raise ConfigError("tune grid: 'objective' must be a mapping")
    guardrails = objective.get("guardrails", {})
    if not isinstance(guardrails, dict):
        raise ConfigError("tune grid: 'guardrails' must be a mapping")
    for name in guardrails:
        if not (name.startswith("min_") or name.startswith("max_")):
            raise ConfigError(
                f"tune grid: guardrail {name!r} must start with "
                f"'min_' or 'max_'"
            )
    return document


# --------------------------------------------------------------------------
# Minimal YAML subset parser (stdlib fallback)


def _parse_scalar(token: str) -> Any:
    token = token.strip()
    if token in ("", "~", "null"):
        return None
    if token == "true":
        return True
    if token == "false":
        return False
    if token.startswith("[") and token.endswith("]"):
        inner = token[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(part) for part in inner.split(",")]
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _strip_lines(text: str) -> list[tuple[int, str]]:
    lines = []
    for raw in text.splitlines():
        content = raw.split("#", 1)[0].rstrip()
        if not content.strip():
            continue
        indent = len(content) - len(content.lstrip(" "))
        lines.append((indent, content.strip()))
    return lines


def _parse_block(
    lines: list[tuple[int, str]], index: int, indent: int
) -> tuple[Any, int]:
    """Parse one block (mapping or list) at ``indent``; returns (value, next)."""
    if lines[index][1].startswith("- "):
        items: list[Any] = []
        while index < len(lines) and lines[index][0] == indent and (
            lines[index][1].startswith("- ") or lines[index][1] == "-"
        ):
            items.append(_parse_scalar(lines[index][1][1:].strip()))
            index += 1
        return items, index

    mapping: dict[str, Any] = {}
    while index < len(lines) and lines[index][0] == indent:
        line = lines[index][1]
        if line.startswith("- "):
            break
        key, separator, rest = line.partition(":")
        if not separator:
            raise ConfigError(f"tune grid: cannot parse line {line!r}")
        key = key.strip()
        rest = rest.strip()
        if rest:
            mapping[key] = _parse_scalar(rest)
            index += 1
            continue
        index += 1
        if index < len(lines) and lines[index][0] > indent:
            mapping[key], index = _parse_block(lines, index, lines[index][0])
        else:
            mapping[key] = None
    return mapping, index


def _parse_minimal_yaml(text: str) -> dict:
    """Stdlib parser for the documented tune-grid subset of YAML."""
    lines = _strip_lines(text)
    if not lines:
        return {}
    document, index = _parse_block(lines, 0, lines[0][0])
    if index != len(lines):
        raise ConfigError(
            f"tune grid: trailing content from line {lines[index][1]!r}"
        )
    if not isinstance(document, dict):
        raise ConfigError("tune grid: document must be a mapping")
    return document


# --------------------------------------------------------------------------
# Expansion


def expand_grid(axes: Mapping[str, Sequence[Any]]) -> list[dict]:
    """The cartesian product of the axes, in deterministic order.

    Axes are ordered by name; each axis's values keep their listed order;
    the product enumerates the last (alphabetically) axis fastest.  The
    returned overlays carry the raw axis values — ``weights`` and
    ``eps_scale`` are resolved later by :func:`overlay_config`.
    """
    names = sorted(axes)
    return [
        dict(zip(names, values))
        for values in itertools.product(*(axes[name] for name in names))
    ]


def overlay_config(
    base: Mapping[str, Any], overlay: Mapping[str, Any], region: str
) -> NEATConfig:
    """Materialize one grid point as a validated :class:`NEATConfig`.

    ``base`` fields apply first, the overlay wins on conflicts, then the
    two conveniences resolve: ``weights`` expands to ``wq/wk/wv`` and
    ``eps_scale`` multiplies the base eps (the explicit ``eps`` when one
    is set, the region's default otherwise).
    """
    document: dict[str, Any] = dict(base)
    document.update(overlay)
    weights = document.pop("weights", None)
    eps_scale = document.pop("eps_scale", None)
    if "eps" not in document:
        document["eps"] = REGION_BASE_EPS.get(region, 800.0)
    if eps_scale is not None:
        document["eps"] = float(document["eps"]) * float(eps_scale)
    if weights is not None:
        if not isinstance(weights, (list, tuple)) or len(weights) != 3:
            raise ConfigError(
                f"tune grid: 'weights' must be a (wq, wk, wv) triple, "
                f"got {weights!r}"
            )
        document["wq"], document["wk"], document["wv"] = (
            float(weights[0]), float(weights[1]), float(weights[2])
        )
    return NEATConfig.from_dict(document)


# --------------------------------------------------------------------------
# Scoring


def guardrail_failures(
    row: Mapping[str, Any], guardrails: Mapping[str, float]
) -> list[str]:
    """Human-readable lines for every violated ``min_``/``max_`` bound."""
    failures = []
    for name, bound in guardrails.items():
        kind, _, field = name.partition("_")
        value = row.get(field)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            failures.append(f"{name}: field {field!r} missing from run row")
            continue
        if kind == "min" and value < bound:
            failures.append(f"{name}: {value:g} < {bound:g}")
        elif kind == "max" and value > bound:
            failures.append(f"{name}: {value:g} > {bound:g}")
    return failures


def score_rows(
    rows: Sequence[Mapping[str, Any]], objective: Mapping[str, Any]
) -> list[dict]:
    """Attach ``score`` / ``qualified`` / ``guardrail_failures`` to rows.

    The score is the value of the ``minimize`` field (lower is better).
    Rows violating any guardrail keep their score but are disqualified —
    the results doc still shows how fast a bad config was.
    """
    minimize = objective.get("minimize", "total_s")
    guardrails = objective.get("guardrails", {})
    scored = []
    for row in rows:
        value = row.get(minimize)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(
                f"tune grid: objective field {minimize!r} missing from "
                f"sweep row {sorted(row)}"
            )
        failures = guardrail_failures(row, guardrails)
        entry = dict(row)
        entry["score"] = float(value)
        entry["qualified"] = not failures
        entry["guardrail_failures"] = failures
        scored.append(entry)
    return scored


def pick_best(scored: Sequence[Mapping[str, Any]]) -> int | None:
    """Index of the winning row: lowest score, earliest index on ties.

    Returns ``None`` when no row qualifies (every config tripped a
    guardrail) — the sweep reports that loudly instead of committing a
    bad best_config.
    """
    best_index: int | None = None
    best_score: float | None = None
    for index, row in enumerate(scored):
        if not row["qualified"]:
            continue
        score = row["score"]
        if best_score is None or score < best_score:
            best_index, best_score = index, score
    return best_index
