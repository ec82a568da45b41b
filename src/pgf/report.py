"""JSON reports with deterministic serialization.

Reports carry a schema version and serialize with sorted keys and fixed
separators, so two runs over the same inputs emit identical bytes apart
from the timings map.  The pretty renderer is a formatter over the same
dict, never a second data path.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .engine import FiniteGroup

SCHEMA = 1


def toolchain_string() -> str:
    v = sys.version_info
    return f"pgf {__version__}; python {v.major}.{v.minor}.{v.micro}; numpy {np.__version__}"


def jsonable(obj):
    """Recursively coerce numpy scalars and arrays for json.dumps."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def to_json(d: dict) -> str:
    return json.dumps(jsonable(d), sort_keys=True, separators=(",", ":")) + "\n"


def group_summary(g: FiniteGroup) -> dict:
    """The invariant block shared by every report about a single group."""
    lcs = g.lower_central_series()
    return {
        "order": g.order,
        "center_order": g.center().order,
        "derived_order": g.derived_subgroup().order,
        "gamma3_order": lcs[2].order if len(lcs) > 2 else 1,
        "class": g.nilpotency_class(),
        "conjugate_type": g.conjugate_type(),
        "field_modulus": list(g.field.modulus) if g.field is not None else [],
    }


def assemble_report(spec: str, summary: dict, checks: list, timings: dict) -> dict:
    report = {
        "schema": SCHEMA,
        "spec": spec,
        "toolchain": toolchain_string(),
        "checks": checks,
        "timings": {k: round(float(v), 3) for k, v in timings.items()},
    }
    report.update(summary)
    for entry in checks:
        if not entry["passed"] and not entry["witness"]:
            raise ValueError(f"failed check {entry['name']!r} lacks a witness")
    return report


def all_checks_pass(report: dict) -> bool:
    return all(entry["passed"] for entry in report.get("checks", []))


def render_pretty(d: dict) -> str:
    """Text table over the report dict; consumes only what to_json would."""
    d = jsonable(d)
    lines = []
    for key in sorted(d):
        if key == "checks":
            continue
        lines.append(f"{key:>16}: {json.dumps(d[key], sort_keys=True)}")
    checks = d.get("checks", [])
    if checks:
        lines.append(f"{'checks':>16}:")
        width = max(len(c["name"]) for c in checks)
        for c in checks:
            tag = "PASS" if c["passed"] else "FAIL"
            line = f"  {tag}  {c['name']:<{width}}"
            if not c["passed"]:
                line += "  " + json.dumps(c["witness"], sort_keys=True)
            lines.append(line.rstrip())
    return "\n".join(lines) + "\n"


def write_json_atomic(path, payload: dict):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = to_json(payload)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def spec_slug(spec: str) -> str:
    keep = []
    for ch in spec:
        if ch.isalnum():
            keep.append(ch)
        elif keep and keep[-1] != "-":
            keep.append("-")
    return "".join(keep).strip("-")


def params_file_path(spec: str) -> Path:
    """Where `pgf verify` writes the parameters of spec: the working directory."""
    return Path(f"params-{spec_slug(spec)}.json")
