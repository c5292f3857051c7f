"""Convergence reports: labeled numeric tables with pass/fail verdicts and
deterministic CSV / JSON serialization."""

from __future__ import annotations

import json
from pathlib import Path

from .scalars import _Frozen


class ConvergenceReport(_Frozen):
    """Rows of (index, measurements...) sorted by index, plus two verdicts:
    `threshold_met` (the target quantity beat the tolerance) and `bounded`
    (the certified norm bound held).  Both are recomputed by the builders
    from the rows alone."""

    _fields = ("columns", "rows", "threshold_met", "bounded", "tolerance")

    def __init__(self, columns: tuple[str, ...], rows, threshold_met: bool, bounded: bool,
                 tolerance: float):
        rows = tuple(tuple(r) for r in rows)
        if any(len(r) != len(columns) for r in rows):
            raise ValueError("row width does not match the column labels")
        self._set(columns, tuple(sorted(rows, key=lambda r: r[0])), threshold_met, bounded,
                  tolerance)

    def to_csv(self, comment: str | None = None) -> str:
        lines = []
        if comment:
            lines.append(f"# {comment}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_format_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "columns": list(self.columns),
            "rows": [[_jsonable(v) for v in row] for row in self.rows],
            "threshold_met": self.threshold_met,
            "bounded": self.bounded,
            "tolerance": self.tolerance,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _format_cell(v) -> str:
    if type(v) is float:  # nearly every cell, so it skips the checks below
        return repr(v)
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def _jsonable(v):
    if isinstance(v, (bool, int)):
        return v
    return float(v)


def write_report(report: ConvergenceReport, path, fmt: str = "csv",
                 comment: str | None = None) -> Path:
    """Write a report file; format is decided by `fmt` ('csv' or 'json')."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path.write_text(report.to_csv(comment), encoding="utf-8")
    elif fmt == "json":
        path.write_text(report.to_json(), encoding="utf-8")
    else:
        raise ValueError(f"format: unknown report format {fmt!r}")
    return path
