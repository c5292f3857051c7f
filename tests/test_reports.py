import json

import numpy as np
import pytest

from amenalab import ConvergenceReport, write_report
from amenalab.reports import _format_cell


def make_report():
    return ConvergenceReport(("index", "residual", "u_norm", "q_bound"),
                             ((16, 0.25, 1.5, 2.0), (8, 0.5, 1.25, 2.0)),
                             True, True, 1e-3)


def test_rows_sorted_by_index():
    report = make_report()
    assert report.rows[0][0] == 8 and report.rows[1][0] == 16


def test_csv_layout_and_comment():
    text = make_report().to_csv(comment="amenalab verify weak abc123")
    lines = text.splitlines()
    assert lines[0] == "# amenalab verify weak abc123"
    assert lines[1] == "index,residual,u_norm,q_bound"
    assert lines[2] == "8,0.5,1.25,2.0"
    assert text.endswith("\n")


def test_csv_without_comment():
    assert make_report().to_csv().splitlines()[0] == "index,residual,u_norm,q_bound"


def test_json_fields():
    payload = json.loads(make_report().to_json())
    assert payload["threshold_met"] is True
    assert payload["bounded"] is True
    assert payload["tolerance"] == 1e-3
    assert payload["columns"] == ["index", "residual", "u_norm", "q_bound"]
    assert payload["rows"][0] == [8, 0.5, 1.25, 2.0]


def test_serialization_deterministic():
    a, b = make_report(), make_report()
    assert a.to_csv("c") == b.to_csv("c")
    assert a.to_json() == b.to_json()


def test_row_width_validated():
    with pytest.raises(ValueError, match="row width"):
        ConvergenceReport(("index", "residual"), ((1, 2, 3),), True, True, 0.0)


def test_write_report_formats(tmp_path):
    report = make_report()
    csv_path = write_report(report, tmp_path / "r.csv", "csv", "amenalab verify all ffff")
    json_path = write_report(report, tmp_path / "r.json", "json")
    assert csv_path.read_text().startswith("# amenalab verify all ffff\n")
    assert json.loads(json_path.read_text())["tolerance"] == 1e-3
    with pytest.raises(ValueError, match="format"):
        write_report(report, tmp_path / "r.xml", "xml")


@pytest.mark.parametrize("v", [0.0, -0.0, 0.1, 5e-324, 1.5e300, float("inf"), float("nan"),
                               np.float64(0.1), np.float32(0.1), 3, True, False, np.int64(3)])
def test_format_cell_float_fast_path_keeps_the_type_chain(v):
    """A float cell is its repr, bitwise what the isinstance chain gives."""
    want = (str(int(v)) if isinstance(v, bool) else str(v) if isinstance(v, int)
            else repr(float(v)))
    assert _format_cell(v) == want
