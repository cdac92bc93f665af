from __future__ import annotations

import os
import re
import warnings
import xml.etree.ElementTree as ET

from csp2c.charts import emit_svg, robustness_svg, scalability_svg
from csp2c.harness import (
    Outcome,
    Report,
    RobustnessRow,
    RunRecord,
    ScalabilityRow,
)


def report_with(robustness=(), scalability=()):
    return Report(
        robustness=list(robustness),
        scalability=list(scalability),
        records=[
            RunRecord("t", "i", "v", Outcome.NOT_REACHED, 1.0)
        ],
    )


def rect_heights(svg: str) -> list[float]:
    # legend swatches are 11x11; bars are the rest
    heights = [
        float(m.group(1))
        for m in re.finditer(r'<rect [^>]*height="([0-9.]+)"', svg)
    ]
    return [h for h in heights if h != 11.0]


def test_bar_heights_proportional_to_means():
    report = report_with(
        robustness=[
            RobustnessRow("t", "v1", 2.0, 0, 1),
            RobustnessRow("t", "v2", 0.5, 0, 1),
        ]
    )
    svg = robustness_svg(report)
    background, bar1, bar2 = [h for h in rect_heights(svg)]
    # heights are emitted with 2 decimals, so the ratio is exact to ~1e-3
    assert abs(bar1 / bar2 - 4.0) < 1e-3


def test_a_tool_without_a_mean_for_a_version_has_no_bar_there():
    report = report_with(
        robustness=[
            RobustnessRow("t1", "v1", 2.0, 0, 1),
            RobustnessRow("t2", "v1", 1.0, 0, 1),
            RobustnessRow("t1", "v2", 0.5, 0, 1),
            RobustnessRow("t2", "v2", None, 1, 1),
        ]
    )
    background, *bars = rect_heights(robustness_svg(report))
    assert len(bars) == 3
    assert abs(bars[0] / bars[1] - 2.0) < 1e-3 and abs(bars[0] / bars[2] - 4.0) < 1e-3


def test_no_mean_at_all_writes_no_robustness_chart(tmp_path):
    report = report_with(
        robustness=[RobustnessRow("t", "v1", None, 1, 1)],
        scalability=[ScalabilityRow("t", 1, 1)],
    )
    assert robustness_svg(report) is None
    written = emit_svg(report, str(tmp_path))
    assert [os.path.basename(p) for p in written] == ["scalability.svg"]
    assert not (tmp_path / "robustness.svg").exists()


def test_scalability_polyline_per_tool():
    report = report_with(
        scalability=[
            ScalabilityRow("t1", 1, 0),
            ScalabilityRow("t1", 2, 3),
            ScalabilityRow("t2", 1, 1),
            ScalabilityRow("t2", 2, 2),
        ]
    )
    svg = scalability_svg(report)
    assert svg.count("<polyline") == 2


def test_empty_scalability_skips_without_warning(tmp_path):
    # build_report's flags name the empty table; the chart skips it quietly
    report = report_with(
        robustness=[RobustnessRow("t", "v1", 1.0, 0, 1)], scalability=[]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        written = emit_svg(report, str(tmp_path))
    names = [os.path.basename(p) for p in written]
    assert names == ["robustness.svg"]
    assert not (tmp_path / "scalability.svg").exists()


def test_svg_is_self_contained(tmp_path):
    report = report_with(
        robustness=[RobustnessRow("t", "v1", 1.0, 0, 1)],
        scalability=[ScalabilityRow("t", 1, 0)],
    )
    written = emit_svg(report, str(tmp_path))
    for path in written:
        text = open(path).read()
        assert text.startswith("<svg")
        assert "http://" not in text.replace("http://www.w3.org/2000/svg", "")
        assert "href" not in text


SVG_TEXT = "{http://www.w3.org/2000/svg}text"


def test_names_with_markup_characters_are_escaped(tmp_path):
    tool, version = "R&D <x>", "v<1>&"
    report = report_with(
        robustness=[RobustnessRow(tool, version, 1.0, 0, 1)],
        scalability=[ScalabilityRow(tool, 1, 0)],
    )
    written = emit_svg(report, str(tmp_path))
    assert len(written) == 2
    texts = {
        os.path.basename(path): [el.text for el in ET.parse(path).getroot().iter(SVG_TEXT)]
        for path in written
    }
    assert tool in texts["robustness.svg"] and tool in texts["scalability.svg"]
    assert version in texts["robustness.svg"]
