import math
import xml.etree.ElementTree as ET

import pytest

from relfix.svgplot import FLOOR, render_residual_plot


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        render_residual_plot([])


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, "1", True, None, 1 + 0j], ids=repr
)
def test_non_finite_residual_rejected(bad):
    with pytest.raises(ValueError, match="residual 1 is not finite"):
        render_residual_plot([1.0, bad, 0.5])


def test_marker_per_residual():
    svg = render_residual_plot([1.0, 0.5, 0.25, 0.125])
    assert svg.count("<circle") == 4
    assert svg.count("<polyline") == 1


def test_single_point_has_no_polyline():
    svg = render_residual_plot([0.5])
    assert svg.count("<circle") == 1
    assert "<polyline" not in svg


def test_deterministic():
    data = [2.0 ** (-k) for k in range(40)]
    assert render_residual_plot(data) == render_residual_plot(data)


def test_title_is_embedded():
    svg = render_residual_plot([1.0], title="my residuals")
    assert ">my residuals</text>" in svg


def test_title_markup_is_escaped():
    svg = render_residual_plot([1.0, 0.5], title="a < b & c > d")
    root = ET.fromstring(svg)
    titles = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert titles[0] == "a < b & c > d"


CAPTION = f"values below {FLOOR:.0e} plotted at {FLOOR:.0e}"


def test_nonpositive_values_are_floored_and_annotated():
    svg = render_residual_plot([1.0, 0.0, 1e-30])
    assert CAPTION in svg


def test_a_tiny_positive_value_is_floored_and_captioned_as_below_the_floor():
    # a positive residual under the floor is no nonpositive value
    svg = render_residual_plot([1.0, 1e-20])
    assert CAPTION in svg and "nonpositive" not in svg
    assert svg == render_residual_plot([1.0, FLOOR / 2])


def test_positive_values_carry_no_annotation():
    for values in ([1.0, 0.5], [1.0, FLOOR]):
        svg = render_residual_plot(values)
        assert "plotted at" not in svg and "nonpositive" not in svg


def test_decade_labels_are_thinned():
    # forty decades of decay must not produce forty axis labels
    data = [10.0 ** (-k) for k in range(0, 17)]
    svg = render_residual_plot(data)
    labels = [line for line in svg.splitlines() if ">1e" in line]
    assert 2 <= len(labels) <= 12


def test_is_a_standalone_document():
    svg = render_residual_plot([1.0, 0.5])
    assert svg.startswith("<svg xmlns=")
    assert svg.rstrip().endswith("</svg>")
