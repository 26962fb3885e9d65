import math

import numpy as np
import pytest

from mnlab.regression import ols_slope
from mnlab.reporting import json_bytes, null_if_nan


def test_slope_and_error_of_three_points():
    x = np.array([0.0, 1.0, 2.0])
    slope, se = ols_slope(x, 2.0 * x + np.array([0.0, 0.1, 0.0]))
    assert slope == pytest.approx(2.0)
    # residuals (-1/30, 2/30, -1/30) over one degree of freedom and sxx = 2
    assert se == pytest.approx(math.sqrt(6.0 / 900.0 / 2.0))


@pytest.mark.parametrize("y", [[1.0, 3.0], [0.3, -1.7], [5.0, 5.0]])
def test_two_points_have_a_slope_but_no_error(y):
    slope, se = ols_slope([8.0, 9.0], y)
    assert slope == pytest.approx(y[1] - y[0])
    assert math.isnan(se)


def test_fewer_than_two_points_have_no_slope():
    for x in ([], [3.0]):
        slope, se = ols_slope(x, x)
        assert math.isnan(slope) and math.isnan(se)
    with pytest.raises(ValueError):
        ols_slope([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        ols_slope([1.0, 1.0], [1.0, 2.0])


def test_reports_are_strict_json():
    assert json_bytes({"slope": null_if_nan(float("nan"))}) == b'{\n  "slope": null\n}\n'
    assert null_if_nan(0.5) == 0.5
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            json_bytes({"x": bad})
