"""The AR(p) fit behind :class:`~repro.predict.interarrival.ArInterarrival`."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.predict.interarrival import fit_ar_coefficients


class TestFitArCoefficients:
    def test_recovers_exact_ar1(self):
        # x[t] = 2 + 0.5 x[t-1], noiseless, still far from the fixed
        # point (a fully converged series is constant, hence singular)
        series = [0.0]
        for _ in range(12):
            series.append(2.0 + 0.5 * series[-1])
        coefficients = fit_ar_coefficients(series, order=1, ridge=1e-12)
        assert coefficients[0] == pytest.approx(2.0, abs=1e-4)
        assert coefficients[1] == pytest.approx(0.5, abs=1e-4)

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError, match="at least order"):
            fit_ar_coefficients([1.0, 2.0], order=2)

    def test_non_finite_series_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            fit_ar_coefficients([1.0, math.inf, 2.0], order=1)

    def test_2d_series_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            fit_ar_coefficients(np.ones((3, 2)), order=1)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            fit_ar_coefficients([1.0, 2.0, 3.0], order=0)
