"""Property tests of the prediction-quality metrics.

:func:`repro.predict.metrics.nrmse` and
:func:`~repro.predict.metrics.type_accuracy` are checked against
brute-force numpy references under hypothesis, including the degenerate
inputs the docstrings promise to handle (constant series, single
sample), plus negative tests for the error contract.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.predict.metrics import nrmse, type_accuracy

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def _reference_nrmse(predicted, actual, norm=None):
    """Independent numpy implementation of the documented formula."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if norm is None:
        # The mean first difference, telescoped exactly (a pairwise
        # ``np.diff(a).mean()`` can round a true 0 to a tiny positive).
        mean_gap = float((a[-1] - a[0]) / (a.size - 1)) if a.size > 1 else 0.0
        norm = mean_gap if mean_gap > 0 else 1.0
    return float(np.sqrt(np.mean((p - a) ** 2)) / norm)


class TestNrmseProperties:
    @given(
        pairs=st.lists(
            st.tuples(finite_floats, finite_floats), min_size=1, max_size=50
        )
    )
    @settings(max_examples=100, deadline=None)
    # A net-flat series: summing its gaps pairwise rounds the true mean
    # of 0 up to ~4e-16, so the default norm must come from the exact
    # telescoped form and fall back to 1.0.
    @example(
        pairs=[
            (0.0, a)
            for a in (0.0, 0.0, 0.0, 0.0, 0.99999, 0.0, 33.0, 0.0, 0.0)
        ]
    )
    def test_matches_bruteforce_default_norm(self, pairs):
        predicted = [p for p, _ in pairs]
        actual = [a for _, a in pairs]
        assert nrmse(predicted, actual) == pytest.approx(
            _reference_nrmse(predicted, actual), rel=1e-9, abs=1e-12
        )

    @given(
        pairs=st.lists(
            st.tuples(finite_floats, finite_floats), min_size=1, max_size=50
        ),
        norm=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_bruteforce_explicit_norm(self, pairs, norm):
        predicted = [p for p, _ in pairs]
        actual = [a for _, a in pairs]
        assert nrmse(predicted, actual, norm=norm) == pytest.approx(
            _reference_nrmse(predicted, actual, norm=norm),
            rel=1e-9,
            abs=1e-12,
        )

    @given(
        values=st.lists(finite_floats, min_size=1, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_perfect_forecast_scores_zero(self, values):
        assert nrmse(values, values) == 0.0

    @given(
        pairs=st.lists(
            st.tuples(finite_floats, finite_floats), min_size=1, max_size=30
        ),
        scale=st.floats(min_value=1.1, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_norm(self, pairs, scale):
        """A larger normaliser can only shrink the reported error."""
        predicted = [p for p, _ in pairs]
        actual = [a for _, a in pairs]
        small = nrmse(predicted, actual, norm=1.0)
        large = nrmse(predicted, actual, norm=scale)
        assert large <= small

    def test_constant_actuals_fall_back_to_unit_norm(self):
        # zero mean gap -> norm 1.0, so the value is the raw RMS error
        assert nrmse([3.0, 3.0], [1.0, 1.0]) == pytest.approx(2.0)

    def test_single_sample_window(self):
        # no gaps at all -> norm 1.0
        assert nrmse([4.0], [1.0]) == pytest.approx(3.0)

    def test_decreasing_actuals_fall_back_to_unit_norm(self):
        # negative mean gap is not a usable normaliser
        assert nrmse([5.0, 4.0], [4.0, 3.0]) == pytest.approx(1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            nrmse([1.0, 2.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="zero forecasts"):
            nrmse([], [])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_non_positive_norm_rejected(self, bad):
        with pytest.raises(ValueError, match="norm"):
            nrmse([1.0], [1.0], norm=bad)


class TestTypeAccuracyProperties:
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=9),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_bruteforce(self, pairs):
        predicted = [p for p, _ in pairs]
        actual = [a for _, a in pairs]
        reference = float(
            np.mean(np.asarray(predicted) == np.asarray(actual))
        )
        assert type_accuracy(predicted, actual) == pytest.approx(reference)

    @given(values=st.lists(st.integers(0, 9), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_bounds_and_extremes(self, values):
        assert type_accuracy(values, values) == 1.0
        shifted = [v + 10 for v in values]  # guaranteed all-miss
        assert type_accuracy(shifted, values) == 0.0
        score = type_accuracy(values, list(reversed(values)))
        assert 0.0 <= score <= 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            type_accuracy([1], [1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="zero forecasts"):
            type_accuracy([], [])
