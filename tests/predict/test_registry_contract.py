"""Registry-wide predictor contracts.

Every request predictor reachable through :mod:`repro.registry` must
honour the ``reset()`` contract: after a reset, replaying the same trace
reproduces the first run's forecasts **bit-for-bit**.  The golden digests
and the admission-journal recovery both lean on this — a predictor that
carries hidden state across resets would replay differently after a
crash.
"""

from __future__ import annotations

import pytest

from repro.registry import predictor_names, resolve_predictor

#: Constructor knobs needed beyond the defaults, per registry name.
PREDICTOR_KWARGS: dict[str, dict] = {
    "type-noise": {"accuracy": 0.7, "seed": 3},
    "arrival-noise": {"accuracy": 0.7, "seed": 3},
}


def _forecasts(predictor, trace):
    rows = []
    for index in range(len(trace) - 1):
        prediction = predictor.predict(trace, index)
        rows.append(
            None
            if prediction is None
            else (prediction.arrival, prediction.type_id, prediction.deadline)
        )
    return rows


@pytest.mark.parametrize("name", predictor_names())
def test_reset_reproduces_first_run_bit_for_bit(name, tiny_trace):
    predictor = resolve_predictor(name, **PREDICTOR_KWARGS.get(name, {}))
    first = _forecasts(predictor, tiny_trace)
    predictor.reset()
    second = _forecasts(predictor, tiny_trace)
    assert first == second  # tuple equality on floats == bit-for-bit


@pytest.mark.parametrize("name", predictor_names())
def test_fresh_instance_matches_reset_instance(name, tiny_trace):
    """resolve() twice and resolve()+reset() are indistinguishable."""
    kwargs = PREDICTOR_KWARGS.get(name, {})
    reused = resolve_predictor(name, **kwargs)
    _forecasts(reused, tiny_trace)
    reused.reset()
    fresh = resolve_predictor(name, **kwargs)
    assert _forecasts(reused, tiny_trace) == _forecasts(fresh, tiny_trace)


def test_registry_names_cover_the_new_suite():
    names = predictor_names()
    for expected in ("ar", "seasonal", "drift"):
        assert expected in names
    for name in ("ar", "seasonal", "drift"):
        assert resolve_predictor(name).name == name
