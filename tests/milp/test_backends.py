"""Tests for the scipy/HiGHS solve, the test reference branch-and-bound
solver (tests/milp/reference_bnb.py), and their agreement on random
MILPs (the cross-validation property).

Models only minimise, so a maximisation minimises the negated
objective and the tests negate the optimum back."""

import math
import warnings

import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeWarning
from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus

from repro.milp import scipy_backend
from repro.milp.model import Model, SolveStatus
from repro.milp.scipy_backend import solve_with_scipy
from tests.milp.reference_bnb import solve_with_bnb

SCIPY_VERSION = tuple(int(part) for part in scipy.__version__.split(".")[:2])


def knapsack_model(values, weights, capacity):
    """Maximise the packed value: minimise its negation."""
    m = Model("knapsack")
    xs = [m.add_binary(f"x{i}") for i in range(len(values))]
    m.add_row(xs, [float(w) for w in weights], hi=capacity)
    m.minimize({x: -float(v) for x, v in zip(xs, values, strict=True)})
    return m, xs


class TestScipyBackend:
    def test_simple_lp(self):
        m = Model()
        x = m.add_var("x", ub=4.0)
        y = m.add_var("y", ub=4.0)
        m.add_row([x, y], [1.0, 1.0], hi=5.0)
        m.minimize({x: -1.0, y: -2.0})
        sol = solve_with_scipy(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert -sol.objective == pytest.approx(9.0)  # y=4, x=1

    def test_integrality_enforced(self):
        m = Model()
        x = m.add_var("x", ub=10.0, integer=True)
        m.add_row([x], [2.0], hi=7.0)
        m.minimize({x: -1.0})
        sol = solve_with_scipy(m)
        assert sol.value(x) == pytest.approx(3.0)

    def test_infeasible(self):
        m = Model()
        x = m.add_var("x", lb=0.0, ub=1.0)
        m.add_row([x], [1.0], lo=2.0)
        sol = solve_with_scipy(m)
        assert sol.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        m = Model()
        x = m.add_var("x")  # ub = +inf
        m.minimize({x: -1.0})
        sol = solve_with_scipy(m)
        assert sol.status is SolveStatus.UNBOUNDED

    def test_knapsack(self):
        m, xs = knapsack_model([10, 13, 7], [5, 6, 4], 10)
        sol = solve_with_scipy(m)
        # best: items 1+2 (weight 10, value 20)
        assert -sol.objective == pytest.approx(20.0)
        assert sol.binary(xs[1]) and sol.binary(xs[2])

    def test_no_constraints(self):
        m = Model()
        x = m.add_var("x", lb=1.0, ub=3.0)
        m.minimize({x: 1.0})
        sol = solve_with_scipy(m)
        assert sol.objective == pytest.approx(1.0)

    def test_solve_emits_no_warning(self):
        m, _ = knapsack_model([10, 13, 7], [5, 6, 4], 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_with_scipy(m)
        assert sol.status is SolveStatus.OPTIMAL

    @staticmethod
    def _refused_options(monkeypatch):
        """Keys HiGHS refuses during one solve, each an option the solve
        then runs without; the spy records them before solve_with_scipy
        decides whether to warn."""
        refused = []

        class Spy(scipy_backend._Highs):
            def setOptionValue(self, key, value):
                status = super().setOptionValue(key, value)
                if status != HighsStatus.kOk:
                    refused.append(key)
                return status

        monkeypatch.setattr(scipy_backend, "_Highs", Spy)
        m, _ = knapsack_model([10, 13, 7], [5, 6, 4], 10)
        assert solve_with_scipy(m).status is SolveStatus.OPTIMAL
        return refused

    def test_highs_drops_no_option_but_feasibility_jump(self, monkeypatch):
        """A misspelt or retired key would be refused on every scipy."""
        dropped = [
            key
            for key in self._refused_options(monkeypatch)
            if key != scipy_backend._OPTIONAL_KEY
        ]
        assert not dropped, dropped

    @pytest.mark.skipif(
        SCIPY_VERSION < (1, 17),
        reason="scipy 1.17 (HiGHS 1.12) is the oldest release checked to "
        "bundle a HiGHS with feasibility jump; an older one may drop that "
        "key, which leaves the solve as it was",
    )
    def test_installed_highs_knows_every_option(self, monkeypatch):
        dropped = self._refused_options(monkeypatch)
        assert not dropped, dropped

    @staticmethod
    def _older_highs(monkeypatch, dropped):
        class OlderHighs(scipy_backend._Highs):
            def setOptionValue(self, key, value):
                # What a HiGHS that does not know the key answers.
                if key == dropped:
                    return HighsStatus.kError
                return super().setOptionValue(key, value)

        monkeypatch.setattr(scipy_backend, "_Highs", OlderHighs)

    def test_an_option_older_highs_lacks_is_dropped_silently(self, monkeypatch):
        self._older_highs(monkeypatch, "mip_heuristic_run_feasibility_jump")
        m, _ = knapsack_model([10, 13, 7], [5, 6, 4], 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_with_scipy(m)
        assert -sol.objective == pytest.approx(20.0)

    def test_any_other_dropped_option_still_warns(self, monkeypatch):
        self._older_highs(monkeypatch, "mip_feasibility_tolerance")
        m, _ = knapsack_model([10, 13, 7], [5, 6, 4], 10)
        with pytest.warns(OptimizeWarning, match="mip_feasibility_tolerance"):
            solve_with_scipy(m)

    @pytest.mark.parametrize(
        "method, answer",
        [
            ("passModel", HighsStatus.kError),
            ("run", HighsStatus.kError),
            ("getModelStatus", HighsModelStatus.kModelError),
            ("getModelStatus", HighsModelStatus.kUnboundedOrInfeasible),
            ("getModelStatus", HighsModelStatus.kTimeLimit),
        ],
    )
    def test_a_solve_that_proves_nothing_is_an_error(
        self, monkeypatch, method, answer
    ):
        """Only kOptimal, kInfeasible and kUnbounded say something about
        the model; scipy.optimize.milp read kModelError as infeasible."""
        original = getattr(scipy_backend._Highs, method)

        class Faulty(scipy_backend._Highs):
            pass

        def faulty(self, *args):
            original(self, *args)
            return answer

        setattr(Faulty, method, faulty)
        monkeypatch.setattr(scipy_backend, "_Highs", Faulty)
        m, _ = knapsack_model([10, 13, 7], [5, 6, 4], 10)
        sol = solve_with_scipy(m)
        assert sol.status is SolveStatus.ERROR
        assert math.isnan(sol.objective) and sol.values == []


class TestBnbBackend:
    def test_knapsack(self):
        m, _ = knapsack_model([10, 13, 7], [5, 6, 4], 10)
        sol = solve_with_bnb(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert -sol.objective == pytest.approx(20.0)

    def test_integrality(self):
        m = Model()
        x = m.add_var("x", ub=10.0, integer=True)
        m.add_row([x], [2.0], hi=7.0)
        m.minimize({x: -1.0})
        sol = solve_with_bnb(m)
        assert sol.value(x) == pytest.approx(3.0)

    def test_infeasible(self):
        m = Model()
        b = m.add_binary("b")
        m.add_row([b], [1.0], lo=0.5)
        m.add_row([b], [1.0], hi=0.4)
        sol = solve_with_bnb(m)
        assert sol.status is SolveStatus.INFEASIBLE

    def test_equality_constraints(self):
        m = Model()
        x = m.add_var("x", ub=10.0)
        y = m.add_var("y", ub=10.0, integer=True)
        m.add_row([x, y], [1.0, 1.0], 7.5, 7.5)
        m.minimize({x: 1.0})
        sol = solve_with_bnb(m)
        # y integer, maximal y = 7 -> x = 0.5
        assert sol.value(y) == pytest.approx(7.0)
        assert sol.value(x) == pytest.approx(0.5)

    def test_node_cap_reports_error(self):
        m, _ = knapsack_model(
            list(range(1, 13)), list(range(1, 13)), 30
        )
        sol = solve_with_bnb(m, max_nodes=2)
        assert sol.status is SolveStatus.ERROR

    def test_mixed_integer_continuous(self):
        m = Model()
        x = m.add_var("x", ub=5.0)
        b = m.add_binary("b")
        m.add_row([x, b], [1.0, -4.0], hi=0.0)
        m.minimize({x: -1.0, b: 0.5})
        sol = solve_with_bnb(m)
        assert -sol.objective == pytest.approx(3.5)  # b=1, x=4


@st.composite
def random_knapsack(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    values = draw(
        st.lists(
            st.integers(min_value=1, max_value=30), min_size=n, max_size=n
        )
    )
    weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=15), min_size=n, max_size=n
        )
    )
    capacity = draw(st.integers(min_value=0, max_value=40))
    return values, weights, capacity


class TestBackendAgreement:
    @given(random_knapsack())
    @settings(max_examples=60, deadline=None)
    def test_same_optimum_on_random_knapsacks(self, problem):
        values, weights, capacity = problem
        m1, _ = knapsack_model(values, weights, capacity)
        m2, _ = knapsack_model(values, weights, capacity)
        scipy_sol = solve_with_scipy(m1)
        bnb_sol = solve_with_bnb(m2)
        assert scipy_sol.status is SolveStatus.OPTIMAL
        assert bnb_sol.status is SolveStatus.OPTIMAL
        assert scipy_sol.objective == pytest.approx(
            bnb_sol.objective, abs=1e-6
        )

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=9),
                st.integers(min_value=1, max_value=9),
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_assignment_problems_agree(self, rows, cap):
        """Small set-partition-like models: both backends agree."""
        m1 = Model()
        m2 = Model()
        for m in (m1, m2):
            xs = [m.add_binary(f"x{i}") for i in range(len(rows))]
            weights = [float(w) for w, _ in rows]
            m.add_row(xs, weights, hi=cap)
            m.add_row(xs, weights, lo=min(cap, min(w for w, _ in rows)))
            m.minimize(
                {x: float(c) for x, (_, c) in zip(xs, rows, strict=True)}
            )
        s1 = solve_with_scipy(m1)
        s2 = solve_with_bnb(m2)
        assert s1.status == s2.status
        if s1.status is SolveStatus.OPTIMAL:
            assert s1.objective == pytest.approx(s2.objective, abs=1e-6)
