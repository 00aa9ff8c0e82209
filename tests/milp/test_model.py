"""Tests for the MILP row store."""

import math

import pytest

from repro.milp.model import Model, Row, SolveStatus


class TestConstraints:
    def test_le_builds_upper_bound(self):
        m = Model()
        x = m.add_var("x")
        row = m.add_row([x], [1.0], hi=4.0)
        assert isinstance(row, Row)
        assert row.hi == pytest.approx(4.0)
        assert row.lo == -math.inf

    def test_ge_builds_lower_bound(self):
        m = Model()
        x = m.add_var("x")
        row = m.add_row([x], [2.0], lo=4.0)
        assert row.lo == pytest.approx(4.0)
        assert row.hi == math.inf

    def test_eq_builds_two_sided(self):
        m = Model()
        x = m.add_var("x")
        row = m.add_row([x], [1.0], 3.0, 3.0)
        assert row.lo == row.hi == pytest.approx(3.0)

    def test_add_rejects_non_constraint(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        # A repeated column: scipy would sum the two coefficients, the
        # branch-and-bound dense fill would keep only the last one.
        with pytest.raises(ValueError, match="repeats a column"):
            m.add_row([x, y, x], [1.0, 1.0, 2.0], hi=1.0)
        with pytest.raises(ValueError, match="coefficients"):
            m.add_row([x, y], [1.0], hi=1.0)
        with pytest.raises(ValueError, match="unknown column"):
            m.add_row([x, 2], [1.0, 1.0], hi=1.0)
        with pytest.raises(ValueError, match="lo"):
            m.add_row([x], [1.0], lo=2.0, hi=1.0)
        assert m.rows == []


class TestModelBuilding:
    def test_variable_bounds(self):
        m = Model()
        x = m.add_var("x", lb=-1.0, ub=2.0)
        assert (m.variables[x].lb, m.variables[x].ub) == (-1.0, 2.0)
        with pytest.raises(ValueError):
            m.add_var("bad", lb=3.0, ub=1.0)

    def test_binary(self):
        m = Model()
        b = m.add_binary("b")
        var = m.variables[b]
        assert var.integer and var.lb == 0.0 and var.ub == 1.0

    def test_counts(self):
        m = Model("demo")
        m.add_var()
        m.add_binary()
        assert len(m.variables) == 2
        assert "2 vars" in repr(m)

    def test_arrays_are_rows_in_order(self):
        m = Model()
        x = m.add_var("x", ub=4.0)
        b = m.add_binary("b")
        m.add_row([b, x], [3.0, 1.0], hi=10.0)
        m.add_row([x], [2.0], 1.0, 1.0)
        m.minimize({x: 2.5})
        arrays = m.arrays()
        data, indices, indptr = arrays.a
        assert arrays.c.tolist() == [2.5, 0.0]
        assert data.tolist() == [3.0, 1.0, 2.0]
        assert indices.tolist() == [b, x, x]
        assert indptr.tolist() == [0, 2, 3]
        assert arrays.lo.tolist() == [-math.inf, 1.0]
        assert arrays.hi.tolist() == [10.0, 1.0]
        assert arrays.lb.tolist() == [0.0, 0.0]
        assert arrays.ub.tolist() == [4.0, 1.0]
        assert arrays.integrality.tolist() == [0, 1]


class TestNonFiniteNumbers:
    """A NaN bound or a non-finite coefficient never reaches HiGHS, which
    would read a NaN bound as infeasible (rejecting the arrival) and a
    NaN coefficient as an absent term.  Each raises on the solve,
    naming the row or variable."""

    @staticmethod
    def model():
        m = Model()
        x = m.add_var("x", ub=4.0)
        y = m.add_var("y", lb=-math.inf)
        m.add_row([x, y], [1.0, 1.0], lo=-math.inf, hi=5.0, name="cap")
        m.add_row([y], [1.0], lo=-1.0, name="floor")
        m.minimize({x: -1.0, y: 1.0})
        return m, x, y

    def test_infinite_bounds_solve(self):
        m, _, _ = self.model()
        assert m.solve().status is SolveStatus.OPTIMAL

    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_nan_row_bound(self, side):
        m, x, _ = self.model()
        m.add_row([x], [1.0], **{side: math.nan}, name="deadline")
        with pytest.raises(ValueError, match="row 'deadline': NaN bound"):
            m.solve()

    @pytest.mark.parametrize("side", ["lb", "ub"])
    def test_nan_variable_bound(self, side):
        m, x, _ = self.model()
        z = m.add_var("z", **{side: math.nan})
        m.add_row([x, z], [1.0, 1.0], hi=3.0)
        with pytest.raises(ValueError, match="variable 'z': NaN bound"):
            m.solve()

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_coefficient(self, coeff):
        m, x, y = self.model()
        m.add_row([x, y], [1.0, coeff], hi=2.0, name="finish")
        with pytest.raises(
            ValueError, match="row 'finish': non-finite coefficient"
        ):
            m.solve()

    @pytest.mark.parametrize("coeff", [math.nan, math.inf])
    def test_non_finite_objective(self, coeff):
        m, x, y = self.model()
        m.minimize({x: -1.0, y: coeff})
        with pytest.raises(
            ValueError, match="variable 'y': non-finite objective"
        ):
            m.solve()


class TestSolve:
    def test_empty_model(self):
        sol = Model().solve()
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == 0.0

    def test_unknown_backend(self):
        # HiGHS is the one solve path: solve() takes no backend at all.
        with pytest.raises(TypeError):
            Model().solve("gurobi")

    def test_binary_helper_on_solution(self):
        m = Model()
        b = m.add_binary("b")
        m.minimize({b: -1.0})
        sol = m.solve()
        assert sol.binary(b) is True
