"""Arithmetic substrate: linear expressions, Fourier–Motzkin, cells.

Includes hypothesis cross-checks of FM satisfiability against sampled
witnesses — FM claims SAT iff a rational witness exists.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.arith.cells import Cell, SignCondition, count_cells, enumerate_cells
from repro.arith.constraints import Constraint, Rel, compare, eq, ge, gt, le, lt, ne
from repro.arith.fm import (
    eliminate,
    is_satisfiable,
    project,
    project_components,
    sample_solution,
)
from repro.arith.linexpr import LinExpr, const, var

x, y, z = var("x"), var("y"), var("z")


class TestLinExpr:
    def test_algebra(self):
        expr = 2 * x + y - 3
        assert expr.coefficient("x") == 2
        assert expr.coefficient("y") == 1
        assert expr.constant == -3

    def test_substitute(self):
        expr = x + 2 * y
        result = expr.substitute({"y": x + 1})
        assert result == 3 * x + 2

    def test_rename_merges(self):
        expr = x + y
        assert expr.rename({"y": "x"}) == 2 * x

    def test_evaluate(self):
        expr = x - 2 * y + 5
        assert expr.evaluate({"x": 1, "y": 3}) == 0

    def test_hash_equality(self):
        assert hash(x + y) == hash(y + x)
        assert x + y == y + x

    def test_zero_coefficients_dropped(self):
        assert (x - x).is_constant


class TestSatisfiability:
    def test_trivial(self):
        assert is_satisfiable([])
        assert is_satisfiable([le(x, 5)])

    def test_contradiction(self):
        assert not is_satisfiable([lt(x, y), lt(y, x)])

    def test_strict_cycle(self):
        assert not is_satisfiable([lt(x, x)])

    def test_equalities(self):
        assert is_satisfiable([eq(x + y, 10), eq(x - y, 0)])
        assert not is_satisfiable([eq(x, 1), eq(x, 2)])

    def test_ne_convexity(self):
        # x ≤ 0 ∧ x ≥ 0 forces x = 0, so x ≠ 0 is unsatisfiable
        assert not is_satisfiable([le(x, 0), ge(x, 0), ne(x, 0)])
        assert is_satisfiable([le(x, 1), ne(x, 0)])

    def test_many_nes_stay_fast(self):
        constraints = [ge(x, 0), le(x, 1)]
        constraints += [ne(x, Fraction(1, k)) for k in range(2, 40)]
        assert is_satisfiable(constraints)  # would be 2^38 by naive splitting

    def test_constant_contradiction(self):
        assert not is_satisfiable([Constraint(const(1), Rel.LE)])


class TestProjection:
    def test_projection_simple(self):
        systems = project([le(x, y), le(y, 5)], ["x"])
        assert len(systems) == 1
        (constraint,) = systems[0].constraints
        assert constraint.holds({"x": 5})
        assert not constraint.holds({"x": 6})

    def test_projection_preserves_solutions(self):
        systems = project([eq(x, y + z), ge(y, 1), ge(z, 1)], ["x"])
        assert any(s.holds({"x": Fraction(2)}) for s in systems)
        assert not any(s.holds({"x": Fraction(1)}) for s in systems)

    def test_eliminate_unsat(self):
        assert eliminate([lt(x, y), lt(y, x)], ["x", "y"]) == []

    def test_project_components_exact_for_live(self):
        kept, exact = project_components([le(x, y), ne(x, 3)], {"x", "y"})
        assert exact
        assert len(kept) == 2

    def test_project_components_drops_dead_component(self):
        kept, exact = project_components([le(z, 5), le(x, y)], {"x", "y"})
        assert exact
        assert all("z" not in c.unknowns for c in kept)

    def test_project_components_flags_dead_ne(self):
        # z is dead and x ≤ z ≤ x forces z = x: dropping z ≠ 0 may lose
        # information exactly when x = 0
        kept, exact = project_components(
            [le(x, z), le(z, x), ne(z, 0)], {"x"}
        )
        assert not exact


class TestSampling:
    def test_sample_satisfies(self):
        constraints = [eq(x + y, 10), ge(x, 4), ne(y, 0), lt(y, 3)]
        solution = sample_solution(constraints)
        assert solution is not None
        for constraint in constraints:
            assert constraint.holds(solution)

    def test_sample_none_when_unsat(self):
        assert sample_solution([lt(x, y), lt(y, x)]) is None


@st.composite
def small_constraints(draw):
    unknowns = ["x", "y", "z"]
    coeffs = {
        u: Fraction(draw(st.integers(min_value=-3, max_value=3)))
        for u in draw(st.sets(st.sampled_from(unknowns), min_size=1, max_size=3))
    }
    constant = Fraction(draw(st.integers(min_value=-5, max_value=5)))
    rel = draw(st.sampled_from([Rel.LE, Rel.LT, Rel.EQ, Rel.NE, Rel.GE, Rel.GT]))
    return Constraint(LinExpr(coeffs, constant), rel)


class TestFMProperties:
    @given(st.lists(small_constraints(), max_size=5))
    @settings(max_examples=120, deadline=None)
    def test_sat_iff_sample_exists(self, constraints):
        sat = is_satisfiable(constraints)
        sample = sample_solution(constraints)
        if sample is not None:
            full = {u: sample.get(u, Fraction(0)) for u in ("x", "y", "z")}
            assert all(c.holds(full) for c in constraints)
            assert sat
        else:
            assert not sat

    @given(st.lists(small_constraints(), max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_projection_soundness(self, constraints):
        """Any solution of the original projects into some projected system."""
        sample = sample_solution(constraints)
        if sample is None:
            return
        full = {u: sample.get(u, Fraction(0)) for u in ("x", "y", "z")}
        systems = project(constraints, ["x"])
        assert any(system.holds(full) for system in systems)


# ----------------------------------------------------------------------
# stored form: int when integral, Fraction otherwise, never a float
# ----------------------------------------------------------------------
UNKNOWNS = ("x", "y", "z")
RATIONALS = st.integers(min_value=-4, max_value=4) | st.fractions(
    min_value=-4, max_value=4, max_denominator=4
)
NONZERO = RATIONALS.filter(bool)


def _stored(value) -> bool:
    return type(value) is int or (
        type(value) is Fraction and value.denominator != 1
    )


def _assert_stored(expr: LinExpr) -> None:
    assert _stored(expr.constant), expr.constant
    for coeff in expr.coeffs.values():
        assert _stored(coeff), coeff


@st.composite
def rational_exprs(draw):
    coeffs = {u: draw(RATIONALS) for u in draw(st.sets(st.sampled_from(UNKNOWNS)))}
    return LinExpr(coeffs, draw(RATIONALS))


@st.composite
def rational_constraints(draw):
    return Constraint(draw(rational_exprs()), draw(st.sampled_from(Rel)))


class TestStoredForm:
    """Coefficients, constants and sampled values are ``int`` when
    integral and ``Fraction`` otherwise — never a float."""

    @given(
        rational_exprs(),
        rational_exprs(),
        NONZERO,
        st.sampled_from(UNKNOWNS),
        st.sampled_from(UNKNOWNS),
    )
    @settings(max_examples=200, deadline=None)
    def test_algebra_keeps_stored_form(self, a, b, scalar, u, v):
        for result in (
            a + b,
            a - b,
            -a,
            a + scalar,
            scalar - a,
            a * scalar,
            scalar * a,
            a / scalar,
            a.substitute({u: b}),
            a.substitute({u: scalar}),
            a.rename({u: v}),
        ):
            _assert_stored(result)
        assert _stored(a.evaluate({w: scalar for w in UNKNOWNS}))

    @given(st.lists(rational_constraints(), max_size=4), st.sampled_from(UNKNOWNS))
    @settings(max_examples=150, deadline=None)
    def test_fm_keeps_stored_form(self, constraints, unknown):
        for system in eliminate(constraints, [unknown]):
            for constraint in system:
                _assert_stored(constraint.expr)
        solution = sample_solution(constraints)
        if solution is not None:
            assert all(_stored(value) for value in solution.values())
            assert all(c.holds(solution) for c in constraints if c.unknowns)

    @given(
        st.dictionaries(
            st.sampled_from(UNKNOWNS), st.integers(min_value=-9, max_value=9)
        ),
        st.integers(min_value=-9, max_value=9),
    )
    @settings(max_examples=100, deadline=None)
    def test_int_and_fraction_inputs_hash_equal(self, coeffs, constant):
        as_int = LinExpr(coeffs, constant)
        as_fraction = LinExpr(
            {u: Fraction(c) for u, c in coeffs.items()}, Fraction(constant)
        )
        as_float = LinExpr({u: float(c) for u, c in coeffs.items()}, float(constant))
        halved_twice = (as_int / 2) * Fraction(2)
        for other in (as_fraction, as_float, halved_twice):
            _assert_stored(other)
            assert other == as_int and hash(other) == hash(as_int)
            assert hash(Constraint(other, Rel.LE)) == hash(Constraint(as_int, Rel.LE))

    def test_sample_solution_int_division_regression(self):
        """``x + y = 0 ∧ 3x + 1 = 0``: back-substitution divides int
        bounds by int coefficients, which must not produce floats."""
        solution = sample_solution([eq(x + y, 0), eq(3 * x + 1, 0)])
        assert solution == {"x": Fraction(-1, 3), "y": Fraction(1, 3)}
        assert all(type(value) is Fraction for value in solution.values())


class TestCells:
    def test_three_lines_thirteen_cells(self):
        assert count_cells([x, y, x - y]) == 13

    def test_single_polynomial_three_cells(self):
        assert count_cells([x]) == 3

    def test_dependent_polynomials_prune(self):
        # x and 2x have correlated signs: cells where sign(x) ≠ sign(2x)
        # are empty
        assert count_cells([x, 2 * x]) == 3

    def test_cell_sampling_and_membership(self):
        for cell in enumerate_cells([x - 1, y]):
            point = cell.sample()
            assert point is not None
            full = {u: point.get(u, Fraction(0)) for u in ("x", "y")}
            assert cell.contains(full)

    def test_refinement(self):
        cells = list(enumerate_cells([x]))
        finer = list(enumerate_cells([x, x - 1]))
        for fine in finer:
            assert any(fine.refines(coarse) for coarse in cells)

    def test_projection_of_cell(self):
        cell = next(iter(enumerate_cells([x - y])))
        polys = cell.project_polynomials(["x"])
        assert isinstance(polys, list)

    def test_cell_count_within_bound(self):
        from repro.analysis.counting import cell_count_bound

        polys = [x, y, x - y, x + y - 1]
        measured = count_cells(polys)
        assert measured <= cell_count_bound(len(polys), 1, 2)
