import itertools
import math
import random
from fractions import Fraction

import pytest

from lowprev import CapExceededError, Constraint, SimplexLP, enumerate_vertices, solve_fractional_min, solve_min, solve_minmax
from lowprev.errors import PositivityError
from lowprev.solver import LPResult, extreme_points, polytope_inequalities, satisfies, solve_standard
from lowprev import solver
from lowprev.solver import _primitive, _row_reduce, _scaled, _solve_affine

F = Fraction


def unit_row(n, j):
    return tuple(F(1) if i == j else F(0) for i in range(n))


class TestSolveMin:
    def test_min_over_full_simplex(self):
        result = solve_min(SimplexLP(3, (F(0), F(1), F(2))))
        assert result.status == "optimal"
        assert result.value == 0
        assert result.witness == (1, 0, 0)

    def test_forced_uniform(self):
        lp = SimplexLP(
            3,
            (F(0), F(1), F(2)),
            (
                Constraint((F(1), F(-1), F(0)), "==", F(0)),
                Constraint((F(0), F(1), F(-1)), "==", F(0)),
            ),
        )
        assert solve_min(lp).value == 1

    def test_infeasible_is_a_status(self):
        lp = SimplexLP(
            2,
            None,
            (
                Constraint((F(1), F(0)), ">=", F(2, 3)),
                Constraint((F(0), F(1)), ">=", F(2, 3)),
            ),
        )
        assert solve_min(lp).status == "infeasible"

    def test_witness_feasible_on_random_lps(self):
        rng = random.Random(100)
        for _ in range(60):
            n = rng.randint(2, 5)
            cons = tuple(
                Constraint(
                    tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)),
                    ">=",
                    F(rng.randint(-9, 0), 2),
                )
                for _ in range(rng.randint(0, 4))
            )
            lp = SimplexLP(n, tuple(F(rng.randint(-5, 5)) for _ in range(n)), cons)
            result = solve_min(lp)
            if result.status == "optimal":
                assert satisfies(lp, result.witness)
                assert sum(c * x for c, x in zip(lp.objective, result.witness)) == result.value


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


class TestSolveMinmax:
    @staticmethod
    def random_lp(rng):
        n = rng.randint(2, 5)
        cons = tuple(
            Constraint(
                tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)),
                rng.choice([">=", ">=", "=="]),
                F(rng.randint(-9, 0), 2),
            )
            for _ in range(rng.randint(0, 4))
        )
        return SimplexLP(n, tuple(F(rng.randint(-5, 5)) for _ in range(n)), cons)

    def test_single_objective_matches_solve_min(self):
        rng = random.Random(101)
        for _ in range(60):
            lp = self.random_lp(rng)
            plain, minmax = solve_min(lp), solve_minmax([lp.objective], lp)
            assert minmax.status == plain.status
            if plain.status == "optimal":
                assert minmax.value == plain.value
                assert satisfies(lp, minmax.witness)
                assert dot(lp.objective, minmax.witness) == minmax.value

    def test_witness_attains_the_pointwise_maximum(self):
        rng = random.Random(102)
        for _ in range(40):
            lp = self.random_lp(rng)
            objectives = [
                tuple(F(rng.randint(-5, 5)) for _ in range(lp.n))
                for _ in range(rng.randint(2, 4))
            ]
            result = solve_minmax(objectives, lp)
            if result.status == "infeasible":
                assert solve_min(lp).status == "infeasible"
                continue
            assert satisfies(lp, result.witness)
            assert max(dot(c, result.witness) for c in objectives) == result.value
            for c in objectives:
                assert solve_min(lp.with_objective(c)).value <= result.value


class TestVertexEnumeration:
    def test_full_simplex_vertices(self):
        assert enumerate_vertices(SimplexLP(3)) == frozenset(
            {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        )

    def test_tight_dice_bounds_pin_uniform(self):
        cons = tuple(Constraint(unit_row(6, j), ">=", F(1, 6)) for j in range(6))
        assert enumerate_vertices(SimplexLP(6, None, cons)) == frozenset(
            {(F(1, 6),) * 6}
        )

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_vertices(SimplexLP(9))

    def test_envelope_equality_on_random_lps(self):
        rng = random.Random(200)
        checked = 0
        while checked < 40:
            n = rng.randint(2, 5)
            cons = tuple(
                Constraint(
                    tuple(F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)),
                    ">=",
                    F(rng.randint(-8, 1), 2),
                )
                for _ in range(rng.randint(1, 4))
            )
            lp = SimplexLP(n, tuple(F(rng.randint(-5, 5)) for _ in range(n)), cons)
            vertices = enumerate_vertices(lp)
            result = solve_min(lp)
            if not vertices:
                assert result.status == "infeasible"
                continue
            best = min(
                sum(c * v for c, v in zip(lp.objective, vertex)) for vertex in vertices
            )
            assert result.value == best
            checked += 1

    def test_vertices_satisfy_constraints(self):
        rng = random.Random(300)
        for _ in range(20):
            n = rng.randint(2, 4)
            cons = tuple(
                Constraint(
                    tuple(F(rng.randint(-3, 3)) for _ in range(n)),
                    ">=",
                    F(rng.randint(-6, 0), 2),
                )
                for _ in range(rng.randint(1, 3))
            )
            lp = SimplexLP(n, None, cons)
            for vertex in enumerate_vertices(lp):
                assert satisfies(lp, vertex)


class TestFractional:
    def test_constant_denominator_reduces_to_linear(self):
        lp = SimplexLP(3, None)
        num = (F(0), F(1), F(2))
        den = (F(1), F(1), F(1))
        assert solve_fractional_min(num, den, lp).value == solve_min(
            lp.with_objective(num)
        ).value

    def test_two_point_ratio(self):
        result = solve_fractional_min((F(1), F(0)), (F(1), F(1)), SimplexLP(2))
        assert result.value == 0 and result.witness == (0, 1)

    def test_matches_per_vertex_ratio_minimum(self):
        rng = random.Random(400)
        done = 0
        while done < 25:
            n = rng.randint(2, 4)
            cons = tuple(
                Constraint(
                    tuple(F(rng.randint(-3, 3)) for _ in range(n)),
                    ">=",
                    F(rng.randint(-6, 0), 2),
                )
                for _ in range(rng.randint(0, 3))
            )
            lp = SimplexLP(n, None, cons)
            den = tuple(F(rng.randint(1, 5)) for _ in range(n))  # positive everywhere
            num = tuple(F(rng.randint(-5, 5)) for _ in range(n))
            vertices = enumerate_vertices(lp)
            if not vertices:
                continue
            oracle = min(
                sum(a * v for a, v in zip(num, vertex))
                / sum(b * v for b, v in zip(den, vertex))
                for vertex in vertices
            )
            assert solve_fractional_min(num, den, lp).value == oracle
            done += 1

    def test_positivity_violation_reported(self):
        with pytest.raises(PositivityError):
            solve_fractional_min((F(1), F(0)), (F(1), F(0)), SimplexLP(2))


class TestPolytopeGeometry:
    def test_extreme_points_filter(self):
        pts = [(F(0), F(0)), (F(1), F(0)), (F(1, 2), F(0)), (F(0), F(1))]
        assert extreme_points(pts) == [(0, 0), (0, 1), (1, 0)]

    @staticmethod
    def _tableau_extreme_points(points):
        """p is extreme iff A.w = p, sum(w) = 1, w >= 0 over the others is infeasible."""
        pts = sorted(set(tuple(F(v) for v in p) for p in points))
        if len(pts) <= 2:
            return pts
        out = []
        for i, p in enumerate(pts):
            others = [q for j, q in enumerate(pts) if j != i]
            rows = [[q[k] for q in others] for k in range(len(p))]
            rows.append([F(1)] * len(others))
            status, _, _ = solve_standard(rows, list(p) + [F(1)], [F(0)] * len(others))
            if status == "infeasible":
                out.append(p)
        return out

    def test_extreme_points_agree_with_tableau(self):
        rng = random.Random(4242)
        dropped = kept = 0
        for _ in range(500):
            dim = rng.randint(1, 4)
            pts = [
                tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim))
                for _ in range(rng.randint(1, 6))
            ]
            for _ in range(rng.randint(0, 3)):  # midpoints, three-way mixtures, repeats
                a, b, c = (rng.choice(pts) for _ in range(3))
                pts.append(tuple((x + y) / 2 for x, y in zip(a, b)))
                pts.append(tuple((x + y + z) / 3 for x, y, z in zip(a, b, c)))
                pts.append(rng.choice(pts))
            rng.shuffle(pts)
            expected = self._tableau_extreme_points(pts)
            assert extreme_points(pts) == expected
            kept += len(expected)
            dropped += len(set(pts)) - len(expected)
        assert kept >= 500 and dropped >= 500

    def test_hull_round_trip(self):
        rng = random.Random(500)
        for _ in range(10):
            n = rng.randint(2, 4)
            cons = tuple(
                Constraint(
                    tuple(F(rng.randint(-3, 3)) for _ in range(n)),
                    ">=",
                    F(rng.randint(-5, 0), 2),
                )
                for _ in range(rng.randint(1, 3))
            )
            lp = SimplexLP(n, None, cons)
            vertices = sorted(enumerate_vertices(lp))
            if not vertices:
                continue
            equalities, inequalities = polytope_inequalities(vertices)
            rebuilt = SimplexLP(
                n,
                None,
                tuple(Constraint(c, "==", r) for c, r in equalities)
                + tuple(Constraint(c, ">=", r) for c, r in inequalities),
            )
            assert enumerate_vertices(rebuilt) == frozenset(vertices)


class TestDegenerateTermination:
    def test_beale_cycling_trap(self):
        # degenerate programme that cycles under naive pivoting; Bland's
        # rule must terminate at the known optimum
        rows = [
            [F(1, 4), F(-60), F(-1, 25), F(9), F(1), F(0), F(0)],
            [F(1, 2), F(-90), F(-1, 50), F(3), F(0), F(1), F(0)],
            [F(0), F(0), F(1), F(0), F(0), F(0), F(1)],
        ]
        rhs = [F(0), F(0), F(1)]
        cost = [F(-3, 4), F(150), F(-1, 50), F(6), F(0), F(0), F(0)]
        from lowprev.solver import solve_standard

        status, value, x = solve_standard(rows, rhs, cost)
        assert status == "optimal"
        assert value == F(-1, 20)
        assert x[0] == F(1, 25) and x[2] == 1

    def test_scaled_simplex_closed_form_vertices(self):
        # p_x >= 1/12 on six outcomes: a shrunken simplex whose vertices
        # put the leftover mass 1/2 on one outcome each
        cons = tuple(Constraint(unit_row(6, j), ">=", F(1, 12)) for j in range(6))
        expected = set()
        for i in range(6):
            vertex = [F(1, 12)] * 6
            vertex[i] += F(1, 2)
            expected.add(tuple(vertex))
        assert enumerate_vertices(SimplexLP(6, None, cons)) == frozenset(expected)


class TestIntervalBounds:
    def test_two_sided_bounds_stay_inequalities(self):
        # 1/4 <= p1 <= 1/2 encoded as a pair of opposite rows with slack
        lp = SimplexLP(
            2,
            None,
            (
                Constraint((F(1), F(0)), ">=", F(1, 4)),
                Constraint((F(-1), F(0)), ">=", F(-1, 2)),
            ),
        )
        assert enumerate_vertices(lp) == frozenset(
            {(F(1, 4), F(3, 4)), (F(1, 2), F(1, 2))}
        )

    def test_exact_pair_collapses_to_equality(self):
        lp = SimplexLP(
            3,
            None,
            (
                Constraint((F(1), F(0), F(0)), ">=", F(1, 3)),
                Constraint((F(-1), F(0), F(0)), ">=", F(-1, 3)),
            ),
        )
        assert enumerate_vertices(lp) == frozenset(
            {(F(1, 3), F(2, 3), F(0)), (F(1, 3), F(0), F(2, 3))}
        )


def _independent_solution(cols, b):
    """x with sum_j x_j cols[j] == b, or None if inconsistent or not unique."""
    m, k = len(b), len(cols)
    aug = [[col[i] for col in cols] + [b[i]] for i in range(m)]
    for j in range(k):
        piv = next((i for i in range(j, m) if aug[i][j] != 0), None)
        if piv is None:
            return None  # dependent columns
        aug[j], aug[piv] = aug[piv], aug[j]
        aug[j] = [v / aug[j][j] for v in aug[j]]
        for i in range(m):
            if i != j and aug[i][j] != 0:
                f = aug[i][j]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[j])]
    if any(aug[i][k] != 0 for i in range(k, m)):
        return None
    return [aug[i][k] for i in range(k)]


def basis_oracle(a_rows, b, c):
    """min c.x over A.x = b, x >= 0 by enumerating basic feasible solutions.

    Supports of at most m independent columns reach every vertex, redundant
    rows included; the caller keeps the polyhedron bounded.
    """
    m, n = len(a_rows), len(c)
    cols = [[row[j] for row in a_rows] for j in range(n)]
    best = None
    for size in range(min(m, n) + 1):
        for support in itertools.combinations(range(n), size):
            xs = _independent_solution([cols[j] for j in support], b)
            if xs is None or any(v < 0 for v in xs):
                continue
            value = sum((c[j] * v for j, v in zip(support, xs)), F(0))
            best = value if best is None else min(best, value)
    return ("infeasible", None) if best is None else ("optimal", best)


class TestSolveStandardOracle:
    @staticmethod
    def random_program(rng):
        m, n = rng.randint(1, 3), rng.randint(1, 6)
        rows = [
            [F(rng.randint(-5, 5), rng.choice([1, 2, 3, 5])) for _ in range(n)]
            for _ in range(m)
        ]
        rhs = [F(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(m)]
        if rng.random() < 0.5:  # feasible: the rows at a point of the simplex
            point = [F(rng.randint(0, 2)) for _ in range(n - 1)] + [F(1)]
            point = [v / sum(point) for v in point]
            rhs = [dot(row, point) for row in rows]
        if m >= 2 and rng.random() < 0.4:  # a redundant row, possibly negated
            i, j = rng.sample(range(m), 2)
            k = F(rng.choice([-3, -1, 2]), rng.choice([1, 2]))
            rows[j], rhs[j] = [k * v for v in rows[i]], k * rhs[i]
        at = rng.randint(0, m)  # sum(x) == 1 keeps the program bounded
        rows.insert(at, [F(1)] * n)
        rhs.insert(at, F(1))
        cost = [F(rng.randint(-5, 5), rng.choice([1, 2, 4])) for _ in range(n)]
        return rows, rhs, cost

    def check(self, rows, rhs, cost):
        status, value, x = solve_standard(rows, rhs, cost)
        assert (status, value) == basis_oracle(rows, rhs, cost)
        if status == "optimal":
            assert all(v >= 0 for v in x)
            assert all(dot(row, x) == r for row, r in zip(rows, rhs))
            assert dot(cost, x) == value
        return status

    def test_matches_basis_enumeration(self):
        rng = random.Random(600)
        statuses = [self.check(*self.random_program(rng)) for _ in range(300)]
        assert 50 <= statuses.count("infeasible") <= 250

    def test_redundant_row_driven_out_by_a_negative_pivot(self):
        # the third row is -2 times the second; after phase 1 its artificial
        # stays basic at 0 and leaves on a negative entry
        rows = [[F(1), F(1), F(1)], [F(-1, 2), F(1, 2), F(1, 2)], [F(1), F(-1), F(-1)]]
        rhs = [F(1), F(1, 2), F(-1)]
        assert self.check(rows, rhs, [F(-2), F(-2), F(0)]) == "optimal"
        assert solve_standard(rows, rhs, [F(-2), F(-2), F(0)]) == ("optimal", F(-2), (0, 1, 0))


class TestPivotPath:
    """Literal witnesses of degenerate LPs with tied optima.

    Each optimum is attained at more than one point; the witness is the one
    Bland's rule reaches, so these pin the pivot path, not only the value.
    """

    TWO = SimplexLP(
        2,
        None,
        (
            Constraint((F(1), F(0)), ">=", F(1, 4)),
            Constraint((F(-1), F(0)), ">=", F(-1, 2)),
        ),
    )
    THREE = SimplexLP(
        3,
        None,
        (
            Constraint((F(1), F(0), F(0)), ">=", F(1, 3)),
            Constraint((F(-1), F(0), F(0)), ">=", F(-1, 3)),
        ),
    )
    DICE = SimplexLP(
        6,
        (F(1), F(1), F(0), F(0), F(0), F(1)),
        tuple(Constraint(unit_row(6, j), ">=", F(1, 12)) for j in range(6)),
    )

    def test_solve_min(self):
        assert solve_min(self.TWO) == LPResult("optimal", 0, (F(1, 2), F(1, 2)))
        assert solve_min(self.THREE) == LPResult("optimal", 0, (F(1, 3), F(2, 3), 0))
        tied = self.THREE.with_objective((F(0), F(1), F(1)))
        assert solve_min(tied) == LPResult("optimal", F(2, 3), (F(1, 3), F(2, 3), 0))
        assert solve_min(self.DICE) == LPResult(
            "optimal", F(1, 4), (F(1, 12), F(1, 12), F(7, 12), F(1, 12), F(1, 12), F(1, 12))
        )

    def test_solve_minmax(self):
        result = solve_minmax([(F(1), F(0)), (F(0), F(1))], self.TWO)
        assert result == LPResult("optimal", F(1, 2), (F(1, 2), F(1, 2)))
        result = solve_minmax([(F(0), F(1), F(1))] * 2, self.THREE)
        assert result == LPResult("optimal", F(2, 3), (F(1, 3), F(2, 3), 0))
        pairs = [(F(1), F(1), F(0), F(0), F(0), F(0)), (F(0), F(0), F(1), F(1), F(0), F(0))]
        assert solve_minmax(pairs, self.DICE) == LPResult(
            "optimal", F(1, 6), (F(1, 12), F(1, 12), F(1, 12), F(1, 12), F(7, 12), F(1, 12))
        )

    def test_solve_fractional_min(self):
        result = solve_fractional_min((F(0), F(1), F(1)), (F(1), F(2), F(2)), self.THREE)
        assert result == LPResult("optimal", F(2, 5), (F(1, 3), F(2, 3), 0))
        result = solve_fractional_min((F(0), F(0)), (F(1), F(2)), self.TWO)
        assert result == LPResult("optimal", 0, (F(1, 2), F(1, 2)))
        num = (F(1), F(1), F(0), F(0), F(0), F(1))
        den = (F(1), F(1), F(1), F(1), F(2), F(2))
        assert solve_fractional_min(num, den, self.DICE) == LPResult(
            "optimal", F(3, 20), (F(1, 12), F(1, 12), F(1, 12), F(1, 12), F(7, 12), F(1, 12))
        )

    def test_beale_witness(self):
        rows = [
            [F(1, 4), F(-60), F(-1, 25), F(9), F(1), F(0), F(0)],
            [F(1, 2), F(-90), F(-1, 50), F(3), F(0), F(1), F(0)],
            [F(0), F(0), F(1), F(0), F(0), F(0), F(1)],
        ]
        cost = [F(-3, 4), F(150), F(-1, 50), F(6), F(0), F(0), F(0)]
        assert solve_standard(rows, [F(0), F(0), F(1)], cost) == (
            "optimal", F(-1, 20), (F(1, 25), 0, 1, 0, F(3, 100), 0, 0)
        )


def reference_pivot(rows, basis, d, r, k, path):
    """Fraction-free pivot on entry (r, k) of a tableau storing every column."""
    path.append((r, k))
    prow = rows[r]
    p = prow[k]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[k]
        if f:
            rows[i] = [(p * v - f * w) // d for v, w in zip(row, prow)]
        elif p != d:
            rows[i] = [p * v // d for v in row]
    basis[r] = k
    if p < 0:
        rows[:] = [[-v for v in row] for row in rows]
        p = -p
    return p


def reference_bland_min(rows, basis, d, ncols, path):
    m = len(basis)
    while True:
        z = rows[-1]
        entering = next((j for j in range(ncols) if z[j] < 0), -1)
        if entering < 0:
            return "optimal", d
        leaving = -1
        for i in range(m):
            a = rows[i][entering]
            if a > 0:
                if leaving < 0:
                    leaving, a_best, b_best = i, a, rows[i][-1]
                    continue
                lhs, rhs = rows[i][-1] * a_best, b_best * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving, a_best, b_best = i, a, rows[i][-1]
        if leaving < 0:
            return "unbounded", d
        d = reference_pivot(rows, basis, d, leaving, entering, path)


def all_artificial_solve_standard(a_rows, b, c, path):
    """The two-phase kernel with one stored artificial column per row.

    Appends each pivot's (row, column) to ``path``; artificial i is column
    len(c) + i, as in the library's basis.
    """
    m = len(a_rows)
    n = len(c)
    rows, scales = [], []
    for i in range(m):
        ints, s = _scaled(list(a_rows[i]) + [b[i]])
        if ints[-1] < 0:
            ints = [-v for v in ints]
        art = [0] * m
        art[i] = 1
        rows.append(ints[:n] + art + ints[n:])
        scales.append(s)
    top = math.lcm(*scales)
    cost = [0] * (n + m + 1)
    for s, row in zip(scales, rows):
        w = top // s
        cost = [v - w * a for v, a in zip(cost, row)]
    cost[n:n + m] = [0] * m
    rows.append(cost)
    basis = [n + i for i in range(m)]
    _, d = reference_bland_min(rows, basis, 1, n + m, path)
    rows.pop()
    if any(rows[i][-1] for i in range(m) if basis[i] >= n):
        return "infeasible", None, None
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j] != 0), None)
            if col is not None:
                d = reference_pivot(rows, basis, d, i, col, path)
    keep = [i for i in range(m) if basis[i] < n]
    rows = [rows[i][:n] + [rows[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    cints, s = _scaled(c)
    cost = [d * v for v in cints] + [0]
    for bi, row in zip(basis, rows):
        if cints[bi]:
            cost = [v - cints[bi] * a for v, a in zip(cost, row)]
    rows.append(cost)
    status, d = reference_bland_min(rows, basis, d, n, path)
    if status == "unbounded":
        return "unbounded", None, None
    x = [F(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = F(rows[i][-1], d)
    return "optimal", F(-rows[-1][-1], d * s), tuple(x)


class TestUnstoredArtificials:
    """The kernel against a tableau that stores every artificial column.

    A row with a column zero in every other row, a slack's, has its
    artificial read from that column, so both must give the same answers
    by the same pivots, artificial entries included.
    """

    @staticmethod
    def random_program(rng):
        m, n = rng.randint(4, 8), rng.randint(2, 4)
        magnitudes = [F(1, 3), F(1), F(2), F(3), F(7)]

        def entry():
            return rng.choice([-1, 1]) * rng.choice(magnitudes) if rng.random() < 0.9 else F(0)

        rows = [[entry() for _ in range(n)] for _ in range(m)]
        for i in range(m):  # singleton columns of either sign
            if rng.random() < 0.7:
                v = rng.choice([-1, 1]) * rng.choice(magnitudes)
                for k, row in enumerate(rows):
                    row.append(v if k == i else F(0))
        # a zero, degenerate rhs 60% of the time, else often a negative one
        rhs = [
            F(0) if rng.random() < 0.6 else F(rng.randint(-4, 4), rng.choice([1, 2, 3]))
            for _ in range(m)
        ]
        if rng.random() < 0.2:  # a redundant row, possibly negated
            i, j = rng.sample(range(m), 2)
            k = F(rng.choice([-3, -1, 2]), rng.choice([1, 2]))
            rows[j], rhs[j] = [k * v for v in rows[i]], k * rhs[i]
        width = len(rows[0])
        order = rng.sample(range(width), width)
        rows = [[row[j] for j in order] for row in rows]
        if rng.random() < 0.1:  # bounded by sum(x) == 1
            at = rng.randint(0, m)
            rows.insert(at, [F(1)] * width)
            rhs.insert(at, F(1))
        cost = [F(rng.randint(-5, 5), rng.choice([1, 2, 4])) for _ in range(width)]
        return rows, rhs, cost

    @staticmethod
    def rows_with_a_singleton(rows):
        out = set()
        for j in range(len(rows[0])):
            hits = [i for i, row in enumerate(rows) if row[j]]
            if len(hits) == 1:
                out.add(hits[0])
        return out

    def test_same_answers_by_the_same_pivots(self, monkeypatch):
        path = []
        pivot = solver._pivot

        def recorded(rows, basis, d, r, k, col):
            path.append((r, k))
            return pivot(rows, basis, d, r, k, col)

        monkeypatch.setattr(solver, "_pivot", recorded)
        rng = random.Random(1801)
        statuses, unstored_entries = [], 0
        for _ in range(6000):
            rows, rhs, cost = self.random_program(rng)
            expected_path = []
            expected = all_artificial_solve_standard(rows, rhs, cost, expected_path)
            path.clear()
            assert solver.solve_standard(rows, rhs, cost) == expected
            assert path == expected_path
            n, singles = len(cost), self.rows_with_a_singleton(rows)
            unstored_entries += sum(1 for _, k in path if k >= n and k - n in singles)
            statuses.append(expected[0])
        assert unstored_entries >= 100
        assert min(statuses.count(s) for s in ("optimal", "infeasible", "unbounded")) >= 300


def d_subset_inequalities(points):
    """Reference hull H-representation: a hyperplane through every d points.

    A brute-force search independent of the polar: reduce to coordinates
    in the affine hull, then keep each hyperplane through d affinely
    independent points with every point on one side.  Returns
    (equalities, inequalities) like ``polytope_inequalities``.
    """
    pts = sorted({tuple(F(v) for v in p) for p in points})
    n = len(pts[0])
    x0 = pts[0]
    diffs = [[p[i] - x0[i] for i in range(n)] for p in pts[1:]]
    basis, pivots = _row_reduce(diffs) if diffs else ([], [])
    d = len(basis)
    equalities = []
    for j in (j for j in range(n) if j not in pivots):
        coeffs = [F(0)] * n
        coeffs[j] = F(1)
        for row, p in zip(basis, pivots):
            coeffs[p] = -row[j]
        equalities.append((tuple(coeffs), dot(coeffs, x0)))
    if d == 0:
        return equalities, []
    coords = [tuple(p[piv] - x0[piv] for piv in pivots) for p in pts]
    inequalities, seen = [], set()
    for combo in itertools.combinations(range(len(coords)), d):
        mat = [
            [coords[combo[k]][j] - coords[combo[0]][j] for j in range(d)]
            for k in range(1, d)
        ]
        nullspace = _solve_affine(mat, [F(0)] * (d - 1), d)[1]
        if len(nullspace) != 1:
            continue
        normal = nullspace[0]
        c0 = dot(normal, coords[combo[0]])
        sides = [dot(normal, q) - c0 for q in coords]
        if all(s <= 0 for s in sides):
            normal, c0 = [-a for a in normal], -c0
        elif not all(s >= 0 for s in sides):
            continue
        key = _primitive(tuple(normal) + (c0,))
        if key in seen:
            continue
        seen.add(key)
        coeffs = [F(0)] * n
        for j, piv in enumerate(pivots):
            coeffs[piv] += normal[j]
        rhs = c0 + sum(normal[j] * x0[pivots[j]] for j in range(d))
        inequalities.append((tuple(coeffs), rhs))
    return equalities, inequalities


def _rank(vectors):
    return len(_row_reduce(vectors)[0]) if vectors else 0


class TestFacetsFromThePolar:
    """``polytope_inequalities`` against the d-subset search."""

    @staticmethod
    def random_points(rng):
        n = rng.randint(1, 5)
        k = rng.randint(1, 8)
        kind = rng.choice(["simplex", "free", "flat"])
        if kind == "simplex":  # mass functions, so one equality is sum(x) == 1
            pts = []
            for _ in range(k):
                w = [rng.randint(0, 3) for _ in range(n)]
                w[rng.randrange(n)] += 1
                pts.append(tuple(F(v, sum(w)) for v in w))
        elif kind == "free":
            pts = [tuple(F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)) for _ in range(k)]
        else:  # affine combinations of a few points: a lower-dimensional hull
            base = [tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(rng.randint(1, n))]
            pts = []
            for _ in range(k):
                w = [F(rng.randint(-2, 3)) for _ in base]
                w[0] += 1 - sum(w)
                pts.append(tuple(sum(a * p[i] for a, p in zip(w, base)) for i in range(n)))
        if k >= 3 and rng.random() < 0.3:  # a midpoint, never a vertex
            p, q = rng.sample(pts[1:], 2)
            pts[0] = tuple((a + b) / 2 for a, b in zip(p, q))
        if k >= 2 and rng.random() < 0.3:  # a repeated point
            pts[-1] = pts[-2]
        return pts

    @staticmethod
    def slacks(inequalities, pts):
        out = set()
        for a, b in inequalities:
            s = [dot(a, p) - b for p in pts]
            out.add(tuple(v / sum(s) for v in s))
        return out

    def test_matches_the_d_subset_search(self):
        rng = random.Random(1700)
        facets = flat = 0
        for _ in range(1000):
            points = self.random_points(rng)
            pts = sorted(set(points))
            equalities, inequalities = polytope_inequalities(points)
            ref_eqs, ref_ineqs = d_subset_inequalities(points)
            assert self.slacks(inequalities, pts) == self.slacks(ref_ineqs, pts)
            assert len(inequalities) == len(ref_ineqs)
            new = [tuple(a) + (-b,) for a, b in equalities]
            ref = [tuple(a) + (-b,) for a, b in ref_eqs]
            assert _rank(new) == _rank(ref) == _rank(new + ref) == len(new)
            for a, b in inequalities:
                assert all(v.denominator == 1 for v in a + (b,))
                assert math.gcd(*(int(v) for v in a + (b,))) == 1
            facets += len(inequalities)
            flat += len(equalities) >= 2
        assert facets >= 2500 and flat >= 300

    def test_one_point_has_no_facets(self):
        point = (F(1, 3), F(2, 3))
        equalities, inequalities = polytope_inequalities([point] * 2)
        assert inequalities == []
        assert _rank([tuple(a) + (-b,) for a, b in equalities]) == 2
        assert all(dot(a, point) == b for a, b in equalities)

    def test_segment_and_triangle(self):
        assert polytope_inequalities([(F(0),), (F(2),)]) == ([], [((F(1),), F(0)), ((F(-1),), F(-2))])
        _, triangle = polytope_inequalities([(0, 0), (1, 0), (0, 1), (F(1, 3), F(1, 3))])
        assert sorted(triangle) == sorted(
            [((F(1), F(0)), F(0)), ((F(0), F(1)), F(0)), ((F(-1), F(-1)), F(-1))]
        )


def fraction_row_reduce(rows):
    """Reference reduced row echelon form by Fraction Gauss-Jordan.

    The elimination ``_row_reduce`` ran before it became fraction-free:
    each pivot row is divided by its pivot, then cleared from the others.
    """
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivval = rows[r][col]
        rows[r] = [v / pivval for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


class TestFractionFreeRowReduce:
    """``_row_reduce`` on the kernel's integer pivot against Fraction elimination."""

    @staticmethod
    def random_matrix(rng):
        m, n = rng.randint(0, 6), rng.randint(1, 7)
        dens = [1] if rng.random() < 0.3 else [1, 2, 3, 5, 12]

        def entry():
            if rng.random() < 0.3:
                return F(0)
            return F(rng.randint(-9, 9), rng.choice(dens))

        rows = [[entry() for _ in range(n)] for _ in range(m)]
        for i in range(1, m):
            roll = rng.random()
            if roll < 0.2:  # a combination of earlier rows
                a, b = rng.randrange(i), rng.randrange(i)
                s, t = F(rng.randint(-3, 3), rng.choice([1, 2])), F(rng.randint(-3, 3))
                rows[i] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
            elif roll < 0.3:
                rows[i] = [F(0)] * n
        return rows

    def test_same_rref_as_fraction_elimination(self, monkeypatch):
        negative = []
        pivot = solver._pivot

        def recorded(rows, basis, d, r, k, col):
            negative.append(col[r] < 0)
            return pivot(rows, basis, d, r, k, col)

        monkeypatch.setattr(solver, "_pivot", recorded)
        rng = random.Random(2100)
        shapes, dependent, zero_rows, mixed = set(), 0, 0, 0
        for _ in range(1500):
            rows = self.random_matrix(rng)
            got = _row_reduce(rows)
            assert got == fraction_row_reduce(rows)
            assert all(type(v) is F for row in got[0] for v in row)
            shapes.add((len(rows), len(rows[0]) if rows else 0))
            dependent += len(got[0]) < min(len(rows), len(rows[0])) if rows else 0
            zero_rows += any(not any(row) for row in rows)
            mixed += len({v.denominator for row in rows for v in row}) > 1
        assert {m for m, _ in shapes} == set(range(7))
        assert {n for m, n in shapes if m} == set(range(1, 8))
        assert min(dependent, zero_rows, mixed) >= 200
        assert sum(negative) >= 1000
        assert _row_reduce([]) == fraction_row_reduce([]) == ([], [])

    def test_no_equations_leave_the_whole_space(self):
        x0, basis = _solve_affine([], [], 3)
        assert x0 == [F(0)] * 3
        assert basis == [list(unit_row(3, j)) for j in range(3)]

    def test_inconsistent_system_has_no_solution(self):
        assert _solve_affine([[F(0)]], [F(1)], 1) is None

    def test_duplicated_row_is_dropped(self):
        row = [F(2), F(-4, 3)]
        assert _row_reduce([row + [F(6)], row + [F(6)]]) == ([[F(1), F(-2, 3), F(3)]], [0])
        assert _solve_affine([row, row], [F(6), F(6)], 2) == ([F(3), F(0)], [[F(2, 3), F(1)]])
