"""Exact rational linear programming over the probability simplex.

A small two-phase simplex tableau with Bland's pivoting rule.  Inputs and
outputs are :class:`fractions.Fraction`; the tableau itself is integer,
over one common denominator, pivoted by exact integer division
(fraction-free pivoting after Edmonds and Bareiss, as in Avis's lrs).
Bland's rule guarantees termination, and exact arithmetic makes optimality
and feasibility decisions sharp, so callers can assert equalities rather
than tolerances.  Phase 1 stores an artificial column only for a row with
no slack-like column, one zero in every other row; such a column is a
fixed multiple of its row's artificial, so the narrower tableau takes the
same pivots.

On top of the raw solver sit the four operations the rest of the library
uses: minimising a linear objective over a polytope inside the simplex,
minimising the pointwise maximum of finitely many linear objectives,
enumerating the polytope's extreme points, and minimising a ratio of two
linear functionals via the Charnes-Cooper change of variables.  All LPs
over a polytope share one standard-form encoding of its rows, and the one
vertex search also finds a hull's facets, as the vertices of its polar.
Row reduction is fraction-free too: the simplex pivot is the one elimination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Literal, Sequence

from .errors import CapExceededError, PositivityError
from .rationals import frac

ZERO = Fraction(0)
ONE = Fraction(1)

Relation = Literal[">=", "=="]

VERTEX_CAP = 8


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: Relation
    rhs: Fraction


@dataclass(frozen=True)
class SimplexLP:
    """min/feasibility data for a polytope inside the probability simplex.

    Variables are a probability mass function p over ``n`` outcomes; the
    constraints ``p >= 0`` and ``sum(p) == 1`` are implicit.
    """

    n: int
    objective: tuple[Fraction, ...] = field(default=None)  # type: ignore[assignment]
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self):
        obj = self.objective
        if obj is None:
            obj = (ZERO,) * self.n
        obj = tuple(frac(c) for c in obj)
        if len(obj) != self.n:
            raise ValueError("objective length differs from variable count")
        rows = []
        for c in self.constraints:
            coeffs = tuple(frac(v) for v in c.coeffs)
            if len(coeffs) != self.n:
                raise ValueError("constraint row length differs from variable count")
            if c.relation not in (">=", "=="):
                raise ValueError(f"unsupported relation {c.relation!r}")
            rows.append(Constraint(coeffs, c.relation, frac(c.rhs)))
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraints", tuple(rows))

    def with_objective(self, objective: Sequence) -> "SimplexLP":
        """The same polytope under another objective; its rows stay as validated."""
        lp = SimplexLP(self.n, objective)
        object.__setattr__(lp, "constraints", self.constraints)
        return lp


@dataclass(frozen=True)
class LPResult:
    status: Literal["optimal", "infeasible"]
    value: Fraction | None = None
    witness: tuple[Fraction, ...] | None = None


# ---------------------------------------------------------------------------
# standard-form core: min c.x  s.t.  A.x = b, x >= 0
# ---------------------------------------------------------------------------

def _pivot(rows, basis, d, r, k, col):
    """Fraction-free pivot on row r and logical column k, entries ``col``.

    ``col`` has an entry per row, the objective's too, so an unstored
    column can enter.  Every row is rescaled to the new common denominator,
    the pivot entry; the division by the old one is exact (Bareiss).  A
    negative pivot, from driving an artificial out or in row reduction,
    negates every row so the denominator stays positive.  Returns it.
    """
    prow = rows[r]
    p = col[r]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = col[i]
        if f:
            rows[i] = [(p * v - f * w) // d for v, w in zip(row, prow)]
        elif p != d:
            rows[i] = [p * v // d for v in row]
    basis[r] = k
    if p < 0:
        rows[:] = [[-v for v in row] for row in rows]
        p = -p
    return p


def _bland_min(rows, basis, d, n, artificials=()):
    """Run primal simplex to optimality on a min problem.

    ``rows`` holds one row per basic variable and, last, the reduced-cost
    row scaled by the denominator ``d``; each ends with its rhs.  The
    first ``n`` columns are structural.  Artificial i, logical column
    n + i, is read from stored column j as (j, c, w): its entries are
    column j's over c, its reduced cost d.w more.  Returns the status,
    'optimal' or 'unbounded', and the final denominator.
    """
    m = len(basis)
    while True:
        z = rows[-1]
        k = next((j for j in range(n) if z[j] < 0), -1)  # Bland
        if k >= 0:
            col = [row[k] for row in rows]
        else:
            for i, (j, c, w) in enumerate(artificials):
                cost = d * w + z[j] // c
                if cost < 0:
                    k = n + i
                    col = [row[j] // c for row in rows[:-1]] + [cost]
                    break
            else:
                return "optimal", d
        leaving = -1
        for i in range(m):
            a = col[i]
            if a > 0:
                if leaving < 0:
                    leaving, a_best, b_best = i, a, rows[i][-1]
                    continue
                # rhs_i / a < b_best / a_best, cross-multiplied
                lhs, rhs = rows[i][-1] * a_best, b_best * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving, a_best, b_best = i, a, rows[i][-1]
        if leaving < 0:
            return "unbounded", d
        d = _pivot(rows, basis, d, leaving, k, col)


def _scaled(values):
    """Integers proportional to rationals: (ints, lcm of the denominators)."""
    # star-args from a list: a generator would leave resized tuples piling
    # up in the interpreter's per-size tuple free lists
    s = lcm(*[v.denominator for v in values])
    return [v.numerator * (s // v.denominator) for v in values], s


def solve_standard(a_rows, b, c):
    """Exact two-phase simplex for min c.x s.t. A.x = b, x >= 0.

    Returns (status, value, x) with status one of 'optimal', 'infeasible',
    'unbounded'.  Each row is scaled to integers by the lcm of its
    denominators, and the tableau is kept as integers over one common
    denominator.

    Phase 1 has one artificial per row, but stores its column only when
    no column j is zero outside row i.  Such a column, a slack's, starts
    as c_i times artificial i's and row operations keep it so; artificial
    columns hold integer cofactors, so artificial i reads exactly as
    column j over c_i, its reduced cost d.w_i more (w_i its cost).  It is
    built when Bland's scan reaches the artificials, so every pivot is
    the one the tableau with every artificial column would take.
    """
    m = len(a_rows)
    n = len(c)
    # rows scaled to integers, rhs made non-negative
    rows, scales = [], []
    for i in range(m):
        ints, s = _scaled(list(a_rows[i]) + [b[i]])
        rows.append([-v for v in ints] if ints[-1] < 0 else ints)
        scales.append(s)
    # artificial i costs lcm/s_i: the unit cost of the unscaled artificial,
    # times lcm; its reduced costs start at minus the weighted row sum
    top = lcm(*scales)
    weights = [top // s for s in scales]
    cost = [0] * (n + 1)
    for w, row in zip(weights, rows):
        cost = [v - w * a for v, a in zip(cost, row)]
    # a column zero outside row i, a slack's, carries artificial i as
    # (j, c_i, w_i); the other artificials are stored, as (column, 1, 0)
    owner = {}
    for j in range(n):
        hits = [i for i, row in enumerate(rows) if row[j]]
        if len(hits) == 1:
            owner.setdefault(hits[0], j)
    stored = [i for i in range(m) if i not in owner]
    artificials = [
        (owner[i], rows[i][owner[i]], weights[i]) if i in owner else (n + stored.index(i), 1, 0)
        for i in range(m)
    ]
    rows = [row[:n] + [int(t == i) for t in stored] + row[n:] for i, row in enumerate(rows)]
    rows.append(cost[:n] + [0] * len(stored) + cost[n:])
    basis = [n + i for i in range(m)]
    _, d = _bland_min(rows, basis, 1, n, artificials)
    rows.pop()
    if any(rows[i][-1] for i in range(m) if basis[i] >= n):
        return "infeasible", None, None
    # drive leftover artificials out of the basis (degenerate at 0)
    for i in range(m):
        if basis[i] >= n:
            k = next((j for j in range(n) if rows[i][j] != 0), None)
            if k is not None:
                d = _pivot(rows, basis, d, i, k, [row[k] for row in rows])
    # drop redundant rows still pinned to an artificial
    keep = [i for i in range(m) if basis[i] < n]
    rows = [rows[i][:n] + [rows[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    # phase 2 from the reduced costs d.c - c_B.rows, c scaled to integers
    cints, s = _scaled(c)
    cost = [d * v for v in cints] + [0]
    for bi, row in zip(basis, rows):
        if cints[bi]:
            cost = [v - cints[bi] * a for v, a in zip(cost, row)]
    rows.append(cost)
    status, d = _bland_min(rows, basis, d, n)
    if status == "unbounded":
        return "unbounded", None, None
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        x[bi] = Fraction(rows[i][-1], d)
    return "optimal", Fraction(-rows[-1][-1], d * s), tuple(x)


# ---------------------------------------------------------------------------
# simplex-polytope layer
# ---------------------------------------------------------------------------

def _standard_form(lp: SimplexLP, objective):
    """Rewrite a SimplexLP as (A, b, c) in equality standard form.

    Slack variables are appended for the >= rows; the simplex equation
    sum(p) == 1 is the first row.  This is the one encoding of a polytope
    in the simplex, and every LP goes through it: the fractional and
    min-max programs extend its rows, and the desirability and hull
    questions are posed as SimplexLPs.
    """
    n = lp.n
    ges = [c for c in lp.constraints if c.relation == ">="]
    eqs = [c for c in lp.constraints if c.relation == "=="]
    rows, rhs = [], []
    rows.append([ONE] * n + [ZERO] * len(ges))
    rhs.append(ONE)
    for c in eqs:
        rows.append(list(c.coeffs) + [ZERO] * len(ges))
        rhs.append(c.rhs)
    for k, c in enumerate(ges):
        row = list(c.coeffs) + [ZERO] * len(ges)
        row[n + k] = -ONE
        rows.append(row)
        rhs.append(c.rhs)
    cost = list(objective) + [ZERO] * len(ges)
    return rows, rhs, cost


def solve_min(lp: SimplexLP) -> LPResult:
    """Exact minimum of the objective over the feasible polytope."""
    rows, rhs, cost = _standard_form(lp, lp.objective)
    status, value, x = solve_standard(rows, rhs, cost)
    if status == "infeasible":
        return LPResult("infeasible")
    if status == "unbounded":  # impossible: the simplex is bounded
        raise AssertionError("bounded LP reported unbounded")
    return LPResult("optimal", value, tuple(x[: lp.n]))


def solve_minmax(objectives, lp: SimplexLP) -> LPResult:
    """Exact minimum over the feasible polytope of max_w c_w.p.

    One LP in epigraph form: minimise z subject to z >= c_w.p for every
    objective c_w, with the free z split as z+ - z-.  The witness is a
    minimising point of the polytope.
    """
    objs = [[frac(v) for v in c] for c in objectives]
    if not objs or any(len(c) != lp.n for c in objs):
        raise ValueError("need at least one objective of the variable count")
    n, k = lp.n, len(objs)
    rows, rhs, _ = _standard_form(lp, [ZERO] * n)
    width = len(rows[0])
    rows = [row + [ZERO] * (2 + k) for row in rows]
    for w, c in enumerate(objs):  # z+ - z- - c_w.p - s_w = 0
        row = [-v for v in c] + [ZERO] * (width - n) + [ONE, -ONE] + [ZERO] * k
        row[width + 2 + w] = -ONE
        rows.append(row)
        rhs.append(ZERO)
    cost = [ZERO] * width + [ONE, -ONE] + [ZERO] * k
    status, value, x = solve_standard(rows, rhs, cost)
    if status == "infeasible":
        return LPResult("infeasible")
    if status == "unbounded":  # impossible: z is bounded below on the simplex
        raise AssertionError("bounded LP reported unbounded")
    return LPResult("optimal", value, tuple(x[:n]))


def satisfies(lp: SimplexLP, point: Sequence[Fraction]) -> bool:
    """Exact membership of a probability point in the feasible polytope."""
    p = [frac(v) for v in point]
    if len(p) != lp.n or any(v < 0 for v in p) or sum(p) != 1:
        return False
    for c in lp.constraints:
        lhs = sum(a * v for a, v in zip(c.coeffs, p))
        if c.relation == ">=" and lhs < c.rhs:
            return False
        if c.relation == "==" and lhs != c.rhs:
            return False
    return True


# --- exact linear algebra helpers -----------------------------------------

def _row_reduce(rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns).

    Rows are scaled to integers, which keeps their span and so its reduced
    form, and Gauss-Jordan runs on them through :func:`_pivot`; each entry
    is divided by the final common denominator once.
    """
    rows = [_scaled(list(r))[0] for r in rows]
    pivots, d, r = [], 1, 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivots.append(col)  # _pivot records the column as row r's basic one
        d = _pivot(rows, pivots, d, r, col, [row[col] for row in rows])
        r += 1
        if r == len(rows):
            break
    return [[Fraction(v, d) for v in row] for row in rows[:r]], pivots


def _solve_affine(eq_rows, eq_rhs, n):
    """Particular solution and nullspace basis of E.x = e.

    Returns (x0, basis) or None when inconsistent; basis is a list of
    n-vectors spanning the solution space's direction.
    """
    aug = [list(row) + [r] for row, r in zip(eq_rows, eq_rhs)]
    rref, pivots = _row_reduce(aug) if aug else ([], [])
    if n in pivots:  # pivot in the rhs column: inconsistent
        return None
    pivots = [p for p in pivots if p < n]
    free = [j for j in range(n) if j not in pivots]
    x0 = [ZERO] * n
    for row, p in zip(rref, pivots):
        x0[p] = row[-1]
    basis = []
    for j in free:
        vec = [ZERO] * n
        vec[j] = ONE
        for row, p in zip(rref, pivots):
            vec[p] = -row[j]
        basis.append(vec)
    return x0, basis


def _primitive(coeffs):
    """Scale a rational row by a positive factor to coprime integers."""
    ints, _ = _scaled(coeffs)
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(Fraction(v) for v in ints)


def enumerate_vertices(lp: SimplexLP, cap: int = VERTEX_CAP) -> frozenset:
    """All extreme points of the feasible polytope, exactly.

    Works by reducing modulo the equality constraints (including the
    simplex equation) and enumerating simultaneous-activity bases of the
    remaining inequalities.  Intended as a brute-force oracle at desk
    scale; ``cap`` bounds the ambient dimension.  The facet search of
    :func:`polytope_inequalities` runs through it too.
    """
    n = lp.n
    if n > cap:
        raise CapExceededError(f"vertex enumeration capped at {cap} variables, got {n}")
    eq_rows = [[ONE] * n]
    eq_rhs = [ONE]
    ineq_rows, ineq_rhs = [], []
    for c in lp.constraints:
        if c.relation == "==":
            eq_rows.append(list(c.coeffs))
            eq_rhs.append(c.rhs)
        else:
            ineq_rows.append(list(c.coeffs))
            ineq_rhs.append(c.rhs)
    for i in range(n):  # p_i >= 0
        row = [ZERO] * n
        row[i] = ONE
        ineq_rows.append(row)
        ineq_rhs.append(ZERO)

    solved = _solve_affine(eq_rows, eq_rhs, n)
    if solved is None:
        return frozenset()
    x0, basis = solved
    d = len(basis)

    # inequalities in reduced coordinates y: G.(x0 + B.y) >= h
    red_rows, red_rhs = [], []
    for row, h in zip(ineq_rows, ineq_rhs):
        const = sum(a * b for a, b in zip(row, x0))
        coeffs = tuple(sum(row[i] * basis[k][i] for i in range(n)) for k in range(d))
        rhs_red = h - const
        if all(v == 0 for v in coeffs):
            if rhs_red > 0:
                return frozenset()
            continue
        red_rows.append(coeffs)
        red_rhs.append(rhs_red)

    # dedupe rows equal up to positive scale, keeping the tightest rhs
    seen: dict[tuple, tuple] = {}
    for coeffs, h in zip(red_rows, red_rhs):
        key = _primitive(coeffs)
        scale = next(c / k for c, k in zip(coeffs, key) if k != 0)
        h_norm = h / scale
        if key not in seen or h_norm > seen[key][1]:
            seen[key] = (key, h_norm)
    rows = list(seen.values())

    if d == 0:
        point = tuple(x0)
        return frozenset([point]) if satisfies(lp, point) else frozenset()

    vertices = set()
    for combo in itertools.combinations(range(len(rows)), d):
        system = [rows[i][0] for i in combo]
        rhs = [rows[i][1] for i in combo]
        solved = _solve_affine(system, rhs, d)
        if solved is None or solved[1]:  # inconsistent or singular
            continue
        y = solved[0]
        if any(
            sum(a * yv for a, yv in zip(coeffs, y)) < h for coeffs, h in rows
        ):
            continue
        point = tuple(
            x0[i] + sum(basis[k][i] * y[k] for k in range(d)) for i in range(n)
        )
        vertices.add(point)
    return frozenset(vertices)


def solve_fractional_min(numerator, denominator, lp: SimplexLP) -> LPResult:
    """Exact infimum of (num.p)/(den.p) over the feasible polytope.

    Uses the Charnes-Cooper substitution y = p/(den.p), t = 1/(den.p),
    which keeps everything linear and exact.  The caller must guarantee
    den.p > 0 on the feasible set; violations are reported as
    :class:`PositivityError`.
    """
    num = [frac(v) for v in numerator]
    den = [frac(v) for v in denominator]
    if len(num) != lp.n or len(den) != lp.n:
        raise ValueError("objective vectors must match the variable count")
    check = solve_min(lp.with_objective(den))
    if check.status == "infeasible":
        return LPResult("infeasible")
    if check.value <= 0:
        raise PositivityError(
            f"denominator reaches {check.value} on the feasible set"
        )
    # variables (y_0..y_{n-1}, t, slacks): each row a.p (rel) b of the
    # standard form becomes a.y - b t (rel) 0, and den.y = 1 is added
    n = lp.n
    rows, rhs, cost = _standard_form(lp, num)
    rows = [row[:n] + [-b] + row[n:] for row, b in zip(rows, rhs)]
    rows.insert(1, den + [ZERO] * (len(rows[0]) - n))
    rhs = [ZERO] * len(rows)
    rhs[1] = ONE
    cost = cost[:n] + [ZERO] + cost[n:]
    status, value, x = solve_standard(rows, rhs, cost)
    if status != "optimal":
        raise AssertionError(f"Charnes-Cooper program reported {status}")
    t = x[n]
    witness = tuple(x[i] / t for i in range(n))
    return LPResult("optimal", value, witness)


# ---------------------------------------------------------------------------
# polytope geometry from a vertex list (used by the posterior rebuild)
# ---------------------------------------------------------------------------

def extreme_points(points) -> list:
    """Filter a finite point set down to the extreme points of its hull."""
    pts = [tuple(frac(v) for v in p) for p in points]
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts
    out = []
    for i, p in enumerate(pts):
        # p is extreme iff no mass function on the others mixes to p
        others = [q for j, q in enumerate(pts) if j != i]
        rows = [Constraint([q[k] for q in others], "==", v) for k, v in enumerate(p)]
        if solve_min(SimplexLP(len(others), None, rows)).status == "infeasible":
            out.append(p)
    return out


def polytope_inequalities(points):
    """H-representation of the convex hull of finitely many points.

    Returns (equalities, inequalities), each a list of (coeffs, rhs)
    meaning coeffs.x == rhs respectively coeffs.x >= rhs.  Equalities cut
    out the affine hull; inequalities are the facets within it, each with
    coprime integer coefficients.

    Each point p is homogenised to (p, 1), so a valid inequality a.x >= b
    is a c = (a, -b) with c.(p, 1) >= 0 at every point.  Modulo the affine
    hull, c is fixed by its values mu_p = c.(p, 1); scaled to sum 1, those
    are the mass functions on the points that vanish on every linear
    dependency among the (p, 1).  That polytope is the hull's polar, and
    its vertices are the hull's facets (Ziegler, Lectures on Polytopes).
    """
    pts = sorted({tuple(frac(v) for v in p) for p in points})
    if not pts:
        raise ValueError("need at least one point")
    n, k = len(pts[0]), len(pts)
    rows = [list(p) + [ONE] for p in pts]
    equalities = [
        (tuple(c[:n]), -c[n]) for c in _solve_affine(rows, [ZERO] * k, n + 1)[1]
    ]
    if k == 1:
        return equalities, []
    dependencies = _solve_affine(list(zip(*rows)), [ZERO] * (n + 1), k)[1]
    polar = SimplexLP(k, None, tuple(Constraint(y, "==", ZERO) for y in dependencies))
    inequalities = []
    for mu in sorted(enumerate_vertices(polar, cap=k)):
        c = _primitive(_solve_affine(rows, mu, n + 1)[0])
        inequalities.append((c[:n], -c[n]))
    return equalities, inequalities
