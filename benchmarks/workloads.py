"""The benchmark's workloads: seeded query lists, timed queries, exact oracles.

A workload is a list of query kinds.  Each kind has a fixed count per
pass, a maker that draws one raw input from a seeded ``random.Random``, a
runner that builds the library objects and asks the question (this is the
timed part), and a checker that decides the answer exactly.  Checkers run
in the harness process, never in the measured one, and raise
:class:`Mismatch` on a wrong answer.  ``thorough`` asks a checker for its
expensive second oracle; the harness sets it on the first pass only.

Runners look library functions up on the ``lowprev`` package at call
time, so the tracer's rebinding of those names is seen.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import lowprev as lp
from lowprev import solver

import gen
from gen import ZERO, dot

PASS_SEED = "{seed}:{workload}:{index}"


class Mismatch(Exception):
    """An answer the oracle rejects."""


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


@dataclass(frozen=True)
class Kind:
    """``count`` queries per pass; ``make(rng, slot)`` draws query ``slot``.

    Makers pick the shape class (items, size) from the slot and only the
    values from the generator, so every pass has the same shapes.
    """

    name: str
    count: int
    make: Callable
    run: Callable
    check: Callable


@dataclass(frozen=True)
class Raised:
    """The answer of a query that raised: the exception's repr."""

    error: str


def canon(raw) -> str:
    """Deterministic text of a raw input, for the input digest."""
    if isinstance(raw, CliRaw):
        return repr((raw.args, raw.docs, raw.exit_code))
    return repr(raw)


def make_pass(workload: str, seed: int, index: int) -> list:
    """The (kind, raw) queries of one pass; equal arguments give equal lists."""
    rng = random.Random(PASS_SEED.format(seed=seed, workload=workload, index=index))
    return [(k.name, k.make(rng, slot)) for k in WORKLOADS[workload] for slot in range(k.count)]


def kind_table(workload: str) -> dict:
    return {k.name: k for k in WORKLOADS[workload]}


def perturb(answer):
    """The answer with its last rational moved by 1/1000, or None.

    The last one, because in a bound list ``((values, lower), ...)`` a
    lower bound always matters, while a coefficient can be scaled freely
    against a zero bound.
    """
    if isinstance(answer, Fraction):
        return answer + Fraction(1, 1000)
    if isinstance(answer, tuple):
        for i in reversed(range(len(answer))):
            moved = perturb(answer[i])
            if moved is not None:
                return answer[:i] + (moved,) + answer[i + 1:]
    if isinstance(answer, str) and answer.startswith("{"):
        doc = json.loads(answer)
        result = doc.get("result") or {}
        if result.get("kind") == "rational":
            result["value"] = _report_rational(
                _parse_report_rational(result["value"]) + Fraction(1, 1000)
            )
            return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return None


# ---------------------------------------------------------------------------
# library objects: built inside the timed queries
# ---------------------------------------------------------------------------

def space_of(n: int):
    return lp.Space(tuple(str(i) for i in range(n)))


def assessment(space, items):
    return lp.Assessment(space, tuple((lp.Gamble(space, f), b) for f, b in items))


def monoid(space, generators):
    return lp.monoid(space, [lp.Transformation(space, g) for g in generators])


def model(raw):
    n, items = raw[0], raw[1]
    space = space_of(n)
    return space, assessment(space, items)


# ---------------------------------------------------------------------------
# oracles: exact, checked with the benchmark's own arithmetic
# ---------------------------------------------------------------------------

def dual_lower_bound(n, items, c) -> Fraction:
    """The dual optimum max{a : sum_k l_k (f_k - b_k) + a <= c, l >= 0}.

    Solved with the library's simplex, then certified here: l >= 0 and the
    pointwise slack are checked exactly, so the returned value is a proven
    lower bound of min c.p over the credal set.  A natural extension that
    differs from it is wrong unless both formulations fail identically.
    """
    k = len(items)
    rows = []
    for x in range(n):
        row = [f[x] - b for f, b in items] + [Fraction(1), Fraction(-1)]
        row += [Fraction(1) if y == x else ZERO for y in range(n)]
        rows.append(row)
    cost = [ZERO] * k + [Fraction(-1), Fraction(1)] + [ZERO] * n
    status, _, x = solver.solve_standard(rows, list(c), cost)
    expect(status == "optimal", f"dual programme reported {status}")
    lam, alpha = x[:k], x[k] - x[k + 1]
    expect(all(v >= 0 for v in lam), "dual multipliers are negative")
    for p in range(n):
        slack = c[p] - alpha - sum((l * (f[p] - b) for l, (f, b) in zip(lam, items)), ZERO)
        expect(slack >= 0, "dual certificate violated")
    return alpha


def vertices(n, items, pins=(), cap=None):
    """Extreme points of {p : f.p >= b for items, pinned equalities}."""
    rows = [solver.Constraint(f, ">=", b) for f, b in items]
    rows += [solver.Constraint(f, "==", ZERO) for f in pins]
    return solver.enumerate_vertices(solver.SimplexLP(n, None, tuple(rows)), cap or n)


def feasible(point, items) -> bool:
    return (
        all(v >= 0 for v in point)
        and sum(point) == 1
        and all(dot(point, f) >= b for f, b in items)
    )


def envelope(points, c) -> Fraction:
    return min(dot(p, c) for p in points)


THOROUGH_MAX_ROWS = 12  # vertex enumeration tries C(items + n, n - 1) active sets


def check_natex(n, items, g, answer, thorough):
    expect(dual_lower_bound(n, items, g) == answer, "natex differs from the dual optimum")
    if thorough and n <= 6 and len(items) + n <= THOROUGH_MAX_ROWS:
        expect(envelope(vertices(n, items), g) == answer, "natex differs from the vertex envelope")


# ---------------------------------------------------------------------------
# natex-fresh: one LP-backed value per freshly built assessment
# ---------------------------------------------------------------------------

def make_wide(n, items):
    def make(rng, slot=0):
        anchor = gen.interior_point(rng, n)
        k = items[slot % len(items)]
        return (n, gen.anchored_items(rng, anchor, k), gen.rnd_values(rng, n))

    return make


def run_natex(raw):
    space, a = model(raw)
    return lp.natural_extension(a, lp.Gamble(space, raw[2]))


def check_natex_kind(raw, answer, thorough):
    check_natex(raw[0], raw[1], raw[2], answer, thorough)


def run_upper(raw):
    space, a = model(raw)
    return lp.upper_extension(a, lp.Gamble(space, raw[2]))


def check_upper(raw, answer, thorough):
    n, items, g = raw
    check_natex(n, items, tuple(-v for v in g), -answer, thorough)


def make_asl(n):
    def make(rng, slot):
        if slot % 2 == 0:
            anchor = gen.interior_point(rng, n)
            return (n, gen.anchored_items(rng, anchor, 5), anchor)
        return (n, gen.sure_loss_items(rng, n, 5), None)

    return make


def run_asl(raw):
    return lp.avoids_sure_loss(model(raw)[1])


def check_asl(raw, answer, thorough):
    n, items, anchor = raw
    if anchor is not None:
        expect(feasible(anchor, items), "generator anchor does not dominate")
        expect(answer is True, "dominated assessment reported as sure loss")
    else:
        (f, b), (negf, negb) = items[:2]
        expect(negf == tuple(-v for v in f) and b + negb > 0, "generator pair is not a sure loss")
        expect(answer is False, "sure loss not detected")


LATTICE_N = 4


def make_lattice(rng, slot):
    values = gen.belief_values(rng, LATTICE_N)
    events = [e for e in gen.all_events(LATTICE_N) if 0 < len(e) < LATTICE_N]
    return (tuple((tuple(sorted(e)), values[e]) for e in events), gen.rnd_values(rng, LATTICE_N))


def lattice_assessment(space, table):
    outcomes = space.outcomes
    return lp.Assessment(
        space,
        tuple((lp.indicator(lp.event(space, [outcomes[i] for i in e])), v) for e, v in table),
    )


def run_lattice(raw):
    space = space_of(LATTICE_N)
    return lp.natural_extension(lattice_assessment(space, raw[0]), lp.Gamble(space, raw[1]))


def lattice_values(table):
    values = {frozenset(e): v for e, v in table}
    values[frozenset()] = ZERO
    values[frozenset(range(LATTICE_N))] = Fraction(1)
    return values


def check_lattice(raw, answer, thorough):
    expect(gen.choquet(lattice_values(raw[0]), raw[1]) == answer, "natex differs from the Choquet integral")


def make_invnatex(n):
    def make(rng, slot=0):
        gens = (gen.rnd_perm(rng, n), gen.rnd_perm(rng, n))
        anchor = gen.invariant_anchor(rng, n, gens)
        k = (2, 4)[slot % 2]
        return (n, gen.anchored_items(rng, anchor, k), gens, gen.rnd_values(rng, n))

    return make


def run_invnatex(raw):
    n, items, gens, g = raw
    space, a = model(raw)
    return lp.strongly_invariant_natex(a, monoid(space, gens), lp.Gamble(space, g))


def check_invnatex(raw, answer, thorough):
    n, items, gens, g = raw
    pins = [f for f, _ in gen.invariance_pins(n, gens)]
    expect(envelope(vertices(n, items, pins), g) == answer, "invariant natex differs from the vertex envelope")


UPDATE_SHAPES = {"2x3": (2, 3), "3x3": (3, 3), "2x6": (2, 6)}


def count_vectors(kappa, n):
    """Compositions of n into kappa counts, in the library's colex order."""
    out = set()
    def rec(prefix, left):
        if len(prefix) == kappa - 1:
            out.add(tuple(prefix) + (left,))
            return
        for v in range(left + 1):
            rec(prefix + [v], left - v)
    rec([], n)
    return sorted(out, key=lambda m: m[::-1])


def multinomial(m) -> int:
    out = math.factorial(sum(m))
    for k in m:
        out //= math.factorial(k)
    return out


def likelihood(m, m_star) -> Fraction:
    if any(a > b for a, b in zip(m, m_star)):
        return ZERO
    return Fraction(multinomial(tuple(b - a for a, b in zip(m, m_star))), multinomial(m_star))


def make_update(shape, max_items):
    kappa, n_star = UPDATE_SHAPES[shape]

    def make(rng, slot):
        counts = count_vectors(kappa, n_star)
        n_obs = 1 + slot % (n_star - 1)
        m = rng.choice(count_vectors(kappa, n_obs))
        anchor = gen.interior_point(rng, len(counts))
        items = gen.anchored_items(rng, anchor, max_items)
        # a positive lower bound on the compositions that can produce m
        support = tuple(Fraction(likelihood(m, ms) > 0) for ms in counts)
        items += ((support, dot(anchor, support) / 2),)
        rest = count_vectors(kappa, n_star - n_obs)
        return (kappa, n_star, items, m, gen.rnd_values(rng, len(rest)))

    return make


def run_update(raw):
    kappa, n_star, items, m, h = raw
    full = lp.CategorySpace(kappa, n_star)
    rest = lp.CategorySpace(kappa, n_star - sum(m))
    prior = assessment(full.count_space, items)
    return lp.update_counts(prior, full, m, lp.Gamble(rest.count_space, h))


def bayes_terms(kappa, n_star, m, h):
    rest_index = {r: i for i, r in enumerate(count_vectors(kappa, n_star - sum(m)))}
    den, num = [], []
    for ms in count_vectors(kappa, n_star):
        lk = likelihood(m, ms)
        den.append(lk)
        num.append(lk * h[rest_index[tuple(b - a for a, b in zip(m, ms))]] if lk else ZERO)
    return num, den


def check_update(raw, answer, thorough):
    kappa, n_star, items, m, h = raw
    num, den = bayes_terms(kappa, n_star, m, h)
    c = tuple(a - answer * b for a, b in zip(num, den))
    expect(dual_lower_bound(len(num), items, c) == 0, "posterior is not the minimal Bayes ratio")
    if thorough and len(items) + len(num) <= THOROUGH_MAX_ROWS:
        ratios = [dot(q, num) / dot(q, den) for q in vertices(len(num), items)]
        expect(min(ratios) == answer, "posterior differs from the vertex Bayes-ratio minimum")


NATEX_FRESH = [
    *(Kind(f"natex.n{n}", 4, make_wide(n, (2, 4, 6, 8)), run_natex, check_natex_kind) for n in (4, 6, 8)),
    *(Kind(f"upper.n{n}", 2, make_wide(n, (3, 6)), run_upper, check_upper) for n in (4, 6, 8)),
    *(Kind(f"asl.n{n}", 2, make_asl(n), run_asl, check_asl) for n in (4, 6, 8)),
    Kind("lattice.natex", 6, make_lattice, run_lattice, check_lattice),
    *(Kind(f"invnatex.n{n}", 2, make_invnatex(n), run_invnatex, check_invnatex) for n in (4, 6)),
    Kind("update.2x3", 2, make_update("2x3", 3), run_update, check_update),
    Kind("update.3x3", 2, make_update("3x3", 2), run_update, check_update),
    Kind("update.2x6", 2, make_update("2x6", 2), run_update, check_update),
]


# ---------------------------------------------------------------------------
# credal-reuse: many questions asked of one model
# ---------------------------------------------------------------------------

def make_small(n, items):
    def make(rng, slot=0):
        anchor = gen.interior_point(rng, n)
        return (n, gen.anchored_items(rng, anchor, items[slot % len(items)]))

    return make


def run_coherence(raw):
    _, a = model(raw)
    version = lp.coherent_version(a)
    return (
        lp.is_coherent(a),
        tuple(b for _, b in version.items),
        tuple(sorted(lp.credal_vertices(a))),
    )


def check_coherence(raw, answer, thorough):
    _, items = raw
    coherent, bounds, points = answer
    expect(points and all(feasible(p, items) for p in points), "a reported vertex is infeasible")
    envelope_bounds = tuple(envelope(points, f) for f, _ in items)
    expect(bounds == envelope_bounds, "coherent version differs from the vertex envelope")
    expect(coherent == all(b == e for (_, b), e in zip(items, envelope_bounds)), "wrong coherence verdict")


def make_invmix(rng, slot=0):
    """Even slots: a weakly invariant model, one item closed under one
    permutation of 4 outcomes.  Odd slots: three items and one arbitrary
    map of 5 outcomes, usually not invariant."""
    if slot % 2 == 0:
        gens = (gen.rnd_perm(rng, 4),)
        items = gen.anchored_items(rng, gen.invariant_anchor(rng, 4, gens), 1)
        return (4, gen.lifted_closure(items, gens), gens, gen.rnd_values(rng, 4))
    gens = (gen.rnd_map(rng, 5),)
    items = gen.anchored_items(rng, gen.interior_point(rng, 5), 3)
    return (5, items, gens, gen.rnd_values(rng, 5))


def run_invmix(raw):
    n, items, gens, g = raw
    space, a = model(raw)
    m = monoid(space, gens)
    report = lp.invariance_report(a, m)
    witnesses = tuple(
        (kind, report.witnesses[kind][0], report.witnesses[kind][1].image)
        for kind in ("weak", "strong")
        if kind in report.witnesses
    )
    mixture = lp.mixture_lower_prevision(a, m, lp.Gamble(space, g), 2)
    return (report.weak_assessment_level, report.weak_credal_level, report.strong, witnesses, mixture)


def pushforward(image, p):
    q = [ZERO] * len(p)
    for i, j in enumerate(image):
        q[j] += p[i]
    return tuple(q)


def words(gens, n, depth):
    seen = {tuple(range(n))}
    order, frontier = [tuple(range(n))], [tuple(range(n))]
    for _ in range(depth):
        nxt = []
        for t in frontier:
            for g in gens:
                w = tuple(g[j] for j in t)
                if w not in seen:
                    seen.add(w)
                    order.append(w)
                    nxt.append(w)
        frontier = nxt
    return order


def check_invmix(raw, answer, thorough):
    n, items, gens, g = raw
    weak_a, weak_c, strong, witnesses, mixture = answer
    points = sorted(vertices(n, items))
    bounds = {}
    for f, b in items:
        bounds[f] = max(b, bounds.get(f, b))
    expect(weak_a == all(
        bounds.get(tuple(f[j] for j in t), None) is not None and bounds[tuple(f[j] for j in t)] >= b
        for f, b in bounds.items() for t in gens
    ), "wrong assessment-level verdict")
    weak_w = next(((p, t) for p in points for t in gens if not feasible(pushforward(t, p), items)), None)
    strong_w = next(((p, t) for p in points for t in gens if pushforward(t, p) != p), None)
    expect(weak_c == (weak_w is None) and strong == (strong_w is None), "wrong credal-level verdict")
    expected = tuple((k, w[0], w[1]) for k, w in (("weak", weak_w), ("strong", strong_w)) if w)
    expect(witnesses == expected, "wrong invariance witness")
    payoff = [[dot(p, tuple(g[j] for j in w)) for w in words(gens, n, 2)] for p in points]
    expect(game_upper_bound(payoff) == mixture, "mixture value differs from the vertices' best reply")


def game_upper_bound(payoff) -> Fraction:
    """min over vertex mixtures q of max over words w of (q.payoff)_w.

    The mixture lower prevision maximises over word mixtures instead; by
    the minimax theorem the two agree.  Solved with the library's simplex
    in this second form, then certified here: q is a mass function and
    every word's payoff under q is at most the returned value, so the
    value is a proven upper bound of the game.
    """
    nv, k = len(payoff), len(payoff[0])
    rows, rhs = [], []
    for w in range(k):
        row = [payoff[v][w] for v in range(nv)] + [Fraction(-1), Fraction(1)]
        row += [Fraction(1) if u == w else ZERO for u in range(k)]
        rows.append(row)
        rhs.append(ZERO)
    rows.append([Fraction(1)] * nv + [ZERO] * (2 + k))
    rhs.append(Fraction(1))
    cost = [ZERO] * nv + [Fraction(1), Fraction(-1)] + [ZERO] * k
    status, _, x = solver.solve_standard(rows, rhs, cost)
    expect(status == "optimal", f"game programme reported {status}")
    q, z = x[:nv], x[nv] - x[nv + 1]
    expect(all(v >= 0 for v in q) and sum(q) == 1, "vertex mixture is not a mass function")
    expect(all(sum(qv * payoff[v][w] for v, qv in enumerate(q)) <= z for w in range(k)), "game certificate violated")
    return z


def make_symmetrize(n, sizes):
    def make(rng, slot):
        items = gen.anchored_items(rng, gen.interior_point(rng, n), sizes[slot % len(sizes)])
        return (n, items, gen.rnd_values(rng, n))

    return make


def symmetric_generators(n):
    return (gen.swap_perm(n, 0, 1), gen.cycle_perm(n))


def run_symmetrize(raw):
    n, items, g = raw
    space, a = model(raw)
    return lp.symmetrize(a, monoid(space, symmetric_generators(n)), lp.Gamble(space, g))


def check_symmetrize(raw, answer, thorough):
    n, items, g = raw
    points = vertices(n, items)
    perms = gen.group_elements(n, symmetric_generators(n))
    expect(len(perms) == math.factorial(n), "generators do not give the symmetric group")
    total = sum(envelope(points, tuple(g[j] for j in t)) for t in perms)
    expect(total / len(perms) == answer, "symmetrized value differs from the vertex envelope average")


def make_banach(rng, slot):
    n = (3, 4)[slot % 2]
    t = gen.rnd_map(rng, n)
    anchor = gen.map_invariant_anchor(rng, n, t)
    items = gen.lifted_closure(gen.anchored_items(rng, anchor, 2), (t,))
    return (n, items, t, gen.rnd_values(rng, n))


def run_banach(raw):
    n, items, t, g = raw
    space, a = model(raw)
    return lp.banach_crosscheck(a, lp.Transformation(space, t), lp.Gamble(space, g))


def check_banach(raw, answer, thorough):
    n, items, t, g = raw
    pins = []
    for j in range(n):
        row = [ZERO] * n
        for i, ti in enumerate(t):
            if ti == j:
                row[i] += 1
        row[j] -= 1
        if any(row):
            pins.append(tuple(row))
    expect(envelope(vertices(n, items, pins), g) == answer, "cross-check differs from the invariant vertex envelope")


def make_atoms(rng, slot):
    # the quotient has one outcome per cycle; its hull rebuild is
    # exponential in that count, so it is fixed small
    n, atoms = ((4, 2), (6, 3))[slot % 2]
    gens = (gen.blocks_perm(rng, n, atoms),)
    anchor = gen.invariant_anchor(rng, n, gens)
    return (n, gen.anchored_items(rng, anchor, 2), gens)


def run_atoms(raw):
    n, items, gens = raw
    space, a = model((n, gen.invariance_pins(n, gens) + items))
    quotient = lp.extract_atom_lowprev(a, monoid(space, gens))
    return (
        quotient.atoms.partition,
        tuple((f.values, b) for f, b in quotient.assessment.items),
    )


def same_polytope(items, points):
    """The polytope of ``items`` is exactly the hull of ``points``.

    Every point is feasible, so the polytope holds the hull; every vertex
    of the polytope is one of the points, so the hull holds the polytope.
    """
    expect(all(feasible(p, items) for p in points), "a hull point violates the reported bounds")
    expect(vertices(len(next(iter(points))), items) <= set(points), "the reported bounds admit a point outside the hull")


def check_atoms(raw, answer, thorough):
    n, items, gens = raw
    partition, qitems = answer
    blocks = gen.orbits(n, gens)
    expect(partition == tuple(tuple(str(i) for i in b) for b in blocks), "wrong invariant atoms")
    points = vertices(n, items, [f for f, _ in gen.invariance_pins(n, gens)])
    same_polytope(qitems, {tuple(sum(p[i] for i in b) for b in blocks) for p in points})


def make_posterior(rng, slot):
    kappa, n_star = 2, (3, 4)[slot % 2]
    counts = count_vectors(kappa, n_star)
    m = (1, 0) if rng.random() < 0.5 else (0, 1)
    anchor = gen.interior_point(rng, len(counts))
    items = gen.anchored_items(rng, anchor, 2)
    support = tuple(Fraction(likelihood(m, ms) > 0) for ms in counts)
    items += ((support, dot(anchor, support) / 2),)
    return (kappa, n_star, items, m)


def run_posterior(raw):
    kappa, n_star, items, m = raw
    full = lp.CategorySpace(kappa, n_star)
    post = lp.posterior_count_assessment(assessment(full.count_space, items), full, m)
    return tuple((f.values, b) for f, b in post.items)


def check_posterior(raw, answer, thorough):
    kappa, n_star, items, m = raw
    counts = count_vectors(kappa, n_star)
    rest_index = {r: i for i, r in enumerate(count_vectors(kappa, n_star - sum(m)))}
    likelihoods = [likelihood(m, ms) for ms in counts]
    posteriors = set()
    for q in vertices(len(counts), items):
        post = [ZERO] * len(rest_index)
        mass = dot(q, likelihoods)
        for ms, lk, qv in zip(counts, likelihoods, q):
            if lk:
                post[rest_index[tuple(b - a for a, b in zip(m, ms))]] += qv * lk / mass
        posteriors.add(tuple(post))
    same_polytope(answer, posteriors)


def make_lattice2m(rng, slot=0):
    values = gen.belief_values(rng, LATTICE_N)
    table = tuple((tuple(sorted(e)), values[e]) for e in gen.all_events(LATTICE_N))
    return (table, tuple(gen.rnd_values(rng, LATTICE_N) for _ in range(3)))


def run_lattice2m(raw):
    table, probes = raw
    space = space_of(LATTICE_N)
    sf = lp.SetFunction(space, tuple((frozenset(str(i) for i in e), v) for e, v in table))
    monotone = lp.is_n_monotone(sf, 2)
    a = lp.assessment_from_set_function(sf)
    chq = tuple(lp.choquet_integral(sf, lp.Gamble(space, g)) for g in probes)
    nat = tuple(lp.natural_extension(a, lp.Gamble(space, g)) for g in probes)
    return (monotone, chq, nat)


def check_lattice2m(raw, answer, thorough):
    table, probes = raw
    monotone, chq, nat = answer
    values = {frozenset(e): v for e, v in table}
    expected = tuple(gen.choquet(values, g) for g in probes)
    expect(monotone is True, "a belief function reported as not 2-monotone")
    expect(chq == expected, "Choquet integral differs from the telescoping sum")
    expect(nat == expected, "lattice natex differs from the Choquet integral")


CREDAL_REUSE = [
    Kind("coherence.n4", 2, make_small(4, (3, 5)), run_coherence, check_coherence),
    Kind("coherence.n6", 2, make_small(6, (2, 3)), run_coherence, check_coherence),
    Kind("coherence.n8", 1, make_small(8, (2,)), run_coherence, check_coherence),
    Kind("invariance.mixture", 2, make_invmix, run_invmix, check_invmix),
    Kind("symmetrize.S4", 2, make_symmetrize(4, (1, 3)), run_symmetrize, check_symmetrize),
    Kind("symmetrize.S5", 1, make_symmetrize(5, (2,)), run_symmetrize, check_symmetrize),
    Kind("banach", 2, make_banach, run_banach, check_banach),
    Kind("atoms", 2, make_atoms, run_atoms, check_atoms),
    Kind("posterior", 2, make_posterior, run_posterior, check_posterior),
    Kind("lattice.2monotone", 2, make_lattice2m, run_lattice2m, check_lattice2m),
]


# ---------------------------------------------------------------------------
# sequence-scan: shift.py operations on windows of 10^4 to 10^5 entries
# ---------------------------------------------------------------------------

WINDOWS = {
    "quadratic": lambda rng, length: gen.quadratic_window(length),
    "residue": lambda rng, length: gen.residue_window(5, length),
    "random": gen.random_window,
}

SEQUENCE_OPS = ("window", "lnex", "lsamp", "residue", "cesaro")


def make_scan(window, op, base, window_lengths=None):
    def make(rng, slot):
        length = base + rng.randrange(base // 10)
        hi = 3 if window == "random" else 1
        data = WINDOWS[window](rng, length)
        if op == "window":
            params = window_lengths or (1, rng.randint(2, 9), 50)
        elif op == "residue":
            params = (rng.randint(60, 100),)
        elif op == "cesaro":
            params = (rng.randint(length // 2, length),)
        else:
            params = (50,)
        return (data, hi, op, params)

    return make


def run_scan(raw):
    data, hi, op, params = raw
    f = lp.Truncated(data, 0, hi)
    if op == "window":
        return tuple(lp.window_inf_mean(f, n) for n in params)
    if op == "lnex":
        return tuple(
            (v.value, v.exact, v.window_length, v.truncation_used)
            for v in (lp.lnex_theta(f, params[0]), lp.unex_theta(f, params[0]))
        )
    if op == "lsamp":
        v = lp.lsamp_theta(f)
        return (v.value, v.exact, v.window_length, v.truncation_used)
    if op == "residue":
        v = lp.lnex_res(f, params[0])
        return (lp.residue_estimate(f, params[0]), (v.value, v.exact, v.window_length, v.truncation_used))
    return lp.cesaro_mean(f, params[0])


class Rescan:
    """Brute-force exact scans of a window with the oracle's own scaling."""

    def __init__(self, data):
        self.data = data
        self.den = math.lcm(*{Fraction(v).denominator for v in data})
        self.pref = [0, *itertools.accumulate(int(v * self.den) for v in data)]

    def window_sums(self, n):
        return map(operator.sub, self.pref[n:], self.pref)

    def window_min(self, n) -> Fraction:
        return Fraction(min(self.window_sums(n)), n * self.den)

    def window_max(self, n) -> Fraction:
        return Fraction(max(self.window_sums(n)), n * self.den)

    def lnex(self, n_max):
        values = [self.window_min(n) for n in range(1, n_max + 1)]
        best = max(values)
        return (best, False, values.index(best) + 1, len(self.data))

    def unex(self, n_max):
        values = [self.window_max(n) for n in range(1, n_max + 1)]
        best = min(values)
        return (best, False, values.index(best) + 1, len(self.data))

    def lsamp(self):
        total = len(self.data)
        start = max(1, total // 2)
        values = [Fraction(self.pref[n], n * self.den) for n in range(start, total + 1)]
        best = min(values)
        return (best, False, start + values.index(best), total)

    def residue(self, m) -> Fraction:
        return sum(Fraction(min(self.data[r::m])) for r in range(m)) / m


def check_scan(raw, answer, thorough):
    data, hi, op, params = raw
    scan = Rescan(data)
    if op == "window":
        expected = tuple(scan.window_min(n) for n in params)
    elif op == "lnex":
        expected = (scan.lnex(params[0]), scan.unex(params[0]))
    elif op == "lsamp":
        expected = scan.lsamp()
    elif op == "residue":
        value = scan.residue(params[0])
        expected = (value, (value, False, params[0], len(data)))
    else:
        expected = Fraction(scan.pref[params[0]], params[0] * scan.den)
    expect(answer == expected, f"{op} differs from the brute-force rescan")


SEQUENCE_SCAN = [
    *(
        Kind(f"{window}.{op}", 1, make_scan(window, op, 10_000), run_scan, check_scan)
        for window in WINDOWS
        for op in SEQUENCE_OPS
    ),
    Kind("quadratic.window.1e5", 1, make_scan("quadratic", "window", 100_000, (50,)), run_scan, check_scan),
]


# ---------------------------------------------------------------------------
# cli: one `python -m lowprev.cli` process per request
# ---------------------------------------------------------------------------

CLI_DIR = os.path.join(".bench_out", "cli")
CLI_SHIM = os.path.join("benchmarks", "cli_shim.py")


def _report_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _parse_report_rational(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _r(value) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def model_doc(n, items):
    return {
        "space": [str(i) for i in range(n)],
        "items": [{"gamble": {"values": [_r(v) for v in f]}, "lower": _r(b)} for f, b in items],
    }


def gamble_doc(values):
    return {"values": [_r(v) for v in values]}


def monoid_doc(gens):
    return {"generators": [{"map": list(g)} for g in gens]}


def truncated_doc(data, hi):
    return {"kind": "truncated", "window": [_r(v) for v in data], "lo": "0", "hi": _r(hi)}


@dataclass(frozen=True)
class CliRaw:
    """One request: argv with ``{name}`` file placeholders, documents, expectations."""

    args: tuple
    docs: tuple  # (name, document) pairs
    exit_code: int
    expected: Callable | None  # () -> the report's result, from the in-process library
    boundary: bool = False  # a known-red boundary request, counted as a known defect


def cli_files(index: int, raw: CliRaw) -> dict:
    return {name: os.path.join(CLI_DIR, f"q{index:02d}-{name}.json") for name, _ in raw.docs}


def write_cli_docs(queries) -> None:
    os.makedirs(CLI_DIR, exist_ok=True)
    for index, (_, raw) in enumerate(queries):
        files = cli_files(index, raw)
        for name, doc in raw.docs:
            with open(files[name], "w", encoding="utf-8") as handle:
                json.dump(doc, handle)


def cli_argv(index: int, raw: CliRaw, spans_path: str | None) -> list:
    files = cli_files(index, raw)
    args = [a.format(**files) for a in raw.args]
    if spans_path is None:
        return [sys.executable, "-m", "lowprev.cli", *args]
    return [sys.executable, CLI_SHIM, spans_path, *args]


def run_cli(index, raw: CliRaw, spans_path=None):
    proc = subprocess.run(
        cli_argv(index, raw, spans_path), capture_output=True, text=True, timeout=120
    )
    return (proc.returncode, proc.stdout, "Traceback" in proc.stderr)


def cli_value(fn):
    return lambda: {"kind": "rational", "value": _report_rational(fn())}


def make_cli_natex(rng, slot=0):
    raw = n, items, g = make_wide(6, (5,))(rng)
    docs = (("model", model_doc(n, items)), ("gamble", gamble_doc(g)))
    return CliRaw(("natex", "{model}", "--gamble", "{gamble}"), docs, 0, cli_value(lambda: run_natex(raw)))


def make_cli_coherence(rng, slot=0):
    raw = make_small(5, (3,))(rng)
    return CliRaw(("coherence", "{model}"), (("model", model_doc(*raw)),), 0,
                  lambda: {"kind": "bool", "value": lp.is_coherent(model(raw)[1])})


def make_cli_vertices(rng, slot=0):
    raw = make_small(5, (3,))(rng)
    return CliRaw(("vertices", "{model}"), (("model", model_doc(*raw)),), 0,
                  lambda: {"kind": "table", "rows": [[_report_rational(v) for v in p] for p in sorted(lp.credal_vertices(model(raw)[1]))]})


def _monoid_raw(rng, slot):
    n, items, gens, g = make_invmix(rng, slot)
    return n, items, gens, g, (("model", model_doc(n, items)), ("monoid", monoid_doc(gens)), ("gamble", gamble_doc(g)))


def make_cli_invariance(rng, slot=0):
    n, items, gens, g, docs = _monoid_raw(rng, slot)

    def expected():
        space, a = model((n, items))
        rep = lp.invariance_report(a, monoid(space, gens))
        return {
            "kind": "witness",
            "weak_assessment_level": rep.weak_assessment_level,
            "weak_credal_level": rep.weak_credal_level,
            "strong": rep.strong,
            "witnesses": {
                k: {"vertex": [_report_rational(v) for v in p], "map": list(t.image)}
                for k, (p, t) in rep.witnesses.items()
                if k in ("weak", "strong")
            },
        }

    return CliRaw(("invariance", "{model}", "--monoid", "{monoid}"), docs[:2], 0, expected)


def make_cli_invnatex(rng, slot=0):
    raw = make_invnatex(4)(rng, 1)
    n, items, gens, g = raw
    docs = (("model", model_doc(n, items)), ("monoid", monoid_doc(gens)), ("gamble", gamble_doc(g)))
    return CliRaw(("invnatex", "{model}", "--monoid", "{monoid}", "--gamble", "{gamble}"), docs, 0,
                  cli_value(lambda: run_invnatex(raw)))


def make_cli_mixture(rng, slot=0):
    n, items, gens, g, docs = _monoid_raw(rng, slot)

    def value():
        space, a = model((n, items))
        return lp.mixture_lower_prevision(a, monoid(space, gens), lp.Gamble(space, g), 2)

    return CliRaw(("mixture", "{model}", "--monoid", "{monoid}", "--gamble", "{gamble}", "--depth", "2"),
                  docs, 0, cli_value(value))


def make_cli_exchange(rng, slot=0):
    kappa, n_star = 2, 4
    counts = count_vectors(kappa, n_star)
    observed = [rng.randint(1, kappa) for _ in range(2)]
    m = tuple(observed.count(k) for k in range(1, kappa + 1))
    anchor = gen.interior_point(rng, len(counts))
    items = gen.anchored_items(rng, anchor, 2)
    support = tuple(Fraction(likelihood(m, ms) > 0) for ms in counts)
    items += ((support, dot(anchor, support) / 2),)
    query = gen.rnd_values(rng, kappa ** (n_star - len(observed)))
    doc = {
        "kappa": kappa, "n_star": n_star, "observed": observed,
        "count_prior": {"items": model_doc(len(counts), items)["items"]},
        "query_gamble": gamble_doc(query),
    }

    def value():
        full = lp.CategorySpace(kappa, n_star)
        rest = lp.CategorySpace(kappa, n_star - len(observed))
        prior = assessment(full.count_space, items)
        return lp.update_counts(prior, full, m, lp.count_gamble(rest, lp.Gamble(rest.space, query)))

    return CliRaw(("exchange", "update", "{scenario}"), (("scenario", doc),), 0, cli_value(value))


def make_cli_choquet(rng, slot=0):
    table, probes = make_lattice2m(rng)
    doc = {
        "space": [str(i) for i in range(LATTICE_N)],
        "events": [[str(i) for i in e] for e, _ in table],
        "values": [_r(v) for _, v in table],
    }
    values = {frozenset(e): v for e, v in table}
    return CliRaw(("choquet", "{sf}", "--gamble", "{gamble}"), (("sf", doc), ("gamble", gamble_doc(probes[0]))), 0,
                  cli_value(lambda: gen.choquet(values, probes[0])))


def make_cli_validate(rng, slot=0):
    raw = make_wide(8, (5,))(rng)
    return CliRaw(("validate", "{model}"), (("model", model_doc(raw[0], raw[1])),), 0,
                  lambda: {"kind": "table", "rows": {"valid": True, "schema": "assessment"}})


def make_cli_shift(op, length, nmax, boundary=False):
    def make(rng, slot):
        data = gen.random_window(rng, length + rng.randrange(length // 10))

        def value():
            f = lp.Truncated(data, 0, 3)
            fn = {"lnex": lp.lnex_theta, "unex": lp.unex_theta, "lres": lp.lnex_res}.get(op)
            return (fn(f, nmax) if fn else lp.lsamp_theta(f)).value

        return CliRaw(("shift", "{seq}", "--op", op, "--nmax", str(nmax)), (("seq", truncated_doc(data, 3)),),
                      1 if boundary else 0, None if boundary else cli_value(value), boundary)

    return make


def make_cli_schema_error(rng, slot=0):
    n, items, g = make_wide(4, (3,))(rng)
    doc = model_doc(n, items)
    doc["items"][0]["lower"] = "1/0"
    return CliRaw(("natex", "{model}", "--gamble", "{gamble}"), (("model", doc), ("gamble", gamble_doc(g))), 1, None)


def make_cli_sure_loss(rng, slot=0):
    n = 4
    items = gen.sure_loss_items(rng, n, 4)
    return CliRaw(("natex", "{model}", "--gamble", "{gamble}"),
                  (("model", model_doc(n, items)), ("gamble", gamble_doc(gen.rnd_values(rng, n)))), 2, None)


def check_cli(raw: CliRaw, answer, thorough):
    code, stdout, traceback = answer
    lines = stdout.splitlines()
    expect(code == raw.exit_code, f"exit code {code}, expected {raw.exit_code}")
    expect(len(lines) == 1 and stdout.endswith("\n"), f"{len(lines)} output lines, expected one")
    expect(not traceback, "a traceback was printed")
    report = json.loads(lines[0])
    if raw.exit_code:
        expect("result" not in report, "a refused request reported a result")
    else:
        expect(report.get("result") == raw.expected(), "report differs from the in-process value")


CLI = [
    Kind("cli.natex", 2, make_cli_natex, None, check_cli),
    Kind("cli.coherence", 2, make_cli_coherence, None, check_cli),
    Kind("cli.vertices", 2, make_cli_vertices, None, check_cli),
    Kind("cli.invariance", 2, make_cli_invariance, None, check_cli),
    Kind("cli.invnatex", 2, make_cli_invnatex, None, check_cli),
    Kind("cli.mixture", 2, make_cli_mixture, None, check_cli),
    Kind("cli.exchange", 2, make_cli_exchange, None, check_cli),
    Kind("cli.choquet", 2, make_cli_choquet, None, check_cli),
    Kind("cli.validate", 1, make_cli_validate, None, check_cli),
    Kind("cli.shift.lnex.1e5", 1, make_cli_shift("lnex", 100_000, 50), None, check_cli),
    Kind("cli.shift.unex", 1, make_cli_shift("unex", 10_000, 50), None, check_cli),
    Kind("cli.shift.lsamp", 1, make_cli_shift("lsamp", 10_000, 50), None, check_cli),
    Kind("cli.shift.lres", 1, make_cli_shift("lres", 10_000, 100), None, check_cli),
    Kind("cli.refuse.schema", 1, make_cli_schema_error, None, check_cli),
    Kind("cli.refuse.sure_loss", 1, make_cli_sure_loss, None, check_cli),
    Kind("cli.boundary.nmax0", 1, make_cli_shift("lnex", 1_000, 0, boundary=True), None, check_cli),
    Kind("cli.boundary.lres_nmax0", 1, make_cli_shift("lres", 1_000, 0, boundary=True), None, check_cli),
]


WORKLOADS = {
    "natex-fresh": NATEX_FRESH,
    "credal-reuse": CREDAL_REUSE,
    "sequence-scan": SEQUENCE_SCAN,
    "cli": CLI,
}
