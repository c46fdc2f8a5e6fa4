"""Shared random generators for the exact-arithmetic test suite.

Everything is seeded: the suite is deterministic run to run.  Hypothesis
runs derandomized, so its examples are the same every run too.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import settings

from lowprev import Assessment, Gamble, Space, Transformation

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def rnd_frac(rng: random.Random, lo=-8, hi=8, max_den=4) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def rnd_gamble(rng: random.Random, space: Space, lo=-8, hi=8, max_den=4) -> Gamble:
    return Gamble(space, tuple(rnd_frac(rng, lo, hi, max_den) for _ in space))


def rnd_interior_point(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    weights = [rng.randint(1, 9) for _ in range(n)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def rnd_asl_assessment(
    rng: random.Random, space: Space, max_items=6, strict_somewhere=False
) -> Assessment:
    """A random assessment guaranteed to avoid sure loss.

    Bounds are anchored below a hidden interior mass function, which
    therefore dominates them all.  With ``strict_somewhere`` at least one
    bound exceeds the gamble's minimum, so the credal set is a proper
    subset of the simplex.
    """
    anchor = rnd_interior_point(rng, space.size)
    while True:
        items = []
        for _ in range(rng.randint(1, max_items)):
            f = rnd_gamble(rng, space)
            value = sum(a * v for a, v in zip(anchor, f.values))
            slack = Fraction(rng.randint(0, 8), 4)
            items.append((f, value - slack))
        assessment = Assessment(space, tuple(items))
        if not strict_somewhere or any(b > f.inf() for f, b in items):
            return assessment


def rnd_weakly_invariant_assessment(
    rng: random.Random, space: Space, t: Transformation, max_items=3
) -> Assessment:
    """Random weakly T-invariant assessment that admits invariant dominators.

    Bounds are anchored below an invariant mass function (a convex mix of
    the invariance polytope's vertices), so every lifted bound stays
    dominated; closing the items under lifting then yields a weakly
    invariant assessment whose credal set contains that invariant point.
    """
    from lowprev import invariant_polytope_vertices, monoid, weakly_invariant_closure

    m = monoid(space, [t])
    vertices = sorted(invariant_polytope_vertices(m))
    weights = [rng.randint(1, 5) for _ in vertices]
    total = sum(weights)
    anchor = tuple(
        sum(Fraction(w, total) * v[i] for w, v in zip(weights, vertices))
        for i in range(space.size)
    )
    items = []
    for _ in range(rng.randint(1, max_items)):
        f = rnd_gamble(rng, space)
        value = sum(a * v for a, v in zip(anchor, f.values))
        items.append((f, value - Fraction(rng.randint(0, 6), 4)))
    return weakly_invariant_closure(Assessment(space, tuple(items)), m)


def rnd_map(rng: random.Random, space: Space) -> Transformation:
    return Transformation(
        space, tuple(rng.randrange(space.size) for _ in range(space.size))
    )


def rnd_permutation(rng: random.Random, space: Space) -> Transformation:
    image = list(range(space.size))
    rng.shuffle(image)
    return Transformation(space, tuple(image))


def transposition(space: Space, a: str, b: str) -> Transformation:
    image = list(range(space.size))
    ia, ib = space.index(a), space.index(b)
    image[ia], image[ib] = ib, ia
    return Transformation(space, tuple(image))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240606)


@pytest.fixture
def space3() -> Space:
    return Space(("1", "2", "3"))


@pytest.fixture
def space4() -> Space:
    return Space(("1", "2", "3", "4"))


@pytest.fixture
def space6() -> Space:
    return Space(("1", "2", "3", "4", "5", "6"))


def rnd_belief_function(rng: random.Random, space: Space):
    """Random completely monotone coherent lower probability on all events."""
    import itertools

    from lowprev import belief_function

    subsets = [
        frozenset(c)
        for r in range(1, space.size + 1)
        for c in itertools.combinations(space.outcomes, r)
    ]
    chosen = rng.sample(subsets, rng.randint(2, min(5, len(subsets))))
    weights = [rng.randint(1, 6) for _ in chosen]
    total = sum(weights)
    return belief_function(space, {c: Fraction(w, total) for c, w in zip(chosen, weights)})


def rnd_two_monotone(rng: random.Random, space: Space, tries=40):
    """Random 2-monotone coherent lower probability on all events.

    Perturbs a belief function towards a random additive measure and keeps
    the mix only when exact 2-monotonicity survives; falls back to the
    belief function itself, which is always valid.
    """
    from lowprev import is_n_monotone
    from lowprev.choquet import on_all_events

    base = rnd_belief_function(rng, space)
    for _ in range(tries):
        masses = {x: Fraction(rng.randint(1, 5)) for x in space.outcomes}
        total = sum(masses.values())
        lam = Fraction(rng.randint(0, 4), 4)

        def mixed(key, base=base, lam=lam):
            additive = sum(masses[x] for x in key) / total
            return (1 - lam) * base(key) + lam * additive

        candidate = on_all_events(space, mixed)
        if is_n_monotone(candidate, 2):
            return candidate
    return base
