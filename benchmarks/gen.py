"""Seeded raw inputs for the benchmark workloads.

Everything here returns plain data (ints, Fractions, tuples), never
lowprev objects: library objects are built inside the timed queries, the
way a user builds them.  A raw model is ``(n, items)`` with ``items`` a
tuple of ``(values, lower)`` pairs; a gamble is a tuple of Fractions.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

ZERO = Fraction(0)


def rnd_frac(rng: random.Random, lo=-8, hi=8, max_den=4) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def rnd_values(rng: random.Random, n: int) -> tuple:
    return tuple(rnd_frac(rng) for _ in range(n))


def dot(p, values) -> Fraction:
    return sum((a * b for a, b in zip(p, values)), ZERO)


def interior_point(rng: random.Random, n: int) -> tuple:
    weights = [rng.randint(1, 9) for _ in range(n)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def anchored_items(rng: random.Random, anchor, k: int) -> tuple:
    """k random bounds that the mass function ``anchor`` dominates."""
    items = []
    for _ in range(k):
        f = rnd_values(rng, len(anchor))
        items.append((f, dot(anchor, f) - Fraction(rng.randint(0, 8), 4)))
    return tuple(items)


def sure_loss_items(rng: random.Random, n: int, k: int) -> tuple:
    """k >= 2 bounds that incur sure loss: E(f) >= b and E(-f) >= 1 - b."""
    f = rnd_values(rng, n)
    b = rnd_frac(rng)
    rest = anchored_items(rng, interior_point(rng, n), k - 2)
    return ((f, b), (tuple(-v for v in f), 1 - b)) + rest


# --- permutation groups and invariant anchors --------------------------------

def cycle_perm(n: int) -> tuple:
    return tuple((i + 1) % n for i in range(n))


def swap_perm(n: int, i: int, j: int) -> tuple:
    image = list(range(n))
    image[i], image[j] = j, i
    return tuple(image)


def rnd_perm(rng: random.Random, n: int) -> tuple:
    image = list(range(n))
    rng.shuffle(image)
    return tuple(image)


def blocks_perm(rng: random.Random, n: int, k: int) -> tuple:
    """A permutation with exactly k cycles: shuffle, cut into k runs, rotate each."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    image = [0] * n
    for block in (order[a:b] for a, b in zip([0] + cuts, cuts + [n])):
        for i, x in enumerate(block):
            image[x] = block[(i + 1) % len(block)]
    return tuple(image)


def rnd_map(rng: random.Random, n: int) -> tuple:
    return tuple(rng.randrange(n) for _ in range(n))


def orbits(n: int, generators) -> list:
    """Blocks of the partition into smallest invariant sets."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for image in generators:
        for i, j in enumerate(image):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    blocks: dict[int, list] = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    return [tuple(b) for _, b in sorted(blocks.items())]


def group_elements(n: int, generators) -> list:
    """All products of permutation generators (a finite group)."""
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for t in frontier:
            for g in generators:
                w = tuple(g[j] for j in t)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(seen)


def invariant_anchor(rng: random.Random, n: int, generators) -> tuple:
    """An interior mass function fixed by every permutation generator."""
    blocks = orbits(n, generators)
    weights = [rng.randint(1, 9) for _ in blocks]
    total = sum(weights)
    p = [ZERO] * n
    for w, block in zip(weights, blocks):
        for i in block:
            p[i] = Fraction(w, total * len(block))
    return tuple(p)


def map_invariant_anchor(rng: random.Random, n: int, image) -> tuple:
    """A mass function fixed by an arbitrary map: uniform on its cycles."""
    cycles = []
    seen = set()
    for start in range(n):
        path = []
        i = start
        while i not in path and i not in seen:
            path.append(i)
            i = image[i]
        if i in path:
            cycles.append(tuple(path[path.index(i):]))
        seen.update(path)
    weights = [rng.randint(1, 9) for _ in cycles]
    total = sum(weights)
    p = [ZERO] * n
    for w, cyc in zip(weights, cycles):
        for i in cyc:
            p[i] = Fraction(w, total * len(cyc))
    return tuple(p)


def lifted_closure(items, generators) -> tuple:
    """Close items under lifting f -> f o T, keeping the strongest bound."""
    bounds: dict[tuple, Fraction] = {}
    for f, b in items:
        bounds[f] = max(b, bounds.get(f, b))
    queue = list(bounds)
    while queue:
        f = queue.pop()
        for image in generators:
            lifted = tuple(f[j] for j in image)
            if lifted not in bounds or bounds[lifted] < bounds[f]:
                bounds[lifted] = bounds[f]
                queue.append(lifted)
    return tuple(sorted(bounds.items()))


def invariance_pins(n: int, generators) -> tuple:
    """Opposite bound pairs forcing p(x) == p(T x) for permutation generators."""
    items = []
    for image in generators:
        for i, j in enumerate(image):
            if i != j:
                diff = [ZERO] * n
                diff[min(i, j)], diff[max(i, j)] = Fraction(1), Fraction(-1)
                items.append((tuple(diff), ZERO))
                items.append((tuple(-v for v in diff), ZERO))
    return tuple(dict.fromkeys(items))


# --- set functions -----------------------------------------------------------

def all_events(n: int) -> list:
    return [
        frozenset(c) for r in range(n + 1) for c in itertools.combinations(range(n), r)
    ]


def belief_values(rng: random.Random, n: int) -> dict:
    """A random belief function on all events: completely monotone, coherent.

    Belief functions are 2-monotone, so their event-level assessment has
    the Choquet integral as its natural extension.
    """
    events = all_events(n)[1:]
    focal = rng.sample(events, rng.randint(2, 5))
    weights = [rng.randint(1, 6) for _ in focal]
    total = sum(weights)
    masses = {a: Fraction(w, total) for a, w in zip(focal, weights)}
    return {
        e: sum((m for a, m in masses.items() if a <= e), ZERO) for e in all_events(n)
    }


def choquet(values: dict, g) -> Fraction:
    """Finite Choquet integral by the telescoping sum over level sets."""
    levels = sorted(set(g), reverse=True)
    total = levels[-1]
    for hi, lo in zip(levels, levels[1:]):
        level_set = frozenset(i for i, v in enumerate(g) if v >= hi)
        total += (hi - lo) * values[level_set]
    return total


# --- sequence windows ------------------------------------------------------------

def quadratic_window(length: int) -> tuple:
    """Indicator of {k^2 + j : k >= 1, 0 <= j < k} on 0..length-1."""
    out = bytearray(length)
    k = 1
    while k * k < length:
        out[k * k: min(k * k + k, length)] = b"\x01" * (min(k * k + k, length) - k * k)
        k += 1
    return tuple(out)


def residue_window(spread: int, length: int) -> tuple:
    """Indicator of the complement of the residue counterexample's image set."""
    out = bytearray(b"\x01" * length)
    m = 1
    while spread * m * (m * (m - 1) // 2 + 1) < length or m == 1:
        base = m * (m - 1) // 2
        for r in range(m):
            pos = spread * m * (base + r + 1) + r
            if pos < length:
                out[pos] = 0
        m += 1
    return tuple(out)


def random_window(rng: random.Random, length: int) -> tuple:
    """Values k/d in [0, 3] with denominators d in {2, 3, 4, 6}."""
    dens = (2, 3, 4, 6)
    out = []
    for _ in range(length):
        d = dens[rng.randrange(4)]
        out.append(Fraction(rng.randint(0, 3 * d), d))
    return tuple(out)
