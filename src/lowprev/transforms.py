"""Transformation monoids on finite spaces.

Closure under composition, the lifts of gambles, structural flags
(Abelian, group, cancellability), the partition of the space into smallest
invariant events, the orbits of the recurrent core (which carry the
invariant probability mass functions), and the pushforward action on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .core import Gamble, Space, Transformation, identity, lift
from .errors import TruncatedClosureError

CLOSURE_CAP = 10_000


@dataclass(frozen=True)
class TransformationMonoid:
    """Generators plus their composition closure (identity included).

    The closure is enumerated on first read, up to ``cap`` elements.
    ``truncated`` flags that it hit the cap and is incomplete; structural
    classification then refuses to run, but invariant atoms only ever
    need the generators.
    """

    space: Space
    generators: tuple[Transformation, ...]
    cap: int = CLOSURE_CAP

    @cached_property
    def _enumerated(self) -> tuple[frozenset[Transformation], bool]:
        elements = list(islice(words(self.generators), self.cap + 1))
        return frozenset(elements[: self.cap]), len(elements) > self.cap

    @property
    def closure(self) -> frozenset[Transformation]:
        return self._enumerated[0]

    @property
    def truncated(self) -> bool:
        return self._enumerated[1]


def words(generators: Sequence[Transformation]) -> Iterator[Transformation]:
    """Distinct compositions of the generators, breadth first, identity first.

    Every word is a generator composed with a shorter word, so composition
    on the left alone reaches them all.
    """
    ident = identity(generators[0].space)
    seen, frontier = {ident}, [ident]
    yield ident
    while frontier:
        nxt = []
        for t in frontier:
            for g in generators:
                w = g.compose(t)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
                    yield w
        frontier = nxt


def lifted_gambles(
    generators: Sequence[Transformation], pairs, cap: int, depth: int | None = None
) -> dict[Gamble, Fraction]:
    """The distinct lifts f o w of the gambles f in (f, bound) ``pairs``.

    w ranges over the words of at most ``depth`` generators (all of them
    when None), breadth first: lift(T, lift(w, f)) = lift(w o T, f).  Each
    lift keeps the strongest bound of the pairs it lifts.  The search stops
    once past ``cap`` gambles, so callers refuse a longer result.
    """
    found: dict[Gamble, Fraction] = {}
    for f, b in pairs:
        found[f] = max(b, found.get(f, b))
    frontier, level = list(found), 0
    while frontier and level != depth:
        level += 1
        nxt = []
        for f in frontier:
            for t in generators:
                h = lift(t, f)
                if h not in found or found[h] < found[f]:
                    found[h] = found[f]
                    nxt.append(h)
                    if len(found) > cap:
                        return found
        frontier = nxt
    return found


def closure(generators: Iterable[Transformation], cap: int = CLOSURE_CAP) -> TransformationMonoid:
    """All distinct finite compositions of the generators, plus identity."""
    if cap < 1:
        raise ValueError("closure cap must be at least 1")
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator (use the identity for the trivial monoid)")
    space = gens[0].space
    for g in gens:
        if g.space != space:
            raise ValueError("all generators must act on the same space")
    return TransformationMonoid(space, gens, cap)


def monoid(space: Space, generators: Iterable[Transformation], cap: int = CLOSURE_CAP) -> TransformationMonoid:
    gens = tuple(generators)
    if not gens:
        gens = (identity(space),)
    return closure(gens, cap)


@dataclass(frozen=True)
class MonoidFlags:
    abelian: bool
    group: bool
    left_cancellable: bool
    right_cancellable: bool


def classify(m: TransformationMonoid) -> MonoidFlags:
    """Structural flags, read from the generators.

    A map of a finite set with a one-sided inverse is a permutation, whose
    inverse is one of its powers, so the monoid is a group (and cancellable
    on both sides) exactly when every generator is a permutation.
    """
    if m.truncated:
        raise TruncatedClosureError("cannot classify a truncated closure")
    gens = m.generators
    abelian = all(s.compose(t) == t.compose(s) for i, s in enumerate(gens) for t in gens[i + 1:])
    group = all(t.is_permutation() for t in gens)
    return MonoidFlags(abelian, group, group, group)


@dataclass(frozen=True)
class InvariantAtoms:
    """The partition of the space into smallest invariant events."""

    monoid: TransformationMonoid
    partition: tuple[tuple[str, ...], ...]

    def atom_of(self, label: str) -> tuple[str, ...]:
        for block in self.partition:
            if label in block:
                return block
        raise KeyError(label)


def _components(points, generators) -> tuple[tuple[int, ...], ...]:
    """Components of the edges x ~ T(x) on ``points``, which every T maps
    into itself: ordered by least member, each block increasing."""
    block = {x: {x} for x in points}
    for t in generators:
        for x in points:
            small, large = sorted((block[x], block[t.image[x]]), key=len)
            if small is not large:
                large |= small
                block.update(dict.fromkeys(small, large))
    blocks = {id(b): b for b in block.values()}.values()
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def invariant_atoms(m: TransformationMonoid) -> InvariantAtoms:
    """Connected components of the edges x ~ T(x) over the generators.

    An event is invariant under a map exactly when membership is constant
    along these edges, so invariance under the generators (and hence under
    the whole generated monoid) is a union of components.  The closure is
    never needed.  These are the orbits only for groups (see core_orbits).
    """
    space = m.space
    partition = tuple(
        tuple(space.outcomes[i] for i in block)
        for block in _components(range(space.size), m.generators)
    )
    return InvariantAtoms(m, partition)


def core_orbits(m: TransformationMonoid) -> tuple[tuple[int, ...], ...]:
    """Orbits of the generators on the recurrent core, as outcome indices.

    The recurrent core is the largest set S with T(S) = S for every
    generator T, found by dropping x from the space while some T(x) is
    outside S or x is outside some T(S).  Each generator permutes it, so
    the components of x ~ T(x) there are orbits.  The previsions fixed by
    every T are the mixtures of the orbits' uniform laws.
    """
    gens, core = m.generators, set(range(m.space.size))
    while True:
        kept = {x for x in core if all(t.image[x] in core for t in gens)}
        kept = kept.intersection(*({t.image[x] for x in core} for t in gens))
        if kept == core:
            return _components(core, gens)
        core = kept


def is_invariant_gamble(m: TransformationMonoid, f) -> bool:
    """lift(T, f) == f for every generator T."""
    return all(lift(t, f) == f for t in m.generators)


def pushforward(t: Transformation, p: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Image of a probability mass function under a transformation.

    (Tp)(y) = sum of p(x) over x with T(x) = y; linear in p, and dual to
    lifting: (Tp).f = p.lift(T, f).
    """
    q = [Fraction(0)] * len(t.image)
    for i, j in enumerate(t.image):
        q[j] += p[i]
    return tuple(q)
