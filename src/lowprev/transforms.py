"""Transformation monoids on finite spaces.

Closure under composition, structural flags (Abelian, group,
cancellability), the partition of the space into smallest invariant
events, and the pushforward action on probability mass functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import count, islice
from typing import Iterable, Iterator, Sequence

from .core import Space, Transformation, identity
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


def words(
    generators: Sequence[Transformation], depth: int | None = None
) -> Iterator[Transformation]:
    """Distinct compositions of the generators, breadth first, identity first.

    Every word is a generator composed with a shorter word, so composition
    on the left alone reaches them all.  Words of length up to ``depth``
    are produced, or all of them when ``depth`` is None.
    """
    ident = identity(generators[0].space)
    seen, frontier = {ident}, [ident]
    yield ident
    for _ in count() if depth is None else range(depth):
        nxt = []
        for t in frontier:
            for g in generators:
                w = g.compose(t)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
                    yield w
        if not nxt:
            return
        frontier = nxt


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


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def invariant_atoms(m: TransformationMonoid) -> InvariantAtoms:
    """Connected components of the edges x ~ T(x) over the generators.

    An event is invariant under a map exactly when membership is constant
    along these edges, so invariance under the generators (and hence under
    the whole generated monoid) is a union of components.  The closure is
    never needed.
    """
    space = m.space
    uf = _UnionFind(space.size)
    for t in m.generators:
        for i, j in enumerate(t.image):
            uf.union(i, j)
    blocks: dict[int, list[int]] = {}
    for i in range(space.size):
        blocks.setdefault(uf.find(i), []).append(i)
    partition = tuple(
        tuple(space.outcomes[i] for i in sorted(idxs))
        for _, idxs in sorted(blocks.items())
    )
    return InvariantAtoms(m, partition)


def is_invariant_gamble(m: TransformationMonoid, f) -> bool:
    """lift(T, f) == f for every generator T."""
    from .core import lift

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
