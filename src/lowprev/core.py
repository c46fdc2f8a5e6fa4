"""Possibility spaces, gambles, events and transformations.

A gamble is a bounded reward function on a finite possibility space; on a
finite space that is simply one exact rational per outcome, stored in the
space's canonical outcome order.  Transformations are total maps of the
space into itself, stored as index arrays, and act on gambles by lifting:
``lift(T, f) == f o T``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import SpaceMismatchError
from .rationals import frac


@dataclass(frozen=True)
class Space:
    """An ordered finite set of distinct outcome labels."""

    outcomes: tuple[str, ...]

    def __post_init__(self):
        if len(self.outcomes) < 1:
            raise ValueError("a possibility space needs at least one outcome")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError("outcome labels must be distinct")
        object.__setattr__(self, "outcomes", tuple(str(x) for x in self.outcomes))

    @property
    def size(self) -> int:
        return len(self.outcomes)

    def index(self, label: str) -> int:
        return self.outcomes.index(label)

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self):
        return len(self.outcomes)


def _check_same_space(a, *others):
    for b in others:
        if a.space != b.space:
            raise SpaceMismatchError(f"{a!r} and {b!r} live on different spaces")


@dataclass(frozen=True)
class Gamble:
    """A reward function on a finite space, one exact value per outcome."""

    space: Space
    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(frac(v) for v in self.values)
        if len(vals) != self.space.size:
            raise ValueError(
                f"gamble has {len(vals)} values for a "
                f"{self.space.size}-outcome space"
            )
        object.__setattr__(self, "values", vals)

    def __call__(self, label: str) -> Fraction:
        return self.values[self.space.index(label)]

    def sup(self) -> Fraction:
        return max(self.values)

    def inf(self) -> Fraction:
        return min(self.values)

    def __add__(self, other):
        if isinstance(other, Gamble):
            _check_same_space(self, other)
            return Gamble(self.space, tuple(a + b for a, b in zip(self.values, other.values)))
        mu = frac(other)
        return Gamble(self.space, tuple(v + mu for v in self.values))

    __radd__ = __add__

    def __neg__(self):
        return Gamble(self.space, tuple(-v for v in self.values))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Gamble) else -frac(other))

    def __rsub__(self, other):
        return (-self) + frac(other)

    def __mul__(self, scalar):
        lam = frac(scalar)
        return Gamble(self.space, tuple(lam * v for v in self.values))

    __rmul__ = __mul__

    def meet(self, other: "Gamble") -> "Gamble":
        """Pointwise minimum."""
        _check_same_space(self, other)
        return Gamble(self.space, tuple(min(a, b) for a, b in zip(self.values, other.values)))

    def join(self, other: "Gamble") -> "Gamble":
        """Pointwise maximum."""
        _check_same_space(self, other)
        return Gamble(self.space, tuple(max(a, b) for a, b in zip(self.values, other.values)))


def gamble(space: Space, values: Sequence) -> Gamble:
    return Gamble(space, tuple(frac(v) for v in values))


def constant_gamble(space: Space, value) -> Gamble:
    return Gamble(space, (frac(value),) * space.size)


def sup(f: Gamble) -> Fraction:
    return f.sup()


def inf(f: Gamble) -> Fraction:
    return f.inf()


@dataclass(frozen=True)
class Event:
    """A subset of the possibility space."""

    space: Space
    members: frozenset[str]

    def __post_init__(self):
        members = frozenset(str(x) for x in self.members)
        unknown = members - set(self.space.outcomes)
        if unknown:
            raise ValueError(f"labels {sorted(unknown)} are not outcomes of the space")
        object.__setattr__(self, "members", members)

    def __contains__(self, label: str) -> bool:
        return label in self.members


def event(space: Space, members: Iterable) -> Event:
    return Event(space, frozenset(str(x) for x in members))


def indicator(a: Event) -> Gamble:
    """The 0/1 gamble of an event."""
    one, zero = Fraction(1), Fraction(0)
    return Gamble(a.space, tuple(one if x in a.members else zero for x in a.space))


@dataclass(frozen=True)
class Transformation:
    """A total map of the space into itself, as indices in canonical order.

    ``image[i] == j`` means the i-th outcome is sent to the j-th.  No
    injectivity or surjectivity is assumed.
    """

    space: Space
    image: tuple[int, ...]

    def __post_init__(self):
        img = tuple(int(i) for i in self.image)
        n = self.space.size
        if len(img) != n or any(not 0 <= i < n for i in img):
            raise ValueError("image must list one valid outcome index per outcome")
        object.__setattr__(self, "image", img)

    def __call__(self, label: str) -> str:
        return self.space.outcomes[self.image[self.space.index(label)]]

    def compose(self, other: "Transformation") -> "Transformation":
        """self o other: apply ``other`` first, then ``self``."""
        _check_same_space(self, other)
        return Transformation(self.space, tuple(self.image[j] for j in other.image))

    def is_permutation(self) -> bool:
        return len(set(self.image)) == self.space.size

    def preimage(self, a: Event) -> Event:
        member_idx = {self.space.index(x) for x in a.members}
        return Event(
            self.space,
            frozenset(x for i, x in enumerate(self.space.outcomes) if self.image[i] in member_idx),
        )


def identity(space: Space) -> Transformation:
    return Transformation(space, tuple(range(space.size)))


def constant_map(space: Space, label: str) -> Transformation:
    return Transformation(space, (space.index(label),) * space.size)


def lift(t: Transformation, f: Gamble) -> Gamble:
    """Turn a space transformation into a gamble transformation: x -> f(Tx)."""
    _check_same_space(t, f)
    return Gamble(f.space, tuple(f.values[j] for j in t.image))


def conjugate_upper(lower: Callable[[Gamble], Fraction], f: Gamble) -> Fraction:
    """Upper prevision conjugate to a lower prevision functional: -L(-f)."""
    return -lower(-f)
