"""Set functions, n-monotonicity, Choquet integration, possibility measures.

On a finite space the Choquet integral is a finite telescoping sum over
the sorted distinct values of the gamble, so natural extensions of
2-monotone lower probabilities stay exact.  Strong invariance also has an
event-level characterisation: every dominating prevision must give each
event and its preimage the same probability.  Each event row
1_A - 1_{T^-1 A} is the sum over x in A of the singleton rows
1_{x} - 1_{T^-1 {x}}, so :func:`~lowprev.invariance.strongly_invariant`
decides that question with no cap on the space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from .core import Event, Gamble, Space, indicator
from .previsions import Assessment
from .rationals import frac
from .solver import ZERO

EventKey = frozenset


@dataclass(frozen=True)
class SetFunction:
    """Rational values on a lattice of events.

    The domain must contain the empty event and the whole space and be
    closed under union and intersection; closure is validated eagerly
    because the n-monotonicity sums quantify over meets.
    """

    space: Space
    values: tuple[tuple[EventKey, Fraction], ...]

    def __post_init__(self):
        table = {}
        universe = frozenset(self.space.outcomes)
        for members, value in self.values:
            key = frozenset(members)
            if not key <= universe:
                raise ValueError(f"event {sorted(key)} not inside the space")
            table[key] = frac(value)
        if frozenset() not in table or universe not in table:
            raise ValueError("domain must contain the empty event and the whole space")
        events = list(table)
        for a, b in itertools.combinations(events, 2):
            if a | b not in table or a & b not in table:
                raise ValueError("domain is not a lattice: missing a union or intersection")
        object.__setattr__(
            self, "values", tuple(sorted(table.items(), key=lambda kv: sorted(kv[0])))
        )
        object.__setattr__(self, "_table", table)

    @classmethod
    def from_dict(cls, space: Space, table) -> "SetFunction":
        return cls(space, tuple((frozenset(k), frac(v)) for k, v in table.items()))

    def domain(self) -> list[EventKey]:
        return [k for k, _ in self.values]

    def __call__(self, members) -> Fraction:
        key = frozenset(members)
        try:
            return self._table[key]
        except KeyError:
            raise KeyError(f"event {sorted(key)} outside the domain") from None

    def is_monotone(self) -> bool:
        return is_n_monotone(self, 1)


def on_all_events(space: Space, fn) -> SetFunction:
    """Build a set function on the full powerset from a callable."""
    table = {}
    for r in range(space.size + 1):
        for combo in itertools.combinations(space.outcomes, r):
            key = frozenset(combo)
            table[key] = frac(fn(key))
    return SetFunction.from_dict(space, table)


def is_n_monotone(s: SetFunction, n: int) -> bool:
    """Exhaustive alternating-sum check over the domain lattice.

    For every event A and every choice of up to n events A_1..A_p from the
    domain, the inclusion-exclusion sum of s over A meet the subfamilies
    must be non-negative.  Families of distinct domain events strictly
    below A suffice:
    - the sum reads only the meets A & A_i, which are domain events;
    - a member with A & A_i = A cancels its own terms, so the sum is 0;
    - two members with one meet reduce the sum to the family without one
      of them, a lower order that is also checked.
    """
    if n < 1:
        raise ValueError("n-monotonicity needs n >= 1")
    domain = s.domain()
    for a in domain:
        below = [b for b in domain if b < a]
        for p in range(1, n + 1):
            for family in itertools.combinations(below, p):
                total = s(a)
                for bits in range(1, 1 << p):
                    meet = a
                    count = 0
                    for i in range(p):
                        if bits >> i & 1:
                            meet = meet & family[i]
                            count += 1
                    total += (-1 if count % 2 else 1) * s(meet)
                if total < 0:
                    return False
    return True


def inner_set_function(s: SetFunction, a: Event) -> Fraction:
    """Largest value of a dominated domain event: sup over B <= A of s(B)."""
    key = frozenset(a.members)
    return max(v for k, v in s.values if k <= key)


def inner_extension(s: SetFunction) -> SetFunction:
    """The inner set function on all events."""
    return on_all_events(s.space, lambda key: max(v for k, v in s.values if k <= key))


def choquet_integral(s: SetFunction, f: Gamble) -> Fraction:
    """Exact finite Choquet integral of f against a set function on all events.

    Telescopes over the distinct values of f in decreasing order; for a
    probability measure this is the ordinary expectation, for a 2-monotone
    coherent lower probability it is the natural extension to gambles.
    """
    levels = sorted(set(f.values), reverse=True)
    if len(s.domain()) != 2 ** s.space.size:
        raise ValueError("the integrand set function must be defined on all events")
    total = levels[-1]
    for hi, lo in zip(levels, levels[1:]):
        level_set = frozenset(
            x for x, v in zip(f.space.outcomes, f.values) if v >= hi
        )
        total += (hi - lo) * s(level_set)
    return total


def assessment_from_set_function(s: SetFunction) -> Assessment:
    """One lower bound per domain event: the event-level assessment."""
    items = tuple(
        (indicator(Event(s.space, k)), v) for k, v in s.values if k and k != frozenset(s.space.outcomes)
    )
    return Assessment(s.space, items)


def belief_function(space: Space, masses) -> SetFunction:
    """Completely monotone lower probability from non-negative focal masses.

    ``masses`` maps nonempty events to weights summing to one; the value
    of an event is the mass of the focal sets it contains.
    """
    table = {frozenset(k): frac(v) for k, v in masses.items()}
    if any(v < 0 for v in table.values()) or sum(table.values()) != 1:
        raise ValueError("focal masses must be non-negative and sum to one")
    if frozenset() in table:
        raise ValueError("the empty set cannot carry mass")

    def value(key):
        return sum((v for k, v in table.items() if k <= key), ZERO)

    return on_all_events(space, value)


def possibility_upper(distribution: Gamble, a: Event) -> Fraction:
    """Upper probability of a maxitive measure: max of the distribution on A.

    The distribution must reach 1 somewhere for the measure to be a
    coherent upper probability.
    """
    if not a.members:
        return ZERO
    return max(distribution(x) for x in a.members)

