"""Lower previsions on finite domains.

An assessment is a finite list of (gamble, lower bound) pairs: supremum
acceptable buying prices for finitely many gambles.  Its credal set is the
polytope of probability mass functions that honour every bound.  Avoiding
sure loss is non-emptiness of that polytope, the natural extension of a
gamble is the polytope's lower envelope at that gamble, and coherence is
the fixed-point property that every assessed bound is reproduced by the
natural extension.

The desirability side works with finite sets of accepted gambles and the
cone they span together with the non-negative orthant.  Accepting f is
the bound E(f) >= 0, so cone membership and avoiding partial loss are
questions about the credal set of those bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .core import Gamble, Space, _check_same_space
from .errors import CapExceededError, SureLossError
from .rationals import frac
from .solver import (
    ONE,
    ZERO,
    Constraint,
    SimplexLP,
    enumerate_vertices,
    satisfies,
    solve_min,
    solve_minmax,
    VERTEX_CAP,
)


@dataclass(frozen=True)
class Assessment:
    """Finitely many lower-prevision judgements on one space.

    Duplicate gambles are allowed; the credal constraints then enforce the
    strongest bound automatically.
    """

    space: Space
    items: tuple[tuple[Gamble, Fraction], ...]

    def __post_init__(self):
        norm = []
        for f, b in self.items:
            if f.space != self.space:
                raise ValueError("all assessed gambles must live on the assessment space")
            norm.append((f, frac(b)))
        object.__setattr__(self, "items", tuple(norm))

    @classmethod
    def vacuous(cls, space: Space) -> "Assessment":
        return cls(space, ())

    @classmethod
    def from_prevision(cls, space: Space, masses: Sequence) -> "Assessment":
        """The precise prevision with the given probability masses.

        Encoded as one pair of bounds per outcome indicator, which pins the
        credal set to the single point.
        """
        p = [frac(v) for v in masses]
        if len(p) != space.size or any(v < 0 for v in p) or sum(p) != 1:
            raise ValueError("masses must be a probability vector over the space")
        items = []
        for i in range(space.size):
            ind = Gamble(space, tuple(ONE if j == i else ZERO for j in range(space.size)))
            items.append((ind, p[i]))
            items.append((-ind, -p[i]))
        return cls(space, tuple(items))

    @cached_property
    def _strongest(self) -> dict[tuple, tuple]:
        """Values and strongest bound of each distinct gamble, in first-seen order.

        Keyed on (numerator, denominator) pairs: no Fraction hash's modular inverse.
        """
        bounds: dict[tuple, tuple] = {}
        for g, b in self.items:
            key = tuple(map(Fraction.as_integer_ratio, g.values))
            old = bounds.get(key)
            if old is None or b > old[1]:
                bounds[key] = (g.values, b)
        return bounds

    def bound(self, f: Gamble) -> Fraction | None:
        """The strongest assessed bound for a gamble, None if unassessed."""
        if f.space != self.space:
            return None
        found = self._strongest.get(tuple(map(Fraction.as_integer_ratio, f.values)))
        return None if found is None else found[1]

    def domain(self) -> set[Gamble]:
        return {g for g, _ in self.items}


class CredalSet:
    """The polytope of dominating probability mass functions.

    Constraint rows are preprocessed: duplicate rows keep the strongest
    bound, and opposite pairs (g, b), (-g, -b) are merged into equalities,
    which keeps vertex enumeration in the right dimension.
    """

    def __init__(self, assessment: Assessment):
        self.assessment = assessment
        self.space = assessment.space
        bounds = assessment._strongest
        rows = []
        merged = set()
        for key, (coeffs, b) in bounds.items():
            if key in merged:
                continue
            neg = tuple([(-p, q) for p, q in key])
            if neg in bounds and bounds[neg][1] == -b and neg != key:
                rows.append(Constraint(coeffs, "==", b))
                merged.add(neg)
            else:
                rows.append(Constraint(coeffs, ">=", b))
        self.lp = SimplexLP(self.space.size, None, tuple(rows))

    def is_empty(self) -> bool:
        return solve_min(self.lp).status == "infeasible"

    def nonempty(self) -> "CredalSet":
        """This credal set; raises :class:`SureLossError` when it is empty."""
        if self.is_empty():
            raise SureLossError("assessment incurs sure loss")
        return self

    def contains(self, point: Sequence[Fraction]) -> bool:
        return satisfies(self.lp, point)

    def minimise(self, f: Gamble):
        return solve_min(self.lp.with_objective(f.values))


def avoids_sure_loss(assessment: Assessment) -> bool:
    """True iff some probability mass function dominates every bound."""
    return not CredalSet(assessment).is_empty()


def natural_extension(assessment: Assessment, g: Gamble) -> Fraction:
    """The lower envelope of the credal set at ``g``.

    This is the supremum buying price for ``g`` implied by the assessment
    and coherence alone.  Raises :class:`SureLossError` when the credal
    set is empty.
    """
    _check_same_space(assessment, g)
    result = CredalSet(assessment).minimise(g)
    if result.status == "infeasible":
        raise SureLossError("assessment incurs sure loss; no extension exists")
    return result.value


def upper_extension(assessment: Assessment, g: Gamble) -> Fraction:
    """Conjugate upper value: -E(-g)."""
    return -natural_extension(assessment, -g)


def is_coherent(assessment: Assessment) -> bool:
    """Avoiding sure loss plus reproduction of every assessed bound.

    An empty credal set's minima have no value, which equals no bound, and
    with no items the credal set is the whole simplex.
    """
    credal = CredalSet(assessment)
    return all(credal.minimise(f).value == b for f, b in assessment.items)


def coherent_version(assessment: Assessment) -> Assessment:
    """Replace every bound by its natural extension value.

    The result is the coherent assessment with the same credal set.
    """
    credal = CredalSet(assessment).nonempty()
    items = tuple((f, credal.minimise(f).value) for f, _ in assessment.items)
    return Assessment(assessment.space, items)


def credal_vertices(assessment: Assessment, cap: int = VERTEX_CAP) -> frozenset:
    """Extreme points of the credal set, exactly.

    Raises :class:`SureLossError` on an empty credal set and
    :class:`CapExceededError` past the dimension cap.
    """
    if assessment.space.size > cap:
        raise CapExceededError(
            f"credal vertex enumeration capped at {cap} outcomes"
        )
    vertices = enumerate_vertices(CredalSet(assessment).lp, cap)
    if not vertices:
        raise SureLossError("assessment incurs sure loss; credal set is empty")
    return vertices


# ---------------------------------------------------------------------------
# really desirable gambles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DesirableSet:
    """A finite set of gambles a subject accepts outright."""

    space: Space
    gambles: tuple[Gamble, ...]

    def __post_init__(self):
        for g in self.gambles:
            if g.space != self.space:
                raise ValueError("all gambles must live on the same space")


def _acceptance(desirable: DesirableSet) -> CredalSet:
    """The previsions that accept every gamble of the set: E(f) >= 0."""
    return CredalSet(Assessment(desirable.space, tuple((f, ZERO) for f in desirable.gambles)))


def desirable_cone_contains(desirable: DesirableSet, g: Gamble) -> bool:
    """Membership of ``g`` in the cone spanned by the set and the orthant.

    True iff g >= sum_k lambda_k f_k pointwise for some lambda >= 0.  By
    Farkas's lemma that holds exactly when every prevision giving each f_k
    a non-negative value gives g one too, so it is decided by one minimum
    over the acceptance polytope.  When that polytope is empty, some
    combination of the f_k is negative everywhere, and its multiples are
    dominated by every g.
    """
    _check_same_space(desirable, g)
    result = _acceptance(desirable).minimise(g)
    return result.status == "infeasible" or result.value >= 0


def avoids_partial_loss(desirable: DesirableSet) -> bool:
    """No non-negative combination is everywhere <= 0 and somewhere < 0.

    By Motzkin's transposition theorem this holds exactly when some
    prevision with every mass positive gives each gamble a non-negative
    value, that is when the largest smallest mass over the acceptance
    polytope is positive: one min-max program over -p_x.
    """
    n = desirable.space.size
    units = [[-ONE if y == x else ZERO for y in range(n)] for x in range(n)]
    result = solve_minmax(units, _acceptance(desirable).lp)
    return result.status == "optimal" and result.value < 0


# ---------------------------------------------------------------------------
# preference relations induced by an assessment
# ---------------------------------------------------------------------------

def almost_prefers(assessment: Assessment, f: Gamble, g: Gamble) -> bool:
    """f is almost-preferred to g iff E(f - g) >= 0."""
    return natural_extension(assessment, f - g) >= 0


def indifferent(assessment: Assessment, f: Gamble, g: Gamble) -> bool:
    return almost_prefers(assessment, f, g) and almost_prefers(assessment, g, f)


def incomparable(assessment: Assessment, f: Gamble, g: Gamble) -> bool:
    return not almost_prefers(assessment, f, g) and not almost_prefers(assessment, g, f)
