"""Exchangeable lower previsions and predictive updating.

A sequence of categorical observations is exchangeable when the joint
model is strongly invariant under all permutations of the positions; on a
finite horizon that is exactly the models obtained by drawing without
replacement from an urn whose unknown composition carries a lower
prevision on count vectors.  Updating on an observed sample reduces, via
sufficiency of the count vector, to conditioning the urn model with a
hypergeometric likelihood through the Generalised Bayes Rule, computed
here as one exact fractional programme.

The count classes are the core orbits of the position permutations, so
:func:`exchangeable_from_counts` is the orbit reduction of
:mod:`lowprev.invariance` (de Finetti's finite representation).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial

from .core import Gamble, Space, Transformation
from .errors import CapExceededError, PositivityError, SureLossError
from .previsions import Assessment, CredalSet, credal_vertices, natural_extension
from .solver import (
    ONE,
    ZERO,
    extreme_points,
    polytope_inequalities,
    solve_fractional_min,
)
from .transforms import monoid
from .invariance import strongly_invariant

SEQUENCE_CAP = 4096


def counting_map(x, kappa: int) -> tuple[int, ...]:
    """Count vector of a sample: occurrences of each category 1..kappa."""
    counts = [0] * kappa
    for v in x:
        if not 1 <= v <= kappa:
            raise ValueError(f"entry {v} outside categories 1..{kappa}")
        counts[v - 1] += 1
    return tuple(counts)


def atom_size(m) -> int:
    """Number of orderings of a composition: the multinomial coefficient."""
    n = sum(m)
    size = factorial(n)
    for k in m:
        size //= factorial(k)
    return size


def count_vectors(kappa: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All compositions of n into kappa category counts, in colex order."""
    vecs = []
    for combo in itertools.combinations_with_replacement(range(kappa), n):
        counts = [0] * kappa
        for c in combo:
            counts[c] += 1
        vecs.append(tuple(counts))
    return tuple(sorted(set(vecs), key=lambda m: m[::-1]))


@dataclass(frozen=True)
class CategorySpace:
    """N categorical variables with values in 1..kappa, jointly."""

    kappa: int
    n: int

    def __post_init__(self):
        if self.kappa < 2 or self.n < 1:
            raise ValueError("need kappa >= 2 and n >= 1")
        if self.kappa ** self.n > SEQUENCE_CAP:
            raise CapExceededError(
                f"sequence space {self.kappa}^{self.n} exceeds cap {SEQUENCE_CAP}"
            )

    @cached_property
    def sequences(self) -> tuple[tuple[int, ...], ...]:
        return tuple(itertools.product(range(1, self.kappa + 1), repeat=self.n))

    @cached_property
    def space(self) -> Space:
        sep = "" if self.kappa <= 9 else "."
        return Space(tuple(sep.join(map(str, s)) for s in self.sequences))

    @cached_property
    def counts(self) -> tuple[tuple[int, ...], ...]:
        return count_vectors(self.kappa, self.n)

    @cached_property
    def count_space(self) -> Space:
        return Space(tuple(",".join(map(str, m)) for m in self.counts))

    @cached_property
    def count_index(self) -> dict:
        return {m: i for i, m in enumerate(self.counts)}

    def sequence_counts(self) -> tuple[tuple[int, ...], ...]:
        return tuple(counting_map(s, self.kappa) for s in self.sequences)


def uniform_given_count(cs: CategorySpace, f: Gamble, m) -> Fraction:
    """Mean of f over the orderings of composition m (the urn prevision)."""
    m = tuple(m)
    values = [
        v for v, c in zip(f.values, cs.sequence_counts()) if c == m
    ]
    if not values:
        raise ValueError(f"{m} is not a composition of {cs.n} into {cs.kappa} counts")
    return sum(values) / len(values)


def count_gamble(cs: CategorySpace, f: Gamble) -> Gamble:
    """The gamble m -> uniform_given_count(f, m) on the count space."""
    sums = [ZERO] * len(cs.counts)
    sizes = [0] * len(cs.counts)
    for v, c in zip(f.values, cs.sequence_counts()):
        i = cs.count_index[c]
        sums[i] += v
        sizes[i] += 1
    return Gamble(cs.count_space, tuple(s / n for s, n in zip(sums, sizes)))


def exchangeable_from_counts(cs: CategorySpace, count_model: Assessment, f: Gamble) -> Fraction:
    """Evaluate the exchangeable model induced by an urn-composition model."""
    if count_model.space != cs.count_space:
        raise ValueError("count model must live on the count space")
    return natural_extension(count_model, count_gamble(cs, f))


def exchangeable_assessment(cs: CategorySpace, count_model: Assessment) -> Assessment:
    """The joint assessment whose credal set is the urn mixture polytope.

    Pairs of opposite bounds force equal mass on sequences with equal
    counts; each count bound is lifted through the counting map.  The
    induced natural extension agrees with :func:`exchangeable_from_counts`
    on every gamble.
    """
    space = cs.space
    items = []
    by_count: dict[tuple, list[int]] = {}
    for i, c in enumerate(cs.sequence_counts()):
        by_count.setdefault(c, []).append(i)
    for idxs in by_count.values():
        for a, b in zip(idxs, idxs[1:]):
            diff = [ZERO] * len(space)
            diff[a], diff[b] = ONE, -ONE
            gam = Gamble(space, tuple(diff))
            items.append((gam, ZERO))
            items.append((-gam, ZERO))
    for g, bound in count_model.items:
        lifted = Gamble(
            space,
            tuple(g.values[cs.count_index[c]] for c in cs.sequence_counts()),
        )
        items.append((lifted, bound))
    return Assessment(space, tuple(items))


def count_marginals(cs: CategorySpace, points) -> set:
    """Project sequence-space mass functions to count-space mass functions."""
    out = set()
    seq_counts = cs.sequence_counts()
    for p in points:
        q = [ZERO] * len(cs.counts)
        for v, c in zip(p, seq_counts):
            q[cs.count_index[c]] += v
        out.add(tuple(q))
    return out


def position_permutation_generators(cs: CategorySpace) -> list[Transformation]:
    """Adjacent position transpositions plus the full rotation, lifted.

    These generate the symmetric group on positions with O(N) generators;
    for N == 1 the list holds just the identity.
    """
    index = {s: i for i, s in enumerate(cs.sequences)}
    gens = []
    perms = []
    n = cs.n
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        perms.append(perm)
    if n > 1:
        perms.append(list(range(1, n)) + [0])
    if not perms:
        perms.append(list(range(n)))
    for perm in perms:
        image = tuple(
            index[tuple(s[perm[j]] for j in range(n))] for s in cs.sequences
        )
        gens.append(Transformation(cs.space, image))
    return gens


def is_exchangeable(cs: CategorySpace, assessment: Assessment) -> bool:
    """Strong invariance under all position permutations, via generators."""
    if assessment.space != cs.space:
        raise ValueError("assessment must live on the joint sequence space")
    return strongly_invariant(assessment, monoid(cs.space, position_permutation_generators(cs)))


def category_permutation(cs: CategorySpace, perm) -> Transformation:
    """The lifted action of a category relabelling on the sequence space.

    ``perm[k]`` is the new category of old category k+1, 1-based.
    """
    index = {s: i for i, s in enumerate(cs.sequences)}
    image = tuple(index[tuple(perm[v - 1] for v in s)] for s in cs.sequences)
    return Transformation(cs.space, image)


def count_category_permutation(cs: CategorySpace, perm) -> Transformation:
    """The same relabelling acting on count vectors."""
    image = tuple(
        cs.count_index[tuple(m[perm.index(k + 1)] for k in range(cs.kappa))]
        for m in cs.counts
    )
    return Transformation(cs.count_space, image)


# ---------------------------------------------------------------------------
# sampling without replacement and predictive updating
# ---------------------------------------------------------------------------

def likelihood(m, m_star) -> Fraction:
    """Probability of drawing the ordered sample with counts m from urn m_star.

    Sampling without replacement; zero when some category is over-drawn.
    """
    m, m_star = tuple(m), tuple(m_star)
    if len(m) != len(m_star):
        raise ValueError("count vectors must have the same number of categories")
    if any(a > b for a, b in zip(m, m_star)):
        return ZERO
    residual = tuple(b - a for a, b in zip(m, m_star))
    return Fraction(atom_size(residual), atom_size(m_star))


def update_counts(
    prior: Assessment, full: CategorySpace, m, h: Gamble
) -> Fraction:
    """Lower prevision of h on the residual composition, given counts m.

    ``prior`` models the full urn on ``full.count_space``; ``m`` is the
    observed sample's count vector; ``h`` is a gamble on the compositions
    of the remaining draws.  Computed as the exact infimum of the Bayes
    ratio over the prior's credal set.  Requires positive lower
    probability of the observation.
    """
    m = tuple(m)
    n_obs = sum(m)
    if not 1 <= n_obs < full.n:
        raise ValueError("observed count must be a proper nonempty sub-sample")
    rest = CategorySpace(full.kappa, full.n - n_obs)
    if h.space != rest.count_space:
        raise ValueError("posterior gamble must live on the residual count space")
    den, num = [], []
    for m_star in full.counts:
        lk = likelihood(m, m_star)
        den.append(lk)
        if lk == 0:
            num.append(ZERO)
        else:
            residual = tuple(b - a for a, b in zip(m, m_star))
            num.append(lk * h.values[rest.count_index[residual]])
    try:
        result = solve_fractional_min(num, den, CredalSet(prior).lp)
    except PositivityError:
        raise PositivityError("observation has lower probability 0; updating is refused") from None
    if result.status == "infeasible":
        raise SureLossError("prior incurs sure loss")
    return result.value


def predictive_update(
    prior: Assessment, full: CategorySpace, x, g: Gamble
) -> Fraction:
    """Lower prevision of a gamble on the remaining variables, given a sample.

    Depends on the sample only through its count vector, and keeps the
    remaining variables exchangeable.
    """
    m = counting_map(x, full.kappa)
    rest = CategorySpace(full.kappa, full.n - len(tuple(x)))
    return update_counts(prior, full, m, count_gamble(rest, g))


def posterior_count_assessment(prior: Assessment, full: CategorySpace, m) -> Assessment:
    """An assessment on the residual count space matching the GBR update.

    Bayes-updates every credal vertex of the prior, then rebuilds an exact
    H-representation of the hull of the posteriors.
    """
    m = tuple(m)
    rest = CategorySpace(full.kappa, full.n - sum(m))
    den = [likelihood(m, m_star) for m_star in full.counts]
    posteriors = set()
    for q in credal_vertices(prior):
        mass = sum(a * b for a, b in zip(q, den))
        if mass <= 0:
            raise PositivityError(
                "a credal vertex gives the observation probability 0"
            )
        post = [ZERO] * len(rest.counts)
        for m_star, lk, qv in zip(full.counts, den, q):
            if lk > 0:
                residual = tuple(b - a for a, b in zip(m, m_star))
                post[rest.count_index[residual]] += qv * lk / mass
        posteriors.add(tuple(post))
    points = extreme_points(posteriors)
    equalities, inequalities = polytope_inequalities(points)
    items = []
    for coeffs, rhs in inequalities:
        items.append((Gamble(rest.count_space, coeffs), rhs))
    for coeffs, rhs in equalities:
        gam = Gamble(rest.count_space, coeffs)
        items.append((gam, rhs))
        items.append((-gam, -rhs))
    cleaned = [(g, b) for g, b in items if len(set(g.values)) > 1]
    return Assessment(rest.count_space, tuple(cleaned))
