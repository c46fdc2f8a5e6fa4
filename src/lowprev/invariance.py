"""Weak and strong invariance of lower previsions under monoids.

Weak invariance is symmetry *of* the model: the credal set is mapped into
itself by every transformation.  Strong invariance models a belief *of*
symmetry: every dominating prevision is fixed by every transformation.
Both are lower bounds on the natural extension of finitely many gambles,
read off the assessment or decided by one LP each; only
:func:`invariance_report` walks the credal vertices, for its witnesses.

The previsions fixed by every transformation are the mixtures of the
uniform laws on the orbits of the recurrent core
(:func:`~lowprev.transforms.core_orbits`); de Finetti's finite
representation of exchangeable models is the case of position
permutations.  Whether one exists, the vertices of their polytope and
the smallest strongly invariant dominating model all read from those
orbits, the last as one LP with one variable per orbit and each assessed
gamble replaced by its orbit means.  The quotient of a strongly invariant
model under a group maps each assessed gamble to its atom means.  The
mixture lower prevision, symmetrisation and the lifting checks read only
the distinct lifts of gambles (:func:`~lowprev.transforms.lifted_gambles`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Gamble, Space, _check_same_space, lift
from .errors import (
    CapExceededError,
    NoInvariantDominatorError,
    NotAGroupError,
    NotStronglyInvariantError,
    SureLossError,
    TruncatedClosureError,
)
from .previsions import (
    Assessment,
    CredalSet,
    coherent_version,
    credal_vertices,
    natural_extension,
)
from .solver import ZERO, solve_minmax
from .transforms import TransformationMonoid, core_orbits, invariant_atoms
from .transforms import InvariantAtoms, lifted_gambles, pushforward


# ---------------------------------------------------------------------------
# invariance checks
# ---------------------------------------------------------------------------

def assessment_weakly_invariant(assessment: Assessment, m: TransformationMonoid) -> bool:
    """Domain closed under lifting, with bounds that never drop.

    Checking the generators suffices: lifted constraints compose.  So it
    holds when one lifting step adds no gamble and raises no bound.
    """
    items, cap = assessment.items, len(assessment.items)
    return lifted_gambles(m.generators, items, cap, 1) == lifted_gambles(m.generators, items, cap, 0)


def _all_at_least(assessment: Assessment, pairs) -> bool:
    """E(h) >= c for every (h, c) in ``pairs``, over a non-empty credal set.

    Every dominating prevision honours an assessed bound, so an assessed
    bound of at least c on h answers without an LP.
    """
    credal = CredalSet(assessment).nonempty()
    for h, c in pairs:
        b = assessment.bound(h)
        if (b is None or b < c) and credal.minimise(h).value < c:
            return False
    return True


def _witness(vertices, m: TransformationMonoid, fails):
    """First (vertex, generator T) with fails(vertex, pushforward(T, vertex))."""
    for vertex in vertices:
        for t in m.generators:
            if fails(vertex, pushforward(t, vertex)):
                return vertex, t
    return None


def credal_weakly_invariant(assessment: Assessment, m: TransformationMonoid) -> bool:
    """T M(A) inside M(A) for every generator T.

    (TP)(f) = P(lift(T, f)), so TP honours an assessed (f, b) for every
    dominating P exactly when E(lift(T, f)) >= b.
    """
    lifted = ((lift(t, f), b) for f, b in assessment.items for t in m.generators)
    return _all_at_least(assessment, lifted)


def strongly_invariant(assessment: Assessment, m: TransformationMonoid) -> bool:
    """Every dominating prevision is fixed by every transformation.

    The fixed previsions vanish off the recurrent core and are constant
    along each generator on it, so the rows are -1_x for x off the core and
    1_x - 1_{T(x)} for each core point x that a generator T moves.  Each
    generator permutes the core, so its rows sum to zero along every cycle,
    and lower envelopes >= 0 on all rows force equality.
    """
    _check_same_space(assessment, m)
    n = assessment.space.size
    core = {x for orbit in core_orbits(m) for x in orbit}
    rows = [{x: -1} for x in range(n) if x not in core]
    rows += [{x: 1, t.image[x]: -1} for t in m.generators for x in sorted(core) if t.image[x] != x]
    gambles = (Gamble(assessment.space, [r.get(i, 0) for i in range(n)]) for r in rows)
    return _all_at_least(assessment, ((h, ZERO) for h in gambles))


@dataclass(frozen=True)
class InvarianceReport:
    """Joint result of the three invariance checks.

    The credal-level fields are None, with no witnesses, when the
    assessment incurs sure loss: there is no credal set to speak about,
    and only the assessment-level check is reported.
    """

    weak_assessment_level: bool
    weak_credal_level: bool | None
    strong: bool | None
    witnesses: dict


def invariance_report(assessment: Assessment, m: TransformationMonoid) -> InvarianceReport:
    weak_domain = assessment_weakly_invariant(assessment, m)
    witnesses: dict = {}
    try:
        vertices = sorted(credal_vertices(assessment))
    except SureLossError:
        return InvarianceReport(weak_domain, None, None, {})
    credal = CredalSet(assessment)
    weak_witness = _witness(vertices, m, lambda v, q: not credal.contains(q))
    strong_witness = _witness(vertices, m, lambda v, q: q != v)
    if weak_witness is not None:
        witnesses["weak"] = weak_witness
    if strong_witness is not None:
        witnesses["strong"] = strong_witness
    return InvarianceReport(
        weak_domain, weak_witness is None, strong_witness is None, witnesses
    )


def weakly_invariant_closure(
    assessment: Assessment, m: TransformationMonoid, cap: int = 512
) -> Assessment:
    """Close the item list under generator lifting, carrying bounds along.

    Every lifted gamble inherits the strongest bound of its sources, so
    the result is weakly invariant at the assessment level, and so is its
    natural extension.  Raises :class:`CapExceededError` when the closure
    has more than ``cap`` gambles.
    """
    bounds = lifted_gambles(m.generators, assessment.items, cap)
    if len(bounds) > cap:
        raise CapExceededError("lifting closure exceeded the cap")
    return Assessment(assessment.space, tuple(bounds.items()))


# ---------------------------------------------------------------------------
# invariant previsions and the strongly invariant natural extension
# ---------------------------------------------------------------------------

def _orbit_means(orbits, f: Gamble) -> tuple[Fraction, ...]:
    """Mean of f over each block of outcome indices."""
    return tuple(sum(f.values[i] for i in block) / len(block) for block in orbits)


def invariant_previsions_exist(m: TransformationMonoid) -> bool:
    """Is some probability mass function fixed by every generator?"""
    return bool(core_orbits(m))


def invariant_polytope_vertices(m: TransformationMonoid) -> frozenset:
    """Extreme points of the invariant previsions: one uniform law per core orbit."""
    n = m.space.size
    return frozenset(
        tuple(Fraction(1, len(orbit)) if i in orbit else ZERO for i in range(n))
        for orbit in core_orbits(m)
    )


def strongly_invariant_natex(
    assessment: Assessment, m: TransformationMonoid, g: Gamble
) -> Fraction:
    """Lower envelope of the invariant previsions dominating the assessment.

    This is the most conservative coherent model that both honours the
    assessed bounds and treats every gamble as indifferent to its
    transforms.  Raises :class:`NoInvariantDominatorError` when no
    dominating invariant prevision exists, and :class:`SureLossError`
    when even the credal set is empty.
    """
    _check_same_space(assessment, m, g)
    orbits = core_orbits(m)
    if orbits:  # an invariant prevision is a law on the orbits, paying orbit means
        space = Space(tuple(range(len(orbits))))
        items = tuple((Gamble(space, _orbit_means(orbits, f)), b) for f, b in assessment.items)
        means = Gamble(space, _orbit_means(orbits, g))
        result = CredalSet(Assessment(space, items)).minimise(means)
        if result.status == "optimal":
            return result.value
    # a dominating invariant prevision lies in the credal set, so only now
    # can the assessment incur sure loss
    CredalSet(assessment).nonempty()
    raise NoInvariantDominatorError("no invariant coherent prevision dominates the assessment")


# ---------------------------------------------------------------------------
# mixture lower previsions
# ---------------------------------------------------------------------------

def mixture_lower_prevision(
    assessment: Assessment, m: TransformationMonoid, g: Gamble, depth: int
) -> Fraction:
    """Best lower bound achievable by averaging transformed copies of ``g``.

    The sup over convex mixtures rho of words w (length <= depth) of
    E(sum_w rho_w lift(w, g)).  By the minimax theorem this equals the
    min over the credal set of max_w P(lift(w, g)), one exact LP over the
    assessment's rows, one objective per distinct lift.  Uniform averages
    with repetition realise every rational mixture, so this is their
    supremum too.  Monotone non-decreasing in ``depth``.  Raises
    :class:`TruncatedClosureError` past the monoid's cap of lifts and
    :class:`SureLossError` when the credal set is empty.
    """
    _check_same_space(assessment, m, g)
    lifts = lifted_gambles(m.generators, [(g, ZERO)], m.cap, depth)
    if len(lifts) > m.cap:
        raise TruncatedClosureError("more distinct lifts than the closure cap")
    result = solve_minmax([h.values for h in lifts], CredalSet(assessment).lp)
    if result.status == "infeasible":
        raise SureLossError("assessment incurs sure loss")
    return result.value


# ---------------------------------------------------------------------------
# finite groups: symmetrisation and the atomic representation
# ---------------------------------------------------------------------------

def _require_group(m: TransformationMonoid):
    if not all(t.is_permutation() for t in m.generators):
        raise NotAGroupError("operation requires a finite group of permutations")


def symmetrize(assessment: Assessment, group: TransformationMonoid, g: Gamble) -> Fraction:
    """Uniform average of E(lift(pi, g)) over the whole group.

    The resulting functional of g is weakly invariant under the group, and
    weakly invariant models are exactly its fixed points.  Equal lifts come
    from one coset of g's stabiliser, so the average runs over g's orbit,
    one minimum per lift over the one credal set.  Raises
    :class:`TruncatedClosureError` past the group's cap of lifts and
    :class:`SureLossError` when the credal set is empty.
    """
    _require_group(group)
    _check_same_space(assessment, g)
    lifts = lifted_gambles(group.generators, [(g, ZERO)], group.cap)
    if len(lifts) > group.cap:
        raise TruncatedClosureError("the orbit of the gamble exceeds the closure cap")
    credal = CredalSet(assessment).nonempty()
    return sum(credal.minimise(h).value for h in lifts) / len(lifts)


@dataclass(frozen=True)
class AtomLowerPrevision:
    """A lower prevision on the quotient space of invariant atoms."""

    atoms: InvariantAtoms
    assessment: Assessment  # on the quotient space, one outcome per atom

    @property
    def quotient_space(self) -> Space:
        return self.assessment.space


def quotient_space(atoms: InvariantAtoms) -> Space:
    return Space(tuple(",".join(block) for block in atoms.partition))


def atom_representation(quotient: AtomLowerPrevision, g: Gamble) -> Fraction:
    """Evaluate the two-stage model: quotient prevision of atom means."""
    blocks = [[g.space.index(x) for x in block] for block in quotient.atoms.partition]
    means = _orbit_means(blocks, g)
    return natural_extension(quotient.assessment, Gamble(quotient.quotient_space, means))


def extract_atom_lowprev(assessment: Assessment, group: TransformationMonoid) -> AtomLowerPrevision:
    """Recover the quotient model of a strongly invariant assessment.

    Every dominating prevision of a strongly invariant model is uniform on
    each invariant atom, so each assessed (f, b) says exactly (atom means
    of f, b) about the atom marginal.  Rows whose means are all equal hold
    on the whole quotient simplex and are dropped; the rest are made
    coherent, so every bound is attained.  The result reproduces the
    original model through :func:`atom_representation`.
    """
    _require_group(group)
    if not strongly_invariant(assessment, group):
        raise NotStronglyInvariantError(
            "quotient extraction needs a strongly invariant assessment"
        )
    atoms = invariant_atoms(group)
    orbits = core_orbits(group)  # the atoms, as indices: a group's core is the space
    qspace = quotient_space(atoms)
    items = []
    for f, b in assessment.items:
        means = _orbit_means(orbits, f)
        if len(set(means)) > 1:
            items.append((Gamble(qspace, means), b))
    return AtomLowerPrevision(atoms, coherent_version(Assessment(qspace, tuple(items))))
