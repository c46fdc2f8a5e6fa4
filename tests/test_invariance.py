import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lowprev import (
    Assessment,
    CapExceededError,
    NoInvariantDominatorError,
    NotAGroupError,
    Space,
    SpaceMismatchError,
    SureLossError,
    Transformation,
    TruncatedClosureError,
    assessment_weakly_invariant,
    atom_representation,
    constant_map,
    credal_vertices,
    credal_weakly_invariant,
    event,
    extract_atom_lowprev,
    gamble,
    identity,
    indicator,
    invariance_report,
    invariant_atoms,
    invariant_polytope_vertices,
    invariant_previsions_exist,
    is_coherent,
    is_invariant_gamble,
    lift,
    mixture_lower_prevision,
    monoid,
    natural_extension,
    pushforward,
    strongly_invariant,
    strongly_invariant_natex,
    symmetrize,
    weakly_invariant_closure,
)
from lowprev import invariance
from lowprev.invariance import AtomLowerPrevision, quotient_space
from lowprev.previsions import CredalSet
from lowprev.solver import solve_minmax
from lowprev.transforms import lifted_gambles

from conftest import (
    rnd_asl_assessment,
    rnd_gamble,
    rnd_map,
    rnd_permutation,
    rnd_weakly_invariant_assessment,
    transposition,
)

F = Fraction
ABC, XYZ = Space(("a", "b", "c")), Space(("x", "y", "z"))


def words_up_to(generators, depth):
    """Distinct compositions of at most ``depth`` generators, identity first.

    The word list that mixture_lower_prevision passed to solve_minmax, one
    objective per word, before it took the distinct lifts of the gamble.
    """
    ident = identity(generators[0].space)
    seen, frontier = {ident}, [ident]
    out = [ident]
    for _ in range(depth):
        nxt = []
        for t in frontier:
            for g in generators:
                w = g.compose(t)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        out += nxt
        frontier = nxt
    return out


def depth_first_closure(assessment, m, cap):
    """weakly_invariant_closure as the depth-first loop that preceded
    lifted_gambles: the (gamble, bound) map, or CapExceededError."""
    bounds = {}
    for f, b in assessment.items:
        if f not in bounds or bounds[f] < b:
            bounds[f] = b
    queue = list(bounds)
    while queue:
        f = queue.pop()
        b = bounds[f]
        for t in m.generators:
            lifted = lift(t, f)
            if lifted not in bounds or bounds[lifted] < b:
                bounds[lifted] = b
                queue.append(lifted)
                if len(bounds) > cap:
                    raise CapExceededError("lifting closure exceeded the cap")
    return bounds


def generator_loop_weakly_invariant(assessment, m):
    """assessment_weakly_invariant as the loop over the domain and the
    generators that preceded lifted_gambles."""
    for f in assessment.domain():
        b = assessment.bound(f)
        for t in m.generators:
            lifted_bound = assessment.bound(lift(t, f))
            if lifted_bound is None or lifted_bound < b:
                return False
    return True


def random_lifting_case(rng, trial):
    """A monoid on at most 4 points, of permutations or, on odd trials,
    of arbitrary maps, and up to 3 items with values in {0, 1, 2}."""
    n = rng.randint(1, 4)
    space = Space(tuple(str(i) for i in range(n)))
    pick = rnd_map if trial % 2 else rnd_permutation
    m = monoid(space, [pick(rng, space) for _ in range(rng.randint(1, 3))])
    items = tuple(
        (gamble(space, [rng.randint(0, 2) for _ in range(n)]), F(rng.randint(-4, 4), 2))
        for _ in range(rng.randint(1, 3))
    )
    return Assessment(space, items), m


def dice_assessment(space, p):
    return Assessment(space, tuple((indicator(event(space, [x])), F(p)) for x in space))


def full_symmetric_monoid(space):
    gens = [transposition(space, space.outcomes[i], space.outcomes[i + 1]) for i in range(space.size - 1)]
    gens.append(Transformation(space, tuple(list(range(1, space.size)) + [0])))
    return monoid(space, gens)


def even_odd_monoid(space6):
    return monoid(
        space6,
        [
            transposition(space6, "1", "3"),
            transposition(space6, "3", "5"),
            transposition(space6, "2", "4"),
            transposition(space6, "4", "6"),
        ],
    )


def strongly_invariant_sample(rng, space, group):
    """Random assessment whose credal set contains only invariant points.

    Within-atom equality pairs force uniformity on each orbit; extra
    bounds on atom-constant gambles stay anchored below the uniform(ish)
    invariant point so the credal set is nonempty.
    """
    atoms = invariant_atoms(group)
    items = []
    for block in atoms.partition:
        idxs = [space.index(x) for x in block]
        for a, b in zip(idxs, idxs[1:]):
            row = [F(0)] * space.size
            row[a], row[b] = F(1), F(-1)
            g = gamble(space, row)
            items.append((g, F(0)))
            items.append((-g, F(0)))
    weights = [rng.randint(1, 5) for _ in atoms.partition]
    total = sum(w * len(b) for w, b in zip(weights, atoms.partition))
    anchor = []
    for w, block in zip(weights, atoms.partition):
        anchor.extend([F(w, total)] * len(block))
    for _ in range(rng.randint(0, 2)):
        level = {block: F(rng.randint(-4, 4)) for block in atoms.partition}
        g = gamble(space, [level[atoms.atom_of(x)] for x in space])
        value = sum(a * v for a, v in zip(anchor, g.values))
        items.append((g, value - F(rng.randint(0, 4), 2)))
    return Assessment(space, tuple(items))


class TestAssessmentLevelWeakInvariance:
    def test_empty_assessment(self, space3):
        m = monoid(space3, [rnd_map(random.Random(0), space3)])
        assert assessment_weakly_invariant(Assessment.vacuous(space3), m)

    def test_symmetric_dice_bounds(self, space6):
        assert assessment_weakly_invariant(
            dice_assessment(space6, F(1, 12)), full_symmetric_monoid(space6)
        )

    def test_open_domain_fails(self):
        s = Space(("1", "2"))
        a = Assessment(s, ((indicator(event(s, ["1"])), F(1, 2)),))
        assert not assessment_weakly_invariant(a, monoid(s, [transposition(s, "1", "2")]))


class TestCredalWeakInvariance:
    def test_vacuous_under_any_monoid(self, space3, rng):
        for _ in range(10):
            m = monoid(space3, [rnd_map(rng, space3) for _ in range(2)], cap=200)
            assert credal_weakly_invariant(Assessment.vacuous(space3), m)

    def test_uniform_fails_under_constant_map(self, space3):
        uniform = Assessment.from_prevision(space3, [F(1, 3)] * 3)
        m = monoid(space3, [constant_map(space3, "1")])
        assert not credal_weakly_invariant(uniform, m)

    def test_linear_vacuous_mixtures_under_swap(self):
        s = Space(("1", "2"))
        swap = monoid(s, [transposition(s, "1", "2")])
        i1, i2 = indicator(event(s, ["1"])), indicator(event(s, ["2"]))
        for eps in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
            a = Assessment(s, ((i1, eps / 2), (i2, eps / 2)))
            assert credal_weakly_invariant(a, swap)


class TestStrongInvariance:
    def test_uniform_under_full_permutations(self, space6):
        uniform = Assessment.from_prevision(space6, [F(1, 6)] * 6)
        assert strongly_invariant(uniform, full_symmetric_monoid(space6))

    def test_vacuous_fails_under_swap(self):
        s = Space(("1", "2"))
        assert not strongly_invariant(
            Assessment.vacuous(s), monoid(s, [transposition(s, "1", "2")])
        )

    def test_spaces_must_agree(self):
        m = monoid(XYZ, [Transformation(XYZ, (1, 2, 0))])
        with pytest.raises(SpaceMismatchError):
            strongly_invariant(Assessment.vacuous(ABC), m)

    def test_identity_monoid_trivial(self, space3, rng):
        a = rnd_asl_assessment(rng, space3)
        assert strongly_invariant(a, monoid(space3, [identity(space3)]))

    def test_strong_implies_weak(self, rng):
        hits = 0
        for trial in range(60):
            size = rng.randint(2, 4)
            space = Space(tuple(str(i) for i in range(size)))
            if trial % 2 == 0:
                group = monoid(space, [rnd_permutation(rng, space)])
                a = strongly_invariant_sample(rng, space, group)
                m = group
            else:
                a = rnd_asl_assessment(rng, space)
                m = monoid(space, [rnd_map(rng, space)], cap=200)
            if strongly_invariant(a, m):
                hits += 1
                assert credal_weakly_invariant(a, m)
        assert hits >= 20  # the implication must not hold vacuously

    def test_vertex_sufficiency_via_convex_combinations(self, rng):
        space = Space(("1", "2", "3", "4"))
        group = monoid(space, [transposition(space, "1", "2"), transposition(space, "3", "4")])
        a = strongly_invariant_sample(rng, space, group)
        vertices = sorted(credal_vertices(a))
        for _ in range(20):
            weights = [rng.randint(0, 4) for _ in vertices]
            total = sum(weights) or 1
            point = tuple(
                sum(F(w, total) * v[i] for w, v in zip(weights, vertices))
                for i in range(space.size)
            )
            for t in group.generators:
                assert pushforward(t, point) == point

    def test_report_consistency_and_sure_loss(self, space3, rng):
        a = rnd_asl_assessment(rng, space3)
        m = monoid(space3, [rnd_map(rng, space3)])
        report = invariance_report(a, m)
        if report.strong:
            assert report.weak_credal_level
        bad = Assessment(space3, ((indicator(event(space3, ["1"])), F(2)),))
        report = invariance_report(bad, m)
        assert report.weak_credal_level is None and report.strong is None


class TestInvarianceFromTheRows:
    """The predicates read the assessment's rows; the vertex report is the oracle."""

    @staticmethod
    def _random_model(rng, trial):
        n = rng.randint(2, 6)
        space = Space(tuple(str(i) for i in range(n)))
        kind = trial % 4
        if kind == 0:  # strongly invariant under a permutation group
            group = monoid(space, [rnd_permutation(rng, space) for _ in range(rng.randint(1, 2))])
            return strongly_invariant_sample(rng, space, group), group
        if kind == 1:  # weakly invariant, usually not strongly
            t = rnd_permutation(rng, space) if trial % 8 == 1 else rnd_map(rng, space)
            # one item: the lifting closure already multiplies the oracle's vertex count
            return rnd_weakly_invariant_assessment(rng, space, t, max_items=1), monoid(space, [t])
        gens = [rnd_map(rng, space) if rng.random() < 0.5 else rnd_permutation(rng, space)]
        m = monoid(space, gens, cap=1000)
        if kind == 2:
            return rnd_asl_assessment(rng, space, max_items=3), m
        # sure loss: the lower probabilities of two disjoint events sum past 1
        first = indicator(event(space, [space.outcomes[0]]))
        return Assessment(space, ((first, F(3, 5)), (1 - first, F(3, 5)))), m

    def test_verdicts_match_the_vertex_report(self):
        rng = random.Random(8080)
        seen = set()
        for trial in range(48):
            a, m = self._random_model(rng, trial)
            report = invariance_report(a, m)
            if report.strong is None:
                for check in (credal_weakly_invariant, strongly_invariant):
                    with pytest.raises(SureLossError):
                        check(a, m)
                seen.add("sure loss")
                continue
            verdicts = (credal_weakly_invariant(a, m), strongly_invariant(a, m))
            assert verdicts == (report.weak_credal_level, report.strong)
            seen.add(verdicts)
        # strong implies weak, so (False, True) cannot occur
        assert seen == {(True, True), (True, False), (False, False), "sure loss"}

    def test_no_vertex_routine_is_called(self, monkeypatch):
        import lowprev.invariance
        import lowprev.previsions
        import lowprev.solver

        def refuse(*args, **kwargs):
            raise AssertionError("vertex enumeration called")

        monkeypatch.setattr(lowprev.solver, "enumerate_vertices", refuse)
        monkeypatch.setattr(lowprev.previsions, "enumerate_vertices", refuse)
        monkeypatch.setattr(lowprev.invariance, "credal_vertices", refuse)
        for n in (4, 9):
            space = Space(tuple(str(i) for i in range(n)))
            cycle = monoid(space, [Transformation(space, tuple(list(range(1, n)) + [0]))])
            uniform = Assessment.from_prevision(space, [F(1, n)] * n)
            vacuous = Assessment.vacuous(space)
            assert credal_weakly_invariant(uniform, cycle) and strongly_invariant(uniform, cycle)
            assert credal_weakly_invariant(vacuous, cycle) and not strongly_invariant(vacuous, cycle)
            skewed = Assessment(space, ((indicator(event(space, ["0"])), F(1, 2)),))
            assert not credal_weakly_invariant(skewed, cycle)

    @settings(max_examples=40)
    @given(st.data())
    def test_invariant_natex_is_the_natex_of_the_group_average(self, data):
        n = data.draw(st.integers(2, 5), label="n")
        space = Space(tuple(str(i) for i in range(n)))
        images = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=2), label="gens")
        group = monoid(space, [Transformation(space, tuple(im)) for im in images])
        weights = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n), label="anchor")
        anchor = [F(w, sum(weights)) for w in weights]
        items = []
        for _ in range(data.draw(st.integers(0, 2), label="items")):
            # events: a 0/1 gamble has at most 10 lifts under S5, which keeps the LP small
            f = gamble(space, data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
            # at most the anchor's mean of every lift, so the anchor's group
            # average is an invariant dominator of the lifting closure
            low = min(sum(a * v for a, v in zip(anchor, lift(t, f).values)) for t in group.closure)
            items.append((f, low - data.draw(st.integers(0, 2))))
        a = weakly_invariant_closure(Assessment(space, tuple(items)), group, cap=1000)
        g = gamble(space, data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n), label="g"))
        lifts = [lift(t, g) for t in group.closure]
        g_bar = gamble(space, [sum(h.values[i] for h in lifts) / len(lifts) for i in range(n)])
        assert strongly_invariant_natex(a, group, g) == natural_extension(a, g_bar)


class TestInvariantPrevisionsExist:
    def test_permutation_groups_always_admit_uniform(self, space4, rng):
        for _ in range(10):
            m = monoid(space4, [rnd_permutation(rng, space4) for _ in range(2)])
            assert invariant_previsions_exist(m)

    def test_two_constant_maps_forbid_invariance(self, space3):
        m = monoid(space3, [constant_map(space3, "1"), constant_map(space3, "2")])
        assert not invariant_previsions_exist(m)

    def test_non_directed_example_unique_point(self, space3):
        m = monoid(space3, [Transformation(space3, (0, 1, 1)), Transformation(space3, (0, 2, 2))])
        assert invariant_previsions_exist(m)
        assert invariant_polytope_vertices(m) == frozenset({(F(1), F(0), F(0))})


class TestStronglyInvariantNatex:
    def test_even_odd_formula(self, space6, rng):
        m = even_odd_monoid(space6)
        vacuous = Assessment.vacuous(space6)
        for _ in range(20):
            g = rnd_gamble(rng, space6)
            expected = min(
                sum(g.values[i] for i in (0, 2, 4)) / 3,
                sum(g.values[i] for i in (1, 3, 5)) / 3,
            )
            assert strongly_invariant_natex(vacuous, m, g) == expected

    def test_double_transposition_formula(self, space4, rng):
        m = monoid(space4, [Transformation(space4, (1, 0, 3, 2))])
        vacuous = Assessment.vacuous(space4)
        for _ in range(20):
            g = rnd_gamble(rng, space4)
            expected = min(
                (g.values[0] + g.values[1]) / 2, (g.values[2] + g.values[3]) / 2
            )
            assert strongly_invariant_natex(vacuous, m, g) == expected

    def test_two_monotonicity_fails_for_the_witness_pair(self, space4):
        m = monoid(space4, [Transformation(space4, (1, 0, 3, 2))])
        vacuous = Assessment.vacuous(space4)
        f1 = gamble(space4, [0, -1, 1, -1])
        f2 = gamble(space4, [F(-1), F(-1, 4), F(-3, 2), F(0)])

        def ext(f):
            return strongly_invariant_natex(vacuous, m, f)

        assert ext(f1.meet(f2)) + ext(f1.join(f2)) == F(-11, 8)
        assert ext(f1) + ext(f2) == F(-5, 4)
        assert ext(f1.meet(f2)) + ext(f1.join(f2)) < ext(f1) + ext(f2)

    def test_spaces_must_agree(self):
        m = monoid(ABC, [Transformation(ABC, (1, 2, 0))])
        g = gamble(Space(("p", "q")), [1, 0])
        with pytest.raises(SpaceMismatchError):
            strongly_invariant_natex(Assessment.vacuous(ABC), m, g)
        with pytest.raises(SpaceMismatchError):
            strongly_invariant_natex(Assessment.vacuous(ABC), monoid(XYZ, [identity(XYZ)]), gamble(ABC, [1, 0, 0]))

    def test_no_invariant_dominator_raises(self, space3):
        m = monoid(space3, [constant_map(space3, "1"), constant_map(space3, "2")])
        with pytest.raises(NoInvariantDominatorError):
            strongly_invariant_natex(Assessment.vacuous(space3), m, gamble(space3, [1, 0, 0]))

    def test_dominates_natex_with_equality_on_invariant_gambles(self, space4, rng):
        t = Transformation(space4, (1, 0, 3, 2))
        m = monoid(space4, [t])
        for _ in range(8):
            a = rnd_weakly_invariant_assessment(rng, space4, t)
            for _ in range(4):
                g = rnd_gamble(rng, space4)
                assert strongly_invariant_natex(a, m, g) >= natural_extension(a, g)
                atoms = invariant_atoms(m)
                level = {block: rnd_gamble(rng, space4).values[0] for block in atoms.partition}
                inv = gamble(space4, [level[atoms.atom_of(x)] for x in space4])
                assert is_invariant_gamble(m, inv)
                assert strongly_invariant_natex(a, m, inv) == natural_extension(a, inv)

    def test_dominance_preserves_strong_invariance(self, rng):
        space = Space(("1", "2", "3", "4"))
        group = monoid(space, [transposition(space, "1", "2"), transposition(space, "3", "4")])
        for _ in range(10):
            a = strongly_invariant_sample(rng, space, group)
            assert strongly_invariant(a, group)
            anchor = sorted(credal_vertices(a))[0]
            extra = []
            for _ in range(2):
                f = rnd_gamble(rng, space)
                value = sum(p * v for p, v in zip(anchor, f.values))
                extra.append((f, value - F(rng.randint(0, 3), 2)))
            dominated = Assessment(space, a.items + tuple(extra))
            assert strongly_invariant(dominated, group)


class TestNaturalExtensionPreservesWeakInvariance:
    def test_on_lifting_closures(self, space4, rng):
        for _ in range(10):
            t = rnd_map(rng, space4)
            m = monoid(space4, [t], cap=200)
            a = rnd_weakly_invariant_assessment(rng, space4, t)
            assert assessment_weakly_invariant(a, m)
            for _ in range(5):
                g = rnd_gamble(rng, space4)
                assert natural_extension(a, lift(t, g)) >= natural_extension(a, g)


class TestWeaklyInvariantClosure:
    def test_matches_the_depth_first_loop(self):
        # same (gamble, bound) map, and CapExceededError at the same caps
        # from the number of distinct assessed gambles up; below it the
        # assessment alone is past the cap and is refused
        rng = random.Random(4242)
        for trial in range(300):
            a, m = random_lifting_case(rng, trial)
            full = depth_first_closure(a, m, 10**6)
            assert dict(weakly_invariant_closure(a, m, cap=10**6).items) == full
            distinct = len(a.domain())
            for cap in range(1, len(full) + 2):
                if cap < distinct:
                    with pytest.raises(CapExceededError):
                        weakly_invariant_closure(a, m, cap=cap)
                    continue
                try:
                    expected = depth_first_closure(a, m, cap)
                except CapExceededError:
                    with pytest.raises(CapExceededError):
                        weakly_invariant_closure(a, m, cap=cap)
                else:
                    assert dict(weakly_invariant_closure(a, m, cap=cap).items) == expected

    def test_assessment_level_check_matches_the_generator_loop(self):
        # each drawn assessment, its lifting closure, and the closure with
        # one bound lowered or one item dropped
        rng = random.Random(4343)
        verdicts = []
        for trial in range(300):
            a, m = random_lifting_case(rng, trial)
            closed = list(depth_first_closure(a, m, 10**6).items())
            (f, b), rest = closed[0], closed[1:]
            for items in (a.items, closed, [(f, b - 1)] + rest, rest):
                candidate = Assessment(a.space, tuple(items))
                verdict = assessment_weakly_invariant(candidate, m)
                assert verdict == generator_loop_weakly_invariant(candidate, m)
                verdicts.append(verdict)
        assert 0 < sum(verdicts) < len(verdicts)


class TestMixtureLowerPrevision:
    def test_identity_monoid_reduces_to_natex(self, space3, rng):
        m = monoid(space3, [identity(space3)])
        a = rnd_asl_assessment(rng, space3)
        for _ in range(5):
            g = rnd_gamble(rng, space3)
            assert mixture_lower_prevision(a, m, g, 3) == natural_extension(a, g)

    def test_non_directed_formula(self, space3, rng):
        m = monoid(space3, [Transformation(space3, (0, 1, 1)), Transformation(space3, (0, 2, 2))])
        vacuous = Assessment.vacuous(space3)
        for _ in range(20):
            g = rnd_gamble(rng, space3)
            expected = min(g.values[0], max(g.values[1], g.values[2]))
            assert mixture_lower_prevision(vacuous, m, g, 2) == expected

    def test_monotone_in_depth_and_below_invnatex(self, space4, rng):
        for _ in range(8):
            t = rnd_map(rng, space4)
            m = monoid(space4, [t], cap=200)
            a = rnd_asl_assessment(rng, space4, max_items=3)
            g = rnd_gamble(rng, space4)
            try:
                top = strongly_invariant_natex(a, m, g)
            except NoInvariantDominatorError:
                continue
            previous = None
            for depth in (0, 1, 2, 3):
                value = mixture_lower_prevision(a, m, g, depth)
                if previous is not None:
                    assert value >= previous
                assert value <= top
                previous = value

    def test_full_depth_single_map_reaches_invnatex(self, space4, rng):
        from lowprev.shift import power_orbit

        for _ in range(8):
            t = rnd_map(rng, space4)
            m = monoid(space4, [t], cap=200)
            a = rnd_weakly_invariant_assessment(rng, space4, t, max_items=2)
            powers, start, cyclen = power_orbit(t)
            depth = start + cyclen
            g = rnd_gamble(rng, space4)
            assert mixture_lower_prevision(a, m, g, depth) == strongly_invariant_natex(a, m, g)

    def test_cyclic_shift_past_the_vertex_cap(self, rng):
        space = Space(tuple(str(i) for i in range(10)))
        m = monoid(space, [Transformation(space, tuple((i + 1) % 10 for i in range(10)))])
        uniform = (F(1, 10),) * 10
        items = []
        for _ in range(4):
            f = rnd_gamble(rng, space)
            items.append((f, sum(u * v for u, v in zip(uniform, f.values)) - F(rng.randint(0, 4), 2)))
        a = Assessment(space, tuple(items))
        for _ in range(3):
            g = rnd_gamble(rng, space)
            value = mixture_lower_prevision(a, m, g, 9)
            assert value == strongly_invariant_natex(a, m, g) == sum(g.values) / 10

    def test_sure_loss_raises(self, space3):
        m = monoid(space3, [Transformation(space3, (1, 2, 0))])
        a = dice_assessment(space3, F(1, 2))
        with pytest.raises(SureLossError):
            mixture_lower_prevision(a, m, gamble(space3, [1, 0, 0]), 2)

    def test_spaces_must_agree(self):
        m = monoid(XYZ, [Transformation(XYZ, (1, 2, 0))])
        a = Assessment(ABC, ((gamble(ABC, [1, 0, 0]), F(1, 3)),))
        with pytest.raises(SpaceMismatchError):
            mixture_lower_prevision(a, m, gamble(XYZ, [1, 2, 3]), 2)
        with pytest.raises(SpaceMismatchError):
            mixture_lower_prevision(a, monoid(ABC, [identity(ABC)]), gamble(XYZ, [1, 2, 3]), 2)

    def test_distinct_lifts_match_one_objective_per_word(self):
        # the words-based LP on 300 seeded monoids, half of them of
        # arbitrary maps, with gambles that tie; permutations of six points
        # take at most two generators, since three give the oracle's LP
        # up to 364 objectives and several seconds each
        rng = random.Random(1919)
        for trial in range(300):
            n = rng.randint(1, 6)
            space = Space(tuple(str(i) for i in range(n)))
            pick = rnd_map if trial % 2 else rnd_permutation
            most = 2 if n == 6 and pick is rnd_permutation else 3
            m = monoid(space, [pick(rng, space) for _ in range(rng.randint(1, most))])
            a = rnd_asl_assessment(rng, space, max_items=3)
            g = gamble(space, [rng.randint(-2, 2) for _ in range(n)])
            depth = rng.randint(0, 5)
            lifted = [lift(w, g).values for w in words_up_to(m.generators, depth)]
            expected = solve_minmax(lifted, CredalSet(a).lp).value
            assert mixture_lower_prevision(a, m, g, depth) == expected

    def test_s6_passes_one_objective_per_distinct_lift(self, space6, monkeypatch):
        # 720 words of S6 lie within depth 20, and they lift g to its 20
        # placements of three ones
        counts = []

        def counting(objectives, lp):
            counts.append(len(objectives))
            return solve_minmax(objectives, lp)

        monkeypatch.setattr(invariance, "solve_minmax", counting)
        group = full_symmetric_monoid(space6)
        g = gamble(space6, [1, 1, 1, 0, 0, 0])
        assert mixture_lower_prevision(Assessment.vacuous(space6), group, g, 20) == F(1, 2)
        assert counts == [20]

    def test_words_collect_all_short_compositions(self, space3):
        t1 = Transformation(space3, (0, 1, 1))
        t2 = Transformation(space3, (0, 2, 2))
        g = gamble(space3, [1, 2, 3])
        assert set(lifted_gambles([t1, t2], [(g, F(0))], 10, 0)) == {g}
        assert set(lifted_gambles([t1, t2], [(g, F(0))], 10, 2)) == {g, lift(t1, g), lift(t2, g)}


class TestSymmetrize:
    def test_orbit_average_of_point_mass(self):
        s = Space(("1", "2"))
        group = monoid(s, [transposition(s, "1", "2")])
        unit = Assessment.from_prevision(s, [1, 0])
        assert symmetrize(unit, group, gamble(s, [5, 1])) == 3

    def test_vacuous_under_full_group_gives_infimum(self, space3, rng):
        group = full_symmetric_monoid(space3)
        vacuous = Assessment.vacuous(space3)
        for _ in range(5):
            g = rnd_gamble(rng, space3)
            assert symmetrize(vacuous, group, g) == g.inf()

    def test_weakly_invariant_model_is_fixed_point(self, space6, rng):
        group = full_symmetric_monoid(space6)
        a = dice_assessment(space6, F(1, 12))
        for _ in range(5):
            g = rnd_gamble(rng, space6)
            assert symmetrize(a, group, g) == natural_extension(a, g)

    def test_idempotent(self, space3, rng):
        group = full_symmetric_monoid(space3)
        a = rnd_asl_assessment(rng, space3)
        elems = sorted(group.closure, key=lambda t: t.image)
        for _ in range(3):
            g = rnd_gamble(rng, space3)
            once = symmetrize(a, group, g)
            twice = sum(symmetrize(a, group, lift(t, g)) for t in elems) / len(elems)
            assert twice == once

    def test_requires_group(self, space3):
        m = monoid(space3, [constant_map(space3, "1")])
        with pytest.raises(NotAGroupError):
            symmetrize(Assessment.vacuous(space3), m, gamble(space3, [1, 0, 0]))

    def test_truncated_closure_is_refused(self):
        # the average runs over the orbit of the gamble: under a capped
        # closure of S4 (24 elements, cap 5) distinct values have 24 lifts,
        # past the cap, while a point indicator has 4
        space = Space(("1", "2", "3", "4"))
        group = monoid(space, full_symmetric_monoid(space).generators, cap=5)
        assert group.truncated
        with pytest.raises(TruncatedClosureError):
            symmetrize(Assessment.vacuous(space), group, gamble(space, [1, 2, 3, 4]))
        assert symmetrize(Assessment.vacuous(space), group, gamble(space, [1, 0, 0, 0])) == 0


class TestSymmetrizeByDistinctLifts:
    def test_tied_values_match_the_average_over_every_element(self):
        rng = random.Random(5151)
        for size in (3, 4):
            space = Space(tuple(str(i) for i in range(size)))
            cyclic = monoid(space, [Transformation(space, tuple(list(range(1, size)) + [0]))])
            for group in (full_symmetric_monoid(space), cyclic):
                for _ in range(3):
                    a = rnd_asl_assessment(rng, space, max_items=3)
                    g = gamble(space, [rng.randint(0, 1) for _ in range(size)])
                    elems = group.closure
                    average = sum(natural_extension(a, lift(t, g)) for t in elems) / len(elems)
                    assert symmetrize(a, group, g) == average

    def test_random_permutation_groups_match_the_closure_average(self):
        rng = random.Random(8086)
        for size in (3, 4, 5):
            space = Space(tuple(str(i) for i in range(size)))
            cyclic = monoid(space, [Transformation(space, tuple(list(range(1, size)) + [0]))])
            drawn = [monoid(space, [rnd_permutation(rng, space) for _ in range(rng.randint(1, 2))]) for _ in range(2)]
            for group in (full_symmetric_monoid(space), cyclic, *drawn):
                elems = group.closure
                for _ in range(3):
                    a = rnd_asl_assessment(rng, space, max_items=3)
                    g = gamble(space, [rng.randint(0, 2) for _ in range(size)])
                    average = sum(natural_extension(a, lift(t, g)) for t in elems) / len(elems)
                    assert symmetrize(a, group, g) == average

    def test_orbit_past_the_closure_cap_of_s8(self):
        # a swap and an 8-cycle generate S8, 40320 maps past the closure
        # cap, while a gamble that is 1 on three points has 56 lifts
        space = Space(tuple(str(i) for i in range(8)))
        swap = Transformation(space, (1, 0, 2, 3, 4, 5, 6, 7))
        cycle = Transformation(space, tuple((i + 1) % 8 for i in range(8)))
        group = monoid(space, [swap, cycle])
        g = gamble(space, [1, 1, 1, 0, 0, 0, 0, 0])
        assert symmetrize(Assessment.vacuous(space), group, g) == 0
        assert symmetrize(Assessment.from_prevision(space, [F(1, 8)] * 8), group, g) == F(3, 8)

    def test_sure_loss_is_refused(self, space3):
        a = Assessment(space3, ((gamble(space3, [1, 1, 1]), F(2)),))
        with pytest.raises(SureLossError):
            symmetrize(a, full_symmetric_monoid(space3), gamble(space3, [1, 0, 0]))


class TestAtomRepresentation:
    def test_vacuous_quotient_reproduces_even_odd_formula(self, space6, rng):
        group = even_odd_monoid(space6)
        atoms = invariant_atoms(group)
        quotient = AtomLowerPrevision(atoms, Assessment.vacuous(quotient_space(atoms)))
        vacuous = Assessment.vacuous(space6)
        for _ in range(10):
            g = rnd_gamble(rng, space6)
            assert atom_representation(quotient, g) == strongly_invariant_natex(vacuous, group, g)

    def test_precise_quotient_weights_atom_means(self, space6, rng):
        group = even_odd_monoid(space6)
        atoms = invariant_atoms(group)
        alpha = F(2, 7)
        quotient = AtomLowerPrevision(
            atoms, Assessment.from_prevision(quotient_space(atoms), [alpha, 1 - alpha])
        )
        for _ in range(5):
            g = rnd_gamble(rng, space6)
            expected = alpha / 3 * sum(g.values[i] for i in (0, 2, 4)) + (
                1 - alpha
            ) / 3 * sum(g.values[i] for i in (1, 3, 5))
            assert atom_representation(quotient, g) == expected

    def test_single_atom_gives_uniform_prevision(self, space4, rng):
        group = full_symmetric_monoid(space4)
        atoms = invariant_atoms(group)
        assert atoms.partition == (tuple(space4.outcomes),)
        quotient = AtomLowerPrevision(atoms, Assessment.vacuous(quotient_space(atoms)))
        for _ in range(5):
            g = rnd_gamble(rng, space4)
            assert atom_representation(quotient, g) == sum(g.values) / 4

    def test_extraction_round_trip(self, rng):
        space = Space(("1", "2", "3", "4"))
        group = monoid(space, [transposition(space, "1", "2"), transposition(space, "3", "4")])
        for _ in range(6):
            a = strongly_invariant_sample(rng, space, group)
            quotient = extract_atom_lowprev(a, group)
            for _ in range(4):
                g = rnd_gamble(rng, space)
                assert atom_representation(quotient, g) == natural_extension(a, g)


class TestQuotientExtraction:
    def test_symmetric_group_past_the_closure_cap(self, rng):
        # S8 has 40320 elements, more than the closure cap; the group check
        # and the quotient read only the generators, so no closure is built
        space = Space(tuple(str(i) for i in range(8)))
        group = monoid(space, [transposition(space, "0", "1"), Transformation(space, (1, 2, 3, 4, 5, 6, 7, 0))])
        uniform = Assessment.from_prevision(space, [F(1, 8)] * 8)
        quotient = extract_atom_lowprev(uniform, group)
        assert quotient.atoms.partition == (space.outcomes,)
        assert quotient.assessment.items == ()
        for _ in range(3):
            g = rnd_gamble(rng, space)
            assert atom_representation(quotient, g) == sum(g.values) / 8 == natural_extension(uniform, g)
        assert "_enumerated" not in vars(group)

    def test_quotient_is_the_atom_marginal_of_the_credal_set(self):
        rng = random.Random(2024)
        for n in (4, 5, 6):
            space = Space(tuple(str(i) for i in range(n)))
            for _ in range(12):
                group = monoid(space, [rnd_permutation(rng, space) for _ in range(rng.randint(1, 2))])
                base = strongly_invariant_sample(rng, space, group)
                # bounds on gambles that are not atom constant, anchored
                # below an (invariant) credal vertex
                anchor = sorted(credal_vertices(base))[0]
                extra = []
                for _ in range(rng.randint(1, 3)):
                    f = rnd_gamble(rng, space)
                    value = sum(p * v for p, v in zip(anchor, f.values))
                    extra.append((f, value - F(rng.randint(0, 3), 2)))
                a = Assessment(space, base.items + tuple(extra))
                quotient = extract_atom_lowprev(a, group)
                blocks = [[space.index(x) for x in block] for block in quotient.atoms.partition]
                marginals = {
                    tuple(sum(v[i] for i in idxs) for idxs in blocks)
                    for v in credal_vertices(a)
                }
                assert credal_vertices(quotient.assessment) == marginals
                assert is_coherent(quotient.assessment)


class TestThreeElementFamily:
    """The symmetric two-monotone family on a three-outcome space.

    Mixtures of the uniform prevision, the averaged pairwise minima, the
    minimum of pairwise means, and the vacuous model: all are 2-monotone,
    weakly invariant under the full permutation group, and recovered
    exactly from their event restrictions by the natural extension.
    """

    @staticmethod
    def _formula(ms, f):
        m1, m2, m3, m4 = ms
        v = f.values
        pairs = ((0, 1), (1, 2), (2, 0))
        return (
            m1 * (v[0] + v[1] + v[2]) / 3
            + m2 * sum(min(v[a], v[b]) for a, b in pairs) / 3
            + m3 * min((v[a] + v[b]) / 2 for a, b in pairs)
            + m4 * min(v)
        )

    @staticmethod
    def _event_assessment(space, ms):
        import itertools

        items = []
        for r in (1, 2):
            for combo in itertools.combinations(space.outcomes, r):
                ind = indicator(event(space, combo))
                items.append((ind, TestThreeElementFamily._formula(ms, ind)))
        return Assessment(space, tuple(items))

    def test_symmetric_mixtures_are_weakly_invariant_and_choquet(self, space3, rng):
        from lowprev import is_n_monotone
        from lowprev.choquet import on_all_events

        full_group = full_symmetric_monoid(space3)
        for _ in range(6):
            weights = [rng.randint(0, 5) for _ in range(4)]
            total = sum(weights) or 1
            ms = [F(w, total) for w in weights]
            model = self._event_assessment(space3, ms)
            assert credal_weakly_invariant(model, full_group)
            levels = on_all_events(
                space3, lambda key: self._formula(ms, indicator(event(space3, key)))
            )
            assert is_n_monotone(levels, 2)
            for _ in range(4):
                g = rnd_gamble(rng, space3)
                assert natural_extension(model, g) == self._formula(ms, g)

    def test_pairwise_mean_component_is_not_completely_monotone(self, space3):
        from lowprev import is_n_monotone
        from lowprev.choquet import on_all_events

        pure = (F(0), F(0), F(1), F(0))
        levels = on_all_events(
            space3, lambda key: self._formula(pure, indicator(event(space3, key)))
        )
        assert is_n_monotone(levels, 2)
        assert not is_n_monotone(levels, 3)

    def test_without_that_component_three_monotonicity_holds(self, space3, rng):
        from lowprev import is_n_monotone
        from lowprev.choquet import on_all_events

        for _ in range(4):
            weights = [rng.randint(0, 5) for _ in range(3)]
            total = sum(weights) or 1
            ms = (F(weights[0], total), F(weights[1], total), F(0), F(weights[2], total))
            levels = on_all_events(
                space3, lambda key: self._formula(ms, indicator(event(space3, key)))
            )
            assert is_n_monotone(levels, 3)

    def test_asymmetric_weights_break_weak_invariance(self, space3):
        precise = Assessment.from_prevision(space3, [F(1, 2), F(1, 4), F(1, 4)])
        assert not credal_weakly_invariant(precise, full_symmetric_monoid(space3))


class TestCoreOrbits:
    """Invariant previsions read from the orbits of the recurrent core."""

    @staticmethod
    def fixed_point_lp(m, objective=None, rows=()):
        """{p : pushforward(T, p) = p for every generator}, as explicit LP rows."""
        from lowprev import Constraint, SimplexLP

        n = m.space.size
        fixed = []
        for t in m.generators:
            for y in range(n):
                coeffs = [F(0)] * n
                for x, image in enumerate(t.image):
                    if image == y:
                        coeffs[x] += 1
                coeffs[y] -= 1
                fixed.append(Constraint(tuple(coeffs), "==", F(0)))
        return SimplexLP(n, objective, tuple(rows) + tuple(fixed))

    def test_weak_components_are_not_orbits(self, space3):
        from lowprev.transforms import core_orbits

        m = monoid(space3, [Transformation(space3, (0, 1, 0)), Transformation(space3, (0, 1, 1))])
        assert invariant_atoms(m).partition == (("1", "2", "3"),)
        assert core_orbits(m) == ((0,), (1,))
        assert invariant_polytope_vertices(m) == frozenset(
            {(F(1), F(0), F(0)), (F(0), F(1), F(0))}
        )

    def test_ten_cycle_has_one_uniform_law(self):
        space = Space(tuple(str(i) for i in range(10)))
        m = monoid(space, [Transformation(space, tuple((i + 1) % 10 for i in range(10)))])
        assert invariant_polytope_vertices(m) == frozenset({(F(1, 10),) * 10})

    def test_position_permutations_give_count_class_uniforms(self):
        from lowprev.exchange import CategorySpace, position_permutation_generators

        cs = CategorySpace(2, 5)
        counts = cs.sequence_counts()
        expected = set()
        for c in cs.counts:
            size = counts.count(c)
            expected.add(tuple(F(1, size) if d == c else F(0) for d in counts))
        m = monoid(cs.space, position_permutation_generators(cs))
        assert invariant_polytope_vertices(m) == frozenset(expected)
        assert len(expected) == 6

    def test_random_monoids_against_the_fixed_point_polytope(self):
        from lowprev import CredalSet, enumerate_vertices, solve_min

        rng = random.Random(11)
        seen = set()
        for _ in range(200):
            n = rng.randint(1, 6)
            space = Space(tuple(str(i) for i in range(n)))
            gens = [
                rnd_permutation(rng, space) if rng.random() < 0.4 else rnd_map(rng, space)
                for _ in range(rng.randint(1, 3))
            ]
            m = monoid(space, gens)
            vertices = invariant_polytope_vertices(m)
            assert vertices == enumerate_vertices(self.fixed_point_lp(m))
            assert invariant_previsions_exist(m) == bool(vertices)

            if rng.random() < 0.1:
                f = rnd_gamble(rng, space)
                a = Assessment(space, ((f, f.sup() + 1),))
            else:
                a = rnd_asl_assessment(rng, space, max_items=3)
            g = rnd_gamble(rng, space)
            credal = CredalSet(a)
            if credal.is_empty():
                expected = SureLossError
            else:
                result = solve_min(self.fixed_point_lp(m, g.values, credal.lp.constraints))
                expected = NoInvariantDominatorError if result.status == "infeasible" else result.value
            try:
                answer = strongly_invariant_natex(a, m, g)
            except (SureLossError, NoInvariantDominatorError) as exc:
                answer = type(exc)
            assert answer == expected
            seen.add(expected if isinstance(expected, type) else "value")
        assert seen == {SureLossError, NoInvariantDominatorError, "value"}
