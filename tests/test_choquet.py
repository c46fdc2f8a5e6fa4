import itertools
from fractions import Fraction

import pytest

from lowprev import (
    Assessment,
    CapExceededError,
    Event,
    Space,
    Transformation,
    assessment_from_set_function,
    choquet_integral,
    credal_vertices,
    event,
    gamble,
    inner_extension,
    inner_set_function,
    is_n_monotone,
    lift,
    natural_extension,
    possibility_upper,
    strongly_invariant,
    invariant_atoms,
    monoid,
    SetFunction,
)
from lowprev.choquet import on_all_events

from conftest import (
    rnd_asl_assessment,
    rnd_belief_function,
    rnd_gamble,
    rnd_map,
    rnd_two_monotone,
    transposition,
)

F = Fraction


class TestNMonotone:
    def test_probability_measures_are_n_monotone(self, rng):
        space = Space(("1", "2", "3"))
        masses = {x: w for x, w in zip(space.outcomes, (F(1, 2), F(1, 3), F(1, 6)))}
        measure = on_all_events(space, lambda key: sum(masses[x] for x in key))
        assert is_n_monotone(measure, 2)
        assert is_n_monotone(measure, 3)

    def test_two_point_coherent_is_two_monotone(self, rng):
        # coherence (a + b <= 1) is needed: a = b = 3/4 is monotone and
        # normalised yet fails the alternating sum at A = {1, 2}
        space = Space(("1", "2"))
        bad = SetFunction.from_dict(
            space,
            {
                frozenset(): F(0),
                frozenset(["1"]): F(3, 4),
                frozenset(["2"]): F(3, 4),
                frozenset(["1", "2"]): F(1),
            },
        )
        assert not is_n_monotone(bad, 2)
        for _ in range(10):
            a = F(rng.randint(0, 4), 4)
            b = F(rng.randint(0, 4 - int(a * 4)), 4)
            table = {
                frozenset(): F(0),
                frozenset(["1"]): a,
                frozenset(["2"]): b,
                frozenset(["1", "2"]): F(1),
            }
            assert is_n_monotone(SetFunction.from_dict(space, table), 2)

    def test_n_monotone_implies_lower_orders(self, rng):
        space = Space(("1", "2", "3"))
        for _ in range(5):
            s = rnd_belief_function(rng, space)
            assert is_n_monotone(s, 3)
            assert is_n_monotone(s, 2)
            assert is_n_monotone(s, 1)

    def test_gamble_level_witness_breaks_two_monotonicity(self):
        # the smallest strongly invariant extension of the pair-swapping
        # group is not 2-monotone as a functional on gambles
        space = Space(("1", "2", "3", "4"))

        def ext(f):
            return min((f(x) + f(y)) / 2 for x, y in (("1", "2"), ("3", "4")))

        f1 = gamble(space, [0, -1, 1, -1])
        f2 = gamble(space, [F(-1), F(-1, 4), F(-3, 2), F(0)])
        assert ext(f1.meet(f2)) + ext(f1.join(f2)) < ext(f1) + ext(f2)

    def test_lattice_closure_validated(self):
        space = Space(("1", "2", "3"))
        with pytest.raises(ValueError):
            SetFunction.from_dict(
                space,
                {
                    frozenset(): F(0),
                    frozenset(["1"]): F(1, 4),
                    frozenset(["2"]): F(1, 4),
                    frozenset(space.outcomes): F(1),
                },
            )


class TestInnerSetFunction:
    def test_domain_events_unchanged(self, rng):
        space = Space(("1", "2", "3", "4"))
        s = rnd_belief_function(rng, space)
        for key in s.domain():
            assert inner_set_function(s, Event(space, key)) == s(key)

    def test_trivial_domain(self):
        space = Space(("1", "2", "3"))
        s = SetFunction.from_dict(
            space, {frozenset(): F(0), frozenset(space.outcomes): F(1)}
        )
        assert inner_set_function(s, event(space, ["1", "2"])) == 0

    def test_sublattice_sup(self):
        space = Space(("1", "2", "3", "4"))
        s = SetFunction.from_dict(
            space,
            {
                frozenset(): F(0),
                frozenset(["1"]): F(1, 8),
                frozenset(["1", "2"]): F(1, 3),
                frozenset(["1", "2", "3"]): F(1, 2),
                frozenset(space.outcomes): F(1),
            },
        )
        assert inner_set_function(s, event(space, ["1", "2", "4"])) == F(1, 3)
        assert inner_set_function(s, event(space, ["3", "4"])) == F(0)


class TestChoquetIntegral:
    def test_probability_measure_gives_expectation(self, rng):
        space = Space(("1", "2", "3", "4"))
        masses = dict(zip(space.outcomes, (F(1, 2), F(1, 4), F(1, 8), F(1, 8))))
        measure = on_all_events(space, lambda key: sum(masses[x] for x in key))
        for _ in range(10):
            f = rnd_gamble(rng, space)
            assert choquet_integral(measure, f) == sum(
                masses[x] * f(x) for x in space
            )

    def test_vacuous_gives_infimum(self, rng):
        space = Space(("1", "2", "3"))
        universe = frozenset(space.outcomes)
        vac = on_all_events(space, lambda key: F(1) if key == universe else F(0))
        for _ in range(5):
            f = rnd_gamble(rng, space)
            assert choquet_integral(vac, f) == f.inf()

    def test_matches_natural_extension_for_two_monotone(self, rng):
        space = Space(("1", "2", "3", "4"))
        for _ in range(10):
            s = rnd_two_monotone(rng, space)
            model = assessment_from_set_function(s)
            for _ in range(3):
                f = rnd_gamble(rng, space)
                assert choquet_integral(s, f) == natural_extension(model, f)

    def test_comonotone_additive_for_belief_functions(self, rng):
        space = Space(("1", "2", "3", "4"))
        for _ in range(10):
            s = rnd_belief_function(rng, space)
            h = rnd_gamble(rng, space)
            order = sorted(range(4), key=lambda i: h.values[i])
            steps_f = sorted(F(rng.randint(-4, 4)) for _ in range(4))
            steps_g = sorted(F(rng.randint(-4, 4)) for _ in range(4))
            fv, gv = [F(0)] * 4, [F(0)] * 4
            for rank, i in enumerate(order):
                fv[i], gv[i] = steps_f[rank], steps_g[rank]
            f, g = gamble(space, fv), gamble(space, gv)
            assert choquet_integral(s, f + g) == choquet_integral(s, f) + choquet_integral(s, g)


class TestPossibility:
    def test_vacuous_distribution(self, rng):
        space = Space(("1", "2", "3"))
        lam = gamble(space, [1, 1, 1])
        for _ in range(5):
            members = [x for x in space if rng.random() < 0.5]
            ev = event(space, members)
            assert possibility_upper(lam, ev) == (1 if members else 0)

    def test_singleton(self):
        space = Space(("1", "2"))
        lam = gamble(space, [F(1), F(1, 3)])
        assert possibility_upper(lam, event(space, ["2"])) == F(1, 3)

    def test_weak_invariance_iff_constant_on_atoms(self, rng):
        space = Space(("1", "2", "3", "4"))
        group = monoid(space, [transposition(space, "1", "2"), transposition(space, "3", "4")])
        atoms = invariant_atoms(group)
        events = [
            frozenset(c)
            for r in range(space.size + 1)
            for c in itertools.combinations(space.outcomes, r)
        ]
        for _ in range(15):
            lam_values = [F(rng.randint(0, 4), 4) for _ in range(4)]
            lam_values[rng.randrange(4)] = F(1)
            lam = gamble(space, lam_values)
            invariant = all(
                possibility_upper(lam, Event(space, ev))
                == possibility_upper(lam, t.preimage(Event(space, ev)))
                for ev in events
                for t in group.closure
            )
            constant = all(
                len({lam(x) for x in block}) == 1 for block in atoms.partition
            )
            assert invariant == constant


def strong_invariance_on_events(assessment, m):
    """Event-level strong invariance: p(A) == p(T^{-1} A) on every vertex.

    The oracle for :func:`strongly_invariant`: it quantifies over all events
    of the space and every credal vertex, which is equivalent to pushforward
    fixedness on a finite space.
    """
    space = assessment.space
    if space.size > 16:
        raise CapExceededError("event-level check enumerates all events; space too large")
    vertices = credal_vertices(assessment)
    outcomes = space.outcomes
    for t in m.generators:
        for r in range(space.size + 1):
            for combo in itertools.combinations(range(space.size), r):
                members = frozenset(outcomes[i] for i in combo)
                pre = t.preimage(Event(space, members))
                pre_idx = {space.index(x) for x in pre.members}
                for p in vertices:
                    if sum(p[i] for i in combo) != sum(p[i] for i in pre_idx):
                        return False
    return True


class TestStrongInvarianceOnEvents:
    def test_uniform_under_permutations(self, rng):
        space = Space(tuple(str(i) for i in range(1, 7)))
        uniform = Assessment.from_prevision(space, [F(1, 6)] * 6)
        gens = [transposition(space, "1", "2"), Transformation(space, (1, 2, 3, 4, 5, 0))]
        assert strong_invariance_on_events(uniform, monoid(space, gens))

    def test_vacuous_fails(self, rng):
        space = Space(("1", "2", "3"))
        mon = monoid(space, [transposition(space, "1", "2")])
        assert not strong_invariance_on_events(Assessment.vacuous(space), mon)

    def test_agrees_with_gamble_level_check(self, rng):
        matches = 0
        for _ in range(200):
            size = rng.randint(2, 4)
            space = Space(tuple(str(i) for i in range(size)))
            a = rnd_asl_assessment(rng, space, max_items=3)
            mon = monoid(space, [rnd_map(rng, space)], cap=200)
            lhs = strong_invariance_on_events(a, mon)
            rhs = strongly_invariant(a, mon)
            assert lhs == rhs
            matches += lhs
        # make sure the agreement is not only on negatives
        space = Space(("1", "2"))
        uniform = Assessment.from_prevision(space, [F(1, 2), F(1, 2)])
        swap = monoid(space, [transposition(space, "1", "2")])
        assert strong_invariance_on_events(uniform, swap) and strongly_invariant(uniform, swap)


class TestChoquetWeakInvariance:
    def test_inner_and_integral_preserve_weak_invariance(self, rng):
        # symmetrised monotone set functions are weakly invariant; their
        # Choquet functionals must then never drop under lifting
        space = Space(("1", "2", "3", "4"))
        group = monoid(space, [transposition(space, "1", "2"), transposition(space, "3", "4")])
        elems = sorted(group.closure, key=lambda t: t.image)
        for _ in range(5):
            raw = rnd_belief_function(rng, space)

            def symmetrised(key, raw=raw):
                return min(raw(frozenset(t(x) for x in key)) for t in elems)

            s = on_all_events(space, symmetrised)
            assert s.is_monotone()
            for t in elems:
                for key in s.domain():
                    assert s(key) <= s(frozenset(t.preimage(Event(space, key)).members))
            inner = inner_extension(s)
            for _ in range(4):
                f = rnd_gamble(rng, space)
                for t in group.generators:
                    assert choquet_integral(inner, lift(t, f)) >= choquet_integral(inner, f)


class TestDifferenceEventEqualities:
    def test_strong_invariance_balances_difference_events(self, rng):
        # for every dominating prevision of a strongly invariant model,
        # the mass moved out of an event equals the mass moved in:
        # p(A minus T^-1 A) == p(T^-1 A minus A) for every event and map
        from lowprev import credal_vertices

        space = Space(("1", "2", "3", "4"))
        group = monoid(
            space, [transposition(space, "1", "2"), transposition(space, "3", "4")]
        )
        from test_invariance import strongly_invariant_sample

        for _ in range(5):
            model = strongly_invariant_sample(rng, space, group)
            assert strongly_invariant(model, group)
            vertices = credal_vertices(model)
            for r in range(space.size + 1):
                for combo in itertools.combinations(range(space.size), r):
                    members = frozenset(space.outcomes[i] for i in combo)
                    for t in group.closure:
                        pre = {
                            space.index(x)
                            for x in t.preimage(Event(space, members)).members
                        }
                        out_idx = set(combo) - pre
                        in_idx = pre - set(combo)
                        for p in vertices:
                            assert sum(p[i] for i in out_idx) == sum(
                                p[i] for i in in_idx
                            )


class TestNMonotoneFamilies:
    """Families of events strictly below A give the whole-domain verdicts."""

    @staticmethod
    def whole_domain(s, n):
        domain = s.domain()
        for a in domain:
            for p in range(1, n + 1):
                for family in itertools.combinations(domain, p):
                    total = F(0)
                    for r in range(p + 1):
                        for sub in itertools.combinations(family, r):
                            meet = a
                            for b in sub:
                                meet = meet & b
                            total += (-1) ** r * s(meet)
                    if total < 0:
                        return False
        return True

    def test_verdicts_match_the_whole_domain_loop(self, rng):
        verdicts = []
        for size, orders in ((3, (1, 2, 3)), (4, (1, 2))):
            space = Space(tuple(str(i) for i in range(size)))
            for _ in range(12):
                base = rnd_belief_function(rng, space)
                noisy = {
                    key: base(key) + (F(rng.randint(-2, 2), 8) if rng.random() < 0.3 else 0)
                    for key in base.domain()
                }
                s = on_all_events(space, noisy.__getitem__)
                for n in orders:
                    verdict = is_n_monotone(s, n)
                    assert verdict == self.whole_domain(s, n)
                    verdicts.append(verdict)
                assert s.is_monotone() == self.whole_domain(s, 1)
        assert True in verdicts and False in verdicts
