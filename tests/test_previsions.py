import random
from fractions import Fraction

import pytest

from lowprev import (
    Assessment,
    DesirableSet,
    SureLossError,
    almost_prefers,
    avoids_partial_loss,
    avoids_sure_loss,
    coherent_version,
    credal_vertices,
    desirable_cone_contains,
    event,
    gamble,
    incomparable,
    indicator,
    indifferent,
    is_coherent,
    natural_extension,
    upper_extension,
    Space,
)
from lowprev.core import Gamble
from lowprev.previsions import CredalSet
from lowprev.solver import Constraint

from conftest import rnd_asl_assessment, rnd_frac, rnd_gamble

F = Fraction


def dice_assessment(space, p):
    items = tuple((indicator(event(space, [x])), F(p)) for x in space)
    return Assessment(space, items)


class TestAvoidsSureLoss:
    def test_empty_assessment(self, space3):
        assert avoids_sure_loss(Assessment.vacuous(space3))

    def test_overcommitted_pair(self):
        s = Space(("1", "2"))
        a = Assessment(
            s,
            (
                (indicator(event(s, ["1"])), F(2, 3)),
                (indicator(event(s, ["2"])), F(2, 3)),
            ),
        )
        assert not avoids_sure_loss(a)

    def test_dice_singletons(self, space6):
        assert avoids_sure_loss(dice_assessment(space6, F(1, 6)))


class TestNaturalExtension:
    def test_vacuous_is_infimum(self, space3, rng):
        vacuous = Assessment.vacuous(space3)
        for _ in range(10):
            f = rnd_gamble(rng, space3)
            assert natural_extension(vacuous, f) == f.inf()
            assert upper_extension(vacuous, f) == f.sup()

    def test_dice_singleton_value(self, space6):
        a = dice_assessment(space6, F(1, 6))
        assert natural_extension(a, indicator(event(space6, ["1"]))) == F(1, 6)

    def test_assessed_bound_is_fixed_point_when_coherent(self, space3, rng):
        for _ in range(10):
            a = coherent_version(rnd_asl_assessment(rng, space3))
            for f, b in a.items:
                assert natural_extension(a, f) == b

    def test_sure_loss_raises(self):
        s = Space(("1", "2"))
        a = Assessment(s, ((indicator(event(s, ["1"])), F(2)),))
        with pytest.raises(SureLossError):
            natural_extension(a, gamble(s, [1, 0]))

    def test_coherence_axioms_on_random_gambles(self, space4, rng):
        a = coherent_version(rnd_asl_assessment(rng, space4))

        def ext(f):
            return natural_extension(a, f)

        for _ in range(12):
            f, g = rnd_gamble(rng, space4), rnd_gamble(rng, space4)
            lam = F(rng.randint(0, 8), rng.randint(1, 4))
            assert ext(f) >= f.inf()
            assert ext(f + g) >= ext(f) + ext(g)
            assert ext(lam * f) == lam * ext(f)


class TestCoherence:
    def test_dice_band(self, space6):
        for p in (F(0), F(1, 12), F(1, 6), F(1, 5)):
            assert is_coherent(dice_assessment(space6, p)) == (p <= F(1, 6))

    def test_untight_bound_detected(self, space3):
        a = Assessment(
            space3,
            (
                (indicator(event(space3, ["1"])), F(1, 2)),
                (indicator(event(space3, ["1", "2"])), F(1, 4)),
            ),
        )
        assert not is_coherent(a)
        assert natural_extension(a, indicator(event(space3, ["1", "2"]))) == F(1, 2)

    def test_single_vacuous_bound_is_coherent(self, space3, rng):
        f = rnd_gamble(rng, space3)
        assert is_coherent(Assessment(space3, ((f, f.inf()),)))

    def test_coherent_implies_asl(self, space3, rng):
        for _ in range(10):
            a = rnd_asl_assessment(rng, space3)
            if is_coherent(a):
                assert avoids_sure_loss(a)


class TestCredalVertices:
    def test_vacuous_two_point(self):
        s = Space(("1", "2"))
        assert credal_vertices(Assessment.vacuous(s)) == frozenset({(1, 0), (0, 1)})

    def test_dice_tight_is_uniform_point(self, space6):
        a = dice_assessment(space6, F(1, 6))
        assert credal_vertices(a) == frozenset({(F(1, 6),) * 6})

    def test_linear_vacuous_polytope(self):
        s = Space(("1", "2"))
        eps, alpha = F(1, 2), F(1, 4)
        a = Assessment(
            s,
            (
                (indicator(event(s, ["1"])), eps * alpha),
                (indicator(event(s, ["2"])), eps * (1 - alpha)),
            ),
        )
        expected = {
            (eps * alpha + (1 - eps), eps * (1 - alpha)),
            (eps * alpha, eps * (1 - alpha) + (1 - eps)),
        }
        assert credal_vertices(a) == frozenset(expected)

    def test_envelope_equality(self, rng):
        for size in (2, 3, 4, 5):
            space = Space(tuple(str(i) for i in range(size)))
            for _ in range(5):
                a = rnd_asl_assessment(rng, space)
                vertices = credal_vertices(a)
                for _ in range(3):
                    f = rnd_gamble(rng, space)
                    oracle = min(
                        sum(p * v for p, v in zip(vertex, f.values))
                        for vertex in vertices
                    )
                    assert natural_extension(a, f) == oracle

    def test_sure_loss_vertices_raise(self):
        s = Space(("1", "2"))
        a = Assessment(s, ((indicator(event(s, ["1"])), F(2)),))
        with pytest.raises(SureLossError):
            credal_vertices(a)


class TestDesirability:
    def test_nonnegative_orthant_always_included(self, space3, rng):
        empty = DesirableSet(space3, ())
        for _ in range(5):
            g = rnd_gamble(rng, space3, lo=0)
            assert desirable_cone_contains(empty, g)

    def test_scaling(self, space3, rng):
        f = rnd_gamble(rng, space3)
        d = DesirableSet(space3, (f,))
        assert desirable_cone_contains(d, 2 * f)

    def test_opposite_direction_excluded(self):
        s = Space(("1", "2"))
        d = DesirableSet(s, (gamble(s, [1, -1]),))
        assert not desirable_cone_contains(d, gamble(s, [-1, 1]))

    def test_partial_loss_cases(self):
        s = Space(("1", "2"))
        assert avoids_partial_loss(DesirableSet(s, ()))
        balanced = DesirableSet(s, (gamble(s, [1, -1]), gamble(s, [-1, 1])))
        assert avoids_partial_loss(balanced)
        assert not avoids_partial_loss(DesirableSet(s, (gamble(s, [-1, -2]),)))

    def test_cone_members_keep_partial_loss_consistent(self, space3, rng):
        for _ in range(5):
            d = DesirableSet(
                space3, tuple(rnd_gamble(rng, space3) for _ in range(rng.randint(1, 3)))
            )
            if avoids_partial_loss(d):
                # cone membership of a strictly negative gamble would contradict it
                assert not desirable_cone_contains(d, gamble(space3, [-1, -1, -1]))


class TestDesirabilityTableauOracles:
    """Cone membership and partial loss against their hand-built tableaux.

    The oracles solve the defining programs over the combination weights
    lambda directly, with no credal set: g = sum_k lambda_k f_k + s with
    s >= 0, and the largest total deficit t of a combination with
    sum_k lambda_k f_k <= -t, 0 <= t <= 1.
    """

    @staticmethod
    def _tableau_cone_contains(desirable, g):
        from lowprev.solver import ONE, ZERO, solve_standard

        n = desirable.space.size
        k = len(desirable.gambles)
        # lambda . f_k(x) + s_x = g(x), all variables >= 0
        rows = [
            [f.values[x] for f in desirable.gambles] + [ONE if y == x else ZERO for y in range(n)]
            for x in range(n)
        ]
        status, _, _ = solve_standard(rows, list(g.values), [ZERO] * (k + n))
        return status == "optimal"

    @staticmethod
    def _tableau_avoids_partial_loss(desirable):
        from lowprev.solver import ONE, ZERO, solve_standard

        n = desirable.space.size
        k = len(desirable.gambles)
        if k == 0:
            return True
        # variables: lambda, t, slacks of sum_k lambda_k f_k(x) + t_x <= 0,
        # slacks of t_x <= 1; maximise sum(t)
        nvars = k + 3 * n
        rows, rhs = [], []
        for x in range(n):
            row = [ZERO] * nvars
            for j, f in enumerate(desirable.gambles):
                row[j] = f.values[x]
            row[k + x] = ONE
            row[k + n + x] = ONE
            rows.append(row)
            rhs.append(ZERO)
        for x in range(n):
            row = [ZERO] * nvars
            row[k + x] = ONE
            row[k + 2 * n + x] = ONE
            rows.append(row)
            rhs.append(ONE)
        cost = [ZERO] * nvars
        for x in range(n):
            cost[k + x] = -ONE
        status, value, _ = solve_standard(rows, rhs, cost)
        assert status == "optimal"
        return value == 0

    def test_agree_on_seeded_desirable_sets(self):
        rng = random.Random(1515)
        seen = {(name, verdict): 0 for name in ("cone", "apl") for verdict in (True, False)}
        for _ in range(1000):
            space = Space(tuple(str(i) for i in range(rng.randint(1, 6))))
            gambles = tuple(
                rnd_gamble(rng, space, lo=-3, hi=3, max_den=2) for _ in range(rng.randint(0, 5))
            )
            d = DesirableSet(space, gambles)
            apl = avoids_partial_loss(d)
            assert apl == self._tableau_avoids_partial_loss(d)
            seen["apl", apl] += 1
            # a non-negative combination of the set (in the cone, often on
            # its boundary), the same pushed down at one outcome, and a
            # random gamble
            lam = [rng.randint(0, 2) for _ in gambles]
            combo = [sum((l * f.values[x] for l, f in zip(lam, gambles)), F(0)) for x in range(space.size)]
            below = list(combo)
            below[rng.randrange(space.size)] -= F(1, rng.randint(1, 4))
            for values in (combo, below, [rnd_frac(rng, -3, 3, 2) for _ in space]):
                g = gamble(space, values)
                inside = desirable_cone_contains(d, g)
                assert inside == self._tableau_cone_contains(d, g)
                seen["cone", inside] += 1
        assert min(seen.values()) >= 100, seen


class TestPreferences:
    def test_equal_gambles_indifferent(self, space3, rng):
        a = coherent_version(rnd_asl_assessment(rng, space3))
        f = rnd_gamble(rng, space3)
        assert indifferent(a, f, f)

    def test_vacuous_coin_gambles_incomparable(self):
        s = Space(("h", "t"))
        vacuous = Assessment.vacuous(s)
        assert incomparable(vacuous, gamble(s, [1, -1]), gamble(s, [-1, 1]))

    def test_uniform_prevision_indifferent(self):
        s = Space(("h", "t"))
        uniform = Assessment.from_prevision(s, [F(1, 2), F(1, 2)])
        assert indifferent(uniform, gamble(s, [1, -1]), gamble(s, [-1, 1]))

    def test_imprecision_creates_incomparability(self, space3, rng):
        for _ in range(10):
            a = coherent_version(rnd_asl_assessment(rng, space3))
            h = rnd_gamble(rng, space3)
            lower = natural_extension(a, h)
            upper = upper_extension(a, h)
            if lower < upper:
                x = (lower + upper) / 2
                assert incomparable(a, h - x, x - h)

    def test_almost_prefers_dominance(self, space3, rng):
        a = coherent_version(rnd_asl_assessment(rng, space3))
        f = rnd_gamble(rng, space3)
        assert almost_prefers(a, f + F(1, 3), f)


class TestDuplicatesAndEdges:
    def test_duplicate_gambles_strongest_bound_wins(self, space3, rng):
        f = rnd_gamble(rng, space3)
        weaker = f.inf() + F(1, 8)
        stronger = f.inf() + F(1, 4)
        a = Assessment(space3, ((f, weaker), (f, stronger)))
        assert natural_extension(a, f) == stronger
        # the weaker duplicate is an untight bound, so the assessment as
        # stated is not coherent even though its induced model is fine
        assert not is_coherent(a)
        assert is_coherent(Assessment(space3, ((f, stronger),)))

    def test_single_outcome_space(self):
        s = Space(("only",))
        vacuous = Assessment.vacuous(s)
        g = gamble(s, [F(3, 7)])
        assert natural_extension(vacuous, g) == F(3, 7)
        assert credal_vertices(vacuous) == frozenset({(F(1),)})
        assert is_coherent(Assessment(s, ((g, F(3, 7)),)))

    def test_constant_gambles_have_their_value(self, space4):
        vacuous = Assessment.vacuous(space4)
        mu = gamble(space4, [F(-2, 3)] * 4)
        assert natural_extension(vacuous, mu) == F(-2, 3)
        assert upper_extension(vacuous, mu) == F(-2, 3)


def fraction_keyed_rows(assessment):
    """The credal rows as built with tuples of Fractions as dict keys."""
    by_coeffs = {}
    for g, b in assessment.items:
        key = g.values
        if key not in by_coeffs or b > by_coeffs[key]:
            by_coeffs[key] = b
    rows = []
    done = set()
    for coeffs, b in by_coeffs.items():
        if coeffs in done:
            continue
        neg = tuple(-v for v in coeffs)
        if neg in by_coeffs and by_coeffs[neg] == -b and neg != coeffs:
            rows.append(Constraint(coeffs, "==", b))
            done.add(coeffs)
            done.add(neg)
        else:
            rows.append(Constraint(coeffs, ">=", b))
            done.add(coeffs)
    return tuple(rows)


class TestCredalRowOracle:
    @staticmethod
    def spelled(rng, v):
        """One of the spellings of a rational value that a Gamble accepts."""
        forms = [v, f"{v.numerator}/{v.denominator}"]
        if v.denominator == 1:
            forms += [v.numerator, str(v.numerator)]
        return rng.choice(forms)

    def random_assessment(self, rng):
        space = Space(tuple(f"x{i}" for i in range(rng.randint(1, 4))))
        pool = [rnd_frac(rng, -2, 2, 2) for _ in range(space.size)]
        items = []
        for _ in range(rng.randint(0, 8)):
            kind = rng.random()
            if items and kind < 0.25:  # a repeat, with its own bound
                f, b = rng.choice(items)
                items.append((f, rng.choice([b, b + F(1, 2), b - 1])))
            elif items and kind < 0.5:  # its opposite, matching or not
                f, b = rng.choice(items)
                items.append((-f, rng.choice([-b, -b, -b + F(1, 3)])))
            elif kind < 0.6:
                items.append((Gamble(space, (0,) * space.size), rng.choice([F(0), F(-1), F(1, 2)])))
            else:
                values = [self.spelled(rng, rng.choice(pool)) for _ in space]
                items.append((Gamble(space, tuple(values)), rnd_frac(rng, -2, 2, 3)))
        if items and rng.random() < 0.5:  # a gamble given again in other spellings
            f, b = rng.choice(items)
            again = Gamble(space, tuple(self.spelled(rng, v) for v in f.values))
            items.append((again, self.spelled(rng, b)))
        rng.shuffle(items)
        return Assessment(space, tuple(items))

    def test_matches_fraction_keyed_rows(self):
        rng = random.Random(1800)
        kinds = {"==": 0, ">=": 0}
        for _ in range(600):
            a = self.random_assessment(rng)
            rows = CredalSet(a).lp.constraints
            expected = fraction_keyed_rows(a)
            assert [(c.coeffs, c.relation, c.rhs) for c in rows] == [
                (c.coeffs, c.relation, c.rhs) for c in expected
            ]
            assert all(type(v) is F for c in rows for v in c.coeffs + (c.rhs,))
            for c in rows:
                kinds[c.relation] += 1
        assert kinds["=="] >= 50 and kinds[">="] >= 1000


class TestPrimalFormulaOracles:
    """The defining sup-inf forms, solved directly, against the envelope route.

    Natural extension: the largest alpha such that g - alpha dominates some
    non-negative combination of the assessed exchanges f_k - b_k.  Avoiding
    sure loss: no non-negative combination of those exchanges has a
    uniformly negative supremum.  Both are LPs over the combination
    weights, independent of the credal-set representation.
    """

    @staticmethod
    def _primal_natex(assessment, g):
        from lowprev.solver import ONE, ZERO, solve_standard

        items = assessment.items
        n = assessment.space.size
        k = len(items)
        # lambda . (f_j(x) - b_j) + alpha_plus - alpha_minus + s_x = g(x)
        nvars = k + 2 + n
        rows, rhs = [], []
        for x in range(n):
            row = [ZERO] * nvars
            for j, (f, b) in enumerate(items):
                row[j] = f.values[x] - b
            row[k] = ONE
            row[k + 1] = -ONE
            row[k + 2 + x] = ONE
            rows.append(row)
            rhs.append(g.values[x])
        cost = [ZERO] * nvars
        cost[k] = -ONE
        cost[k + 1] = ONE
        status, value, _ = solve_standard(rows, rhs, cost)
        assert status == "optimal"
        return -value

    @staticmethod
    def _primal_incurs_sure_loss(assessment):
        from lowprev.solver import ONE, ZERO, solve_standard

        items = assessment.items
        n = assessment.space.size
        k = len(items)
        # lambda . (f_j(x) - b_j) + s_x = -1 feasible for lambda, s >= 0
        rows, rhs = [], []
        for x in range(n):
            row = [ZERO] * (k + n)
            for j, (f, b) in enumerate(items):
                row[j] = f.values[x] - b
            row[k + x] = ONE
            rows.append(row)
            rhs.append(-ONE)
        status, _, _ = solve_standard(rows, rhs, [ZERO] * (k + n))
        return status == "optimal"

    def test_natural_extension_agrees_with_supinf_form(self, rng):
        for size in (2, 3, 4):
            space = Space(tuple(str(i) for i in range(size)))
            for _ in range(8):
                a = rnd_asl_assessment(rng, space, max_items=4)
                for _ in range(3):
                    g = rnd_gamble(rng, space)
                    assert self._primal_natex(a, g) == natural_extension(a, g)

    def test_sure_loss_agrees_with_combination_form(self, rng):
        space = Space(("1", "2", "3"))
        hits = {True: 0, False: 0}
        for _ in range(40):
            items = tuple(
                (rnd_gamble(rng, space), F(rng.randint(-4, 8), 4)) for _ in range(3)
            )
            a = Assessment(space, items)
            asl = avoids_sure_loss(a)
            assert asl == (not self._primal_incurs_sure_loss(a))
            hits[asl] += 1
        assert hits[True] >= 5 and hits[False] >= 5  # both branches exercised


class TestSureLossVertexEquivalence:
    def test_asl_iff_vertices_nonempty(self, rng):
        from lowprev import SureLossError as SLE

        space = Space(("1", "2", "3"))
        seen = {True: 0, False: 0}
        for _ in range(30):
            items = tuple(
                (rnd_gamble(rng, space), F(rng.randint(-4, 8), 4)) for _ in range(3)
            )
            a = Assessment(space, items)
            asl = avoids_sure_loss(a)
            seen[asl] += 1
            if asl:
                assert credal_vertices(a)
            else:
                with pytest.raises(SLE):
                    credal_vertices(a)
        assert seen[True] >= 5 and seen[False] >= 5
