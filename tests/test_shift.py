import random
from fractions import Fraction

import pytest

from lowprev import (
    Assessment,
    Convergent,
    gamble,
    EventuallyPeriodic,
    FinSupport,
    Space,
    Transformation,
    Truncated,
    banach_crosscheck,
    cesaro_mean,
    identity,
    lnex_res,
    lnex_theta,
    lsamp_theta,
    natural_extension,
    quadratic_event,
    residue_counterexample_event,
    residue_estimate,
    strongly_invariant_natex,
    unex_theta,
    usamp_theta,
    window_inf_mean,
    window_sup_mean,
)
from lowprev.shift import (
    as_eventually_periodic,
    ep_add,
    ep_liminf,
    ep_limsup,
    ep_min,
    ep_shift,
    ep_sub,
    power_orbit,
    prevision_power_sequence,
    residue_image_positions,
)
from lowprev import credal_vertices, weakly_invariant_closure
from lowprev.transforms import monoid

from conftest import rnd_gamble, rnd_map, rnd_weakly_invariant_assessment
from conftest import rnd_asl_assessment

F = Fraction


def rnd_ep(rng, lo=-4, hi=4):
    prefix = tuple(F(rng.randint(lo, hi)) for _ in range(rng.randint(0, 3)))
    cycle = tuple(F(rng.randint(lo, hi)) for _ in range(rng.randint(1, 4)))
    return EventuallyPeriodic(prefix, cycle)


class TestStructuredExactValues:
    def test_finite_support_vanishes(self):
        f = FinSupport((F(3), F(-2), F(7)))
        for op in (lnex_theta, unex_theta, lsamp_theta, usamp_theta, lnex_res):
            value = op(f)
            assert value.exact and value.value == 0

    def test_convergent_hits_the_limit(self):
        f = Convergent((F(9), F(-9)), F(2, 3))
        for op in (lnex_theta, unex_theta, lsamp_theta, usamp_theta, lnex_res):
            assert op(f).value == F(2, 3)

    def test_periodic_cycle_means(self):
        even = EventuallyPeriodic((), (F(1), F(0)))
        assert lnex_theta(even).value == F(1, 2)
        assert unex_theta(even).value == F(1, 2)
        assert lsamp_theta(even).value == F(1, 2)
        third = EventuallyPeriodic((), (F(1), F(0), F(0)))
        assert lsamp_theta(third).value == F(1, 3)

    def test_residue_set_indicator(self):
        for m in (2, 3, 5):
            for r in range(m):
                cycle = tuple(F(1) if i == r else F(0) for i in range(m))
                ind = EventuallyPeriodic((), cycle)
                assert lnex_res(ind).value == F(1, m)
                assert lnex_theta(ind).value == F(1, m)

    def test_constant_everything(self):
        mu = EventuallyPeriodic((), (F(5, 7),))
        for op in (lnex_theta, unex_theta, lsamp_theta, usamp_theta, lnex_res):
            assert op(mu).value == F(5, 7)

    def test_sandwich_on_structured_gambles(self):
        rng = random.Random(12)
        for _ in range(30):
            f = rnd_ep(rng)
            lo, hi = ep_liminf(f), ep_limsup(f)
            chain = [
                lo,
                lnex_theta(f).value,
                lsamp_theta(f).value,
                usamp_theta(f).value,
                unex_theta(f).value,
                hi,
            ]
            assert all(a <= b for a, b in zip(chain, chain[1:]))

    def test_shift_difference_has_zero_value(self):
        rng = random.Random(13)
        for _ in range(20):
            f = rnd_ep(rng)
            diff = ep_sub(ep_shift(f), f)
            assert lnex_theta(diff).value == 0
            assert unex_theta(diff).value == 0

    def test_residue_below_window_on_exact_cases(self):
        rng = random.Random(14)
        for _ in range(20):
            f = rnd_ep(rng)
            assert lnex_res(f).value <= lnex_theta(f).value


class TestEventuallyPeriodicArithmetic:
    def test_pointwise_agreement(self):
        rng = random.Random(15)
        for _ in range(25):
            f, g = rnd_ep(rng), rnd_ep(rng)
            s, d, m = ep_add(f, g), ep_sub(f, g), ep_min(f, g)
            for n in range(0, 20):
                assert s.at(n) == f.at(n) + g.at(n)
                assert d.at(n) == f.at(n) - g.at(n)
                assert m.at(n) == min(f.at(n), g.at(n))

    def test_conversions(self):
        fs = FinSupport((F(1), F(2)))
        ep = as_eventually_periodic(fs)
        assert [ep.at(n) for n in range(4)] == [1, 2, 0, 0]
        cv = as_eventually_periodic(Convergent((F(1),), F(3)))
        assert [cv.at(n) for n in range(3)] == [1, 3, 3]
        with pytest.raises(TypeError):
            as_eventually_periodic(Truncated((F(0),), F(0), F(1)))


class TestQuadraticEvent:
    def test_membership_window(self):
        assert tuple(int(v) for v in quadratic_event(10).window) == (
            0, 1, 0, 0, 1, 1, 0, 0, 0, 1,
        )
        assert quadratic_event(12).window[9] == 1  # 9 == 3*3
        assert quadratic_event(12).window[8] == 0
        assert tuple(quadratic_event(1).window) == (F(0),)

    def test_window_bounds_and_frequency(self):
        blocks = quadratic_event(10_000)
        assert lnex_theta(blocks, 50).value == 0
        assert unex_theta(blocks, 50).value == 1
        for m in range(2, 91):
            assert cesaro_mean(blocks, m * m - 1) == F(m, 2 * (m + 1))
        estimate = lsamp_theta(blocks)
        assert not estimate.exact
        assert abs(estimate.value - F(1, 2)) < F(1, 100)


class TestResidueCounterexample:
    def test_image_positions_start(self):
        positions = residue_image_positions(5, 100)
        assert positions[:5] == [5, 20, 31, 60, 76]
        gaps = [b - a for a, b in zip(positions, positions[1:])]
        assert min(gaps) >= 5

    def test_excluded_points(self):
        comp = residue_counterexample_event(5, 100)
        assert comp.window[5] == 0 and comp.window[20] == 0 and comp.window[31] == 0
        assert comp.window[6] == 1

    def test_residue_estimates_vanish_where_witnesses_fit(self):
        comp = residue_counterexample_event(5, 100_000)
        # all per-class witnesses for modulus m lie below 10^5 exactly for m <= 33
        for m in range(1, 34):
            assert residue_estimate(comp, m) == 0

    def test_truncation_artifacts_at_large_moduli(self):
        # the witnesses for these moduli lie beyond the truncation, so the
        # truncated estimate is positive even though the limit value is 0
        comp = residue_counterexample_event(5, 100_000)
        artifacts = {
            m: residue_estimate(comp, m) for m in (75, 84, 87, 90, 93)
        }
        assert artifacts == {
            75: F(3, 75),
            84: F(1, 84),
            87: F(1, 87),
            90: F(1, 90),
            93: F(1, 93),
        }
        bigger = residue_counterexample_event(5, 2_600_000)
        assert all(residue_estimate(bigger, m) == 0 for m in artifacts)

    def test_window_means_certify_the_lower_bound(self):
        comp = residue_counterexample_event(5, 100_000)
        for n in range(3, 51):
            assert window_inf_mean(comp, n) >= F(2, 3)
        # short windows can sit on an excluded point, so the bound fails there
        assert window_inf_mean(comp, 1) == 0
        assert window_inf_mean(comp, 2) == F(1, 2)
        assert lnex_theta(comp, 50).value >= F(2, 3)

    def test_windowed_strictly_dominates_residue_estimate(self):
        comp = residue_counterexample_event(5, 100_000)
        assert residue_estimate(comp, 10) == 0
        assert lnex_theta(comp, 50).value >= F(2, 3)


class TestWindowedEstimators:
    def test_flags_and_window_length(self):
        tr = Truncated(tuple(F(v) for v in (1, 0, 1, 1, 0, 1, 1, 1)), F(0), F(1))
        value = lnex_theta(tr, 4)
        assert not value.exact and value.truncation_used == 8
        assert 1 <= value.window_length <= 4
        assert window_sup_mean(tr, 2) == 1

    def test_truncated_matches_brute_force(self):
        rng = random.Random(16)
        for _ in range(15):
            window = tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rng.randint(4, 12)))
            tr = Truncated(window, min(window) - 1, max(window) + 1)
            n_max = rng.randint(1, len(window))
            brute = max(
                min(
                    sum(window[k : k + n]) / n
                    for k in range(len(window) - n + 1)
                )
                for n in range(1, n_max + 1)
            )
            assert lnex_theta(tr, n_max).value == brute
            brute_res = min(
                sum(
                    min(window[r::m]) for r in range(m)
                ) / m
                for m in (3,)
            )
            assert residue_estimate(tr, 3) == brute_res


class TestWindowLengthBound:
    @pytest.mark.parametrize("n_max", [0, -1])
    def test_truncated_scans_need_a_positive_window(self, n_max):
        tr = Truncated(tuple(F(v) for v in (1, 0, 1, 1)), F(0), F(1))
        with pytest.raises(ValueError):
            lnex_theta(tr, n_max)
        with pytest.raises(ValueError):
            unex_theta(tr, n_max)


class TestModulusBound:
    def test_modulus_beyond_the_window_is_refused(self):
        tr = Truncated((1, 0, 1, 1), 0, 1)
        assert residue_estimate(tr, 4) == F(3, 4)
        with pytest.raises(ValueError):
            residue_estimate(tr, 5)
        with pytest.raises(ValueError):
            lnex_res(tr)  # default modulus 100 on a 4-entry window


def rnd_window(rng):
    """Signed values with mixed denominators, as Fractions.

    Half the windows take few distinct values, so that ties and entries one
    step of 1/scale above the minimum are common.
    """
    top, dens = rng.choice(((12, (1, 2, 3, 4, 6, 10)), (2, (1, 2))))
    return tuple(
        F(rng.randint(-top, top), rng.choice(dens)) for _ in range(rng.randint(1, 14))
    )


class TestCompactWindow:
    """A truncation stores integers over one denominator and scans that form."""

    def test_ints_fractions_and_strings_build_equal_objects(self):
        whole = Truncated((3, -1, 0, 2), -1, 3)
        assert whole == Truncated((F(3), F(-1), F(0), F(2)), F(-1), F(3))
        assert whole == Truncated(("3", "-1", "0", "6/3"), "-1", "3")
        assert whole.scale == 1 and whole.ints == (3, -1, 0, 2)
        mixed = Truncated((F(1, 2), F(-2, 3), F(5, 4)), F(-1), F(2))
        assert mixed == Truncated(("1/2", "-4/6", "5/4"), "-1", "2")
        assert mixed == Truncated(("2/4", F(-2, 3), "10/8"), -1, 2)
        assert mixed.scale == 12 and mixed.ints == (6, -8, 15)
        assert hash(mixed) == hash(Truncated(("1/2", "-2/3", "5/4"), -1, 2))
        assert all(type(v) is int for v in mixed.ints)

    def test_window_and_at_round_trip(self):
        rng = random.Random(31)
        for _ in range(40):
            window = rnd_window(rng)
            tr = Truncated(window, min(window), max(window))
            assert tr.window == window
            assert tuple(tr.at(k) for k in range(len(window))) == window
            assert Truncated(tr.window, tr.lo, tr.hi) == tr
            with pytest.raises(IndexError):
                tr.at(len(window))

    def test_bounds_are_checked_on_the_integer_form(self):
        # lo = 1/3 is not a multiple of 1/scale = 1/4
        assert Truncated(("1/2", "3/4"), "1/3", "3/4").scale == 4
        with pytest.raises(ValueError):
            Truncated(("1/4", "3/4"), "1/3", "1")
        with pytest.raises(ValueError):
            Truncated(("1/2", "3/4"), "0", "2/3")
        with pytest.raises(ValueError):
            Truncated((), 0, 1)

    def test_tail_beyond_the_truncation_is_refused(self):
        tr = Truncated((1, 0, 1), 0, 1)
        assert lsamp_theta(tr, 3).value == F(2, 3)
        with pytest.raises(ValueError):
            lsamp_theta(tr, 4)

    def test_upper_scans_and_residues_match_brute_force(self):
        rng = random.Random(32)
        for trial in range(60):
            window = rnd_window(rng)
            # every other trial puts lo more than 1 below the data and off the
            # 1/scale grid (7 divides no scale here): no class reaches the
            # early-exit bound ceil(lo * scale), and the scan runs every class out
            slack = F(8, 7) if trial % 2 else F(0)
            tr = Truncated(window, min(window) - slack, max(window) + slack)
            total = len(window)
            sups = [
                max(sum(window[k : k + n]) / n for k in range(total - n + 1))
                for n in range(1, total + 1)
            ]
            for n in range(1, total + 1):
                assert window_sup_mean(tr, n) == sups[n - 1]
            n_max = rng.randint(1, total)
            best = min(sups[:n_max])
            value = unex_theta(tr, n_max)
            assert (value.value, value.window_length, value.truncation_used) == (
                best, sups.index(best) + 1, total,
            )
            start = max(1, total // 2)
            means = [sum(window[:n]) / n for n in range(start, total + 1)]
            value = usamp_theta(tr)
            assert (value.value, value.window_length, value.truncation_used) == (
                max(means), start + means.index(max(means)), total,
            )
            for m in range(1, total + 1):
                brute = sum(min(window[r::m]) for r in range(m)) / m
                assert residue_estimate(tr, m) == brute


class TestBanachCrossCheck:
    def test_identity_reduces_to_natex(self, space3, rng):
        a = rnd_weakly_invariant_assessment(rng, space3, identity(space3))
        g = rnd_gamble(rng, space3)
        assert banach_crosscheck(a, identity(space3), g) == natural_extension(a, g)

    def test_two_point_swap(self):
        s = Space(("1", "2"))
        swap = Transformation(s, (1, 0))
        value = banach_crosscheck(Assessment.vacuous(s), swap, gamble(s, [1, 0]))
        assert value == F(1, 2)

    def test_double_transposition_formula(self, space4, rng):
        t = Transformation(space4, (1, 0, 3, 2))
        vacuous = Assessment.vacuous(space4)
        for _ in range(10):
            g = rnd_gamble(rng, space4)
            expected = min(
                (g.values[0] + g.values[1]) / 2, (g.values[2] + g.values[3]) / 2
            )
            assert banach_crosscheck(vacuous, t, g) == expected

    def test_matches_invariant_natex_on_weakly_invariant_models(self, rng):
        done = 0
        while done < 15:
            size = rng.randint(2, 5)
            space = Space(tuple(str(i) for i in range(size)))
            t = rnd_map(rng, space)
            a = rnd_weakly_invariant_assessment(rng, space, t)
            g = rnd_gamble(rng, space)
            expected = strongly_invariant_natex(a, monoid(space, [t]), g)
            assert banach_crosscheck(a, t, g) == expected
            done += 1

    def test_power_orbit_detects_cycles(self, rng):
        for _ in range(15):
            size = rng.randint(2, 5)
            space = Space(tuple(str(i) for i in range(size)))
            t = rnd_map(rng, space)
            powers, start, cyclen = power_orbit(t)
            assert powers[0] == identity(space)
            far = t
            for _ in range(start + cyclen - 1):
                far = t.compose(far)
            assert far == powers[start]

    def test_prevision_power_sequence_values(self, space4, rng):
        t = rnd_map(rng, space4)
        g = rnd_gamble(rng, space4)
        point = (F(1, 2), F(1, 4), F(1, 8), F(1, 8))
        seq = prevision_power_sequence(point, t, g)
        from lowprev import lift

        power = identity(space4)
        for n in range(10):
            direct = sum(p * v for p, v in zip(point, lift(power, g).values))
            assert seq.at(n) == direct
            power = t.compose(power)


def banach_by_vertices(assessment, t, g):
    """The shift value of n -> P(lift(T^n, g)), minimised over the credal vertices."""
    return min(
        lnex_theta(prevision_power_sequence(vertex, t, g)).value
        for vertex in credal_vertices(assessment)
    )


class TestBanachOneLP:
    def test_matches_the_vertex_oracle(self):
        rng = random.Random(4404)
        for k in range(16):
            space = Space(tuple(str(i) for i in range(rng.randint(2, 6))))
            t = rnd_map(rng, space)
            if k % 2:
                a = rnd_weakly_invariant_assessment(rng, space, t, max_items=2)
            else:
                a = rnd_asl_assessment(rng, space, max_items=4, strict_somewhere=True)
            g = rnd_gamble(rng, space)
            assert banach_crosscheck(a, t, g) == banach_by_vertices(a, t, g)

    def test_ten_outcome_cyclic_shift(self):
        rng = random.Random(1010)
        space = Space(tuple(str(i) for i in range(10)))
        t = Transformation(space, tuple((i + 1) % 10 for i in range(10)))
        m = monoid(space, [t])
        for _ in range(3):
            items = []
            for _ in range(rng.randint(1, 2)):
                f = rnd_gamble(rng, space)
                items.append((f, sum(f.values) / 10 - F(rng.randint(0, 4), 2)))
            a = weakly_invariant_closure(Assessment(space, tuple(items)), m)
            g = rnd_gamble(rng, space)
            value = banach_crosscheck(a, t, g)
            # the uniform mass function is the one invariant prevision
            assert value == strongly_invariant_natex(a, m, g) == sum(g.values) / 10
