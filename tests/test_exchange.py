import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from lowprev import (
    Assessment,
    CategorySpace,
    Gamble,
    PositivityError,
    atom_size,
    count_gamble,
    counting_map,
    credal_vertices,
    exchangeable_assessment,
    exchangeable_from_counts,
    is_exchangeable,
    likelihood,
    natural_extension,
    posterior_count_assessment,
    predictive_update,
    strongly_invariant,
    uniform_given_count,
    update_counts,
)
from lowprev.exchange import (
    category_permutation,
    count_category_permutation,
    count_marginals,
    count_vectors,
    position_permutation_generators,
)
from lowprev.transforms import monoid

from conftest import rnd_asl_assessment, rnd_gamble, rnd_interior_point

F = Fraction


def rnd_count_assessment(rng, cs: CategorySpace, max_items=4) -> Assessment:
    return rnd_asl_assessment(rng, cs.count_space, max_items=max_items)


def indicator_of_sequence(cs: CategorySpace, seq) -> Gamble:
    return Gamble(cs.space, tuple(F(1) if s == tuple(seq) else F(0) for s in cs.sequences))


class TestCountsAndAtoms:
    def test_counting_map(self):
        assert counting_map((1, 2, 1), 2) == (2, 1)
        assert counting_map((3, 3, 3, 3), 3) == (0, 0, 4)
        rng = random.Random(0)
        for _ in range(10):
            seq = [rng.randint(1, 3) for _ in range(5)]
            perm = seq[:]
            rng.shuffle(perm)
            assert counting_map(seq, 3) == counting_map(perm, 3)

    def test_atom_size(self):
        assert atom_size((2, 1)) == 3
        assert atom_size((4, 0, 0)) == 1
        for kappa, n in ((2, 3), (3, 3), (2, 5)):
            assert sum(atom_size(m) for m in count_vectors(kappa, n)) == kappa ** n

    def test_count_vectors_are_colex_sorted(self):
        vecs = count_vectors(2, 3)
        assert vecs == ((3, 0), (2, 1), (1, 2), (0, 3))
        assert sorted(vecs, key=lambda m: m[::-1]) == list(vecs)

    def test_uniform_given_count(self):
        cs = CategorySpace(2, 2)
        mu = Gamble(cs.space, (F(3, 7),) * 4)
        assert uniform_given_count(cs, mu, (1, 1)) == F(3, 7)
        assert uniform_given_count(cs, indicator_of_sequence(cs, (1, 2)), (1, 1)) == F(1, 2)

    def test_uniform_given_count_is_urn_sampling(self):
        # mean over distinct orderings of the urn's contents
        cs = CategorySpace(2, 3)
        rng = random.Random(1)
        f = rnd_gamble(rng, cs.space)
        for m in cs.counts:
            balls = [1] * m[0] + [2] * m[1]
            orders = set(itertools.permutations(balls))
            index = {s: i for i, s in enumerate(cs.sequences)}
            mean = sum(f.values[index[o]] for o in orders) / len(orders)
            assert uniform_given_count(cs, f, m) == mean


class TestExchangeableModels:
    def test_precise_uniform_count_prior_on_a_sequence(self):
        cs = CategorySpace(2, 3)
        prior = Assessment.from_prevision(cs.count_space, [F(1, 4)] * 4)
        seq = (1, 2, 1)
        ind = indicator_of_sequence(cs, seq)
        m = counting_map(seq, 2)
        expected = F(1, 4) / atom_size(m)
        assert exchangeable_from_counts(cs, prior, ind) == expected

    def test_vacuous_count_prior_gives_min_atom_mean(self, rng):
        cs = CategorySpace(2, 3)
        vacuous = Assessment.vacuous(cs.count_space)
        for _ in range(5):
            f = rnd_gamble(rng, cs.space)
            expected = min(uniform_given_count(cs, f, m) for m in cs.counts)
            assert exchangeable_from_counts(cs, vacuous, f) == expected

    def test_models_from_counts_are_exchangeable(self, rng):
        cs = CategorySpace(2, 3)
        for _ in range(5):
            prior = rnd_count_assessment(rng, cs)
            joint = exchangeable_assessment(cs, prior)
            assert is_exchangeable(cs, joint)
            assert strongly_invariant(
                joint, monoid(cs.space, position_permutation_generators(cs))
            )

    def test_vacuous_is_permutable_but_not_exchangeable(self):
        cs = CategorySpace(2, 2)
        from lowprev import credal_weakly_invariant

        vacuous = Assessment.vacuous(cs.space)
        mon = monoid(cs.space, position_permutation_generators(cs))
        assert credal_weakly_invariant(vacuous, mon)
        assert not is_exchangeable(cs, vacuous)

    def test_single_variable_always_exchangeable(self, rng):
        cs = CategorySpace(3, 1)
        a = rnd_asl_assessment(rng, cs.space)
        assert is_exchangeable(cs, a)

    def test_joint_assessment_agrees_with_count_evaluation(self, rng):
        cs = CategorySpace(2, 3)
        for _ in range(4):
            prior = rnd_count_assessment(rng, cs)
            joint = exchangeable_assessment(cs, prior)
            for _ in range(4):
                f = rnd_gamble(rng, cs.space)
                assert natural_extension(joint, f) == exchangeable_from_counts(cs, prior, f)

    def test_representation_round_trip_on_vertices(self, rng):
        cs = CategorySpace(2, 3)
        for _ in range(5):
            prior = rnd_count_assessment(rng, cs)
            joint = exchangeable_assessment(cs, prior)
            marginals = count_marginals(cs, credal_vertices(joint))
            assert set(marginals) == set(credal_vertices(prior))


class TestExchangeabilityPastEightSequences:
    """Strong invariance is decided from the rows, so no outcome cap applies."""

    def test_two_categories_four_variables(self):
        cs = CategorySpace(2, 4)
        assert cs.space.size == 16
        joint = exchangeable_assessment(cs, rnd_count_assessment(random.Random(16), cs, max_items=3))
        assert is_exchangeable(cs, joint)
        # without one tie between two sequences of equal counts, a
        # dominating prevision can move mass between them
        untied = Assessment(cs.space, joint.items[2:])
        assert not is_exchangeable(cs, untied)
        assert not is_exchangeable(cs, Assessment.vacuous(cs.space))

    def test_three_categories_three_variables(self):
        cs = CategorySpace(3, 3)
        assert cs.space.size == 27
        joint = exchangeable_assessment(cs, rnd_count_assessment(random.Random(27), cs, max_items=3))
        assert is_exchangeable(cs, joint)


class TestLikelihood:
    def test_examples(self):
        assert likelihood((1, 0), (2, 1)) == F(2, 3)
        assert likelihood((2, 1), (2, 1)) == F(1, atom_size((2, 1)))
        assert likelihood((0, 2), (1, 1)) == 0

    def test_normalisation_by_draw_enumeration(self):
        for m_star in ((2, 1), (2, 2), (3, 1)):
            total = sum(m_star)
            balls = [1] * m_star[0] + [2] * m_star[1]
            for n in range(1, total):
                orders = list(set(itertools.permutations(balls)))
                counter = Counter(counting_map(o[:n], 2) for o in orders)
                for m, hits in counter.items():
                    enumerated = F(hits, len(orders))
                    assert enumerated == atom_size(m) * likelihood(m, m_star)
                assert sum(
                    atom_size(m) * likelihood(m, m_star) for m in counter
                ) == 1


class TestUpdating:
    def test_precise_prior_is_plain_bayes(self):
        full = CategorySpace(2, 3)
        prior = Assessment.from_prevision(full.count_space, [F(1, 4)] * 4)
        rest = CategorySpace(2, 2)
        h = Gamble(rest.count_space, (F(1), F(0), F(0)))  # remaining composition (2,0)
        # direct Bayes with the hypergeometric likelihood
        weights = {ms: F(1, 4) * likelihood((1, 0), ms) for ms in full.counts}
        mass = sum(weights.values())
        direct = sum(
            w / mass
            for ms, w in weights.items()
            if tuple(b - a for a, b in zip((1, 0), ms)) == (2, 0)
        )
        assert update_counts(prior, full, (1, 0), h) == direct

    def test_worked_urn_update(self):
        full = CategorySpace(2, 3)
        prior = Assessment.from_prevision(full.count_space, [F(1, 4)] * 4)
        rest = CategorySpace(2, 2)
        next_is_one = Gamble(
            rest.space, tuple(F(1) if s[0] == 1 else F(0) for s in rest.sequences)
        )
        assert predictive_update(prior, full, (1,), next_is_one) == F(2, 3)

    def test_two_ball_worked_example(self):
        full = CategorySpace(2, 2)
        prior = Assessment.from_prevision(full.count_space, [F(1, 3)] * 3)
        rest = CategorySpace(2, 1)
        next_is_one = Gamble(rest.space, (F(1), F(0)))
        assert predictive_update(prior, full, (1,), next_is_one) == F(2, 3)

    def test_constant_gamble_is_unmoved(self, rng):
        full = CategorySpace(2, 3)
        prior = Assessment.from_prevision(
            full.count_space, rnd_interior_point(rng, 4)
        )
        rest = CategorySpace(2, 2)
        mu = Gamble(rest.space, (F(4, 9),) * 4)
        assert predictive_update(prior, full, (1,), mu) == F(4, 9)

    def test_sufficiency(self, rng):
        full = CategorySpace(2, 3)
        prior = Assessment.from_prevision(
            full.count_space, rnd_interior_point(rng, 4)
        )
        rest = CategorySpace(2, 1)
        g = rnd_gamble(rng, rest.space)
        for x, y in (((1, 2), (2, 1)),):
            assert predictive_update(prior, full, x, g) == predictive_update(prior, full, y, g)

    def test_restricted_vacuous_prior_example(self):
        # urns restricted to hold at least two balls of type 1; observing
        # (1,1) leaves the worst case urn (2,1) with no type-1 ball left
        full = CategorySpace(2, 3)
        restriction = Gamble(full.count_space, (F(1), F(1), F(0), F(0)))
        prior = Assessment(full.count_space, ((restriction, F(1)),))
        rest = CategorySpace(2, 1)
        next_is_one = Gamble(rest.space, (F(1), F(0)))
        value = predictive_update(prior, full, (1, 1), next_is_one)
        vertices = credal_vertices(prior)
        den = [likelihood((2, 0), ms) for ms in full.counts]
        h = count_gamble(rest, next_is_one)
        oracle = min(
            sum(q * d * h.values[rest.count_index[tuple(b - a for a, b in zip((2, 0), ms))]]
                for q, d, ms in zip(v, den, full.counts) if d > 0)
            / sum(q * d for q, d in zip(v, den))
            for v in vertices
        )
        assert value == oracle == 0

    def test_positivity_enforced(self):
        full = CategorySpace(2, 3)
        # prior pinned on the all-type-2 urn: observing a type 1 is excluded
        prior = Assessment.from_prevision(full.count_space, [0, 0, 0, 1])
        rest = CategorySpace(2, 2)
        mu = Gamble(rest.space, (F(1),) * 4)
        with pytest.raises(PositivityError):
            predictive_update(prior, full, (1,), mu)

    def test_gbr_envelope_over_vertices(self, rng):
        full = CategorySpace(2, 3)
        rest = CategorySpace(2, 2)
        done = 0
        while done < 6:
            prior = rnd_count_assessment(rng, full)
            vertices = credal_vertices(prior)
            den = [likelihood((1, 0), ms) for ms in full.counts]
            if any(sum(q * d for q, d in zip(v, den)) <= 0 for v in vertices):
                continue
            h = Gamble(rest.count_space, tuple(F(rng.randint(-4, 4)) for _ in rest.counts))
            oracle = min(
                sum(
                    q * d * h.values[rest.count_index[tuple(b - a for a, b in zip((1, 0), ms))]]
                    for q, d, ms in zip(v, den, full.counts)
                    if d > 0
                )
                / sum(q * d for q, d in zip(v, den))
                for v in vertices
            )
            assert update_counts(prior, full, (1, 0), h) == oracle
            done += 1

    def test_post_data_exchangeability(self, rng):
        full = CategorySpace(2, 3)
        rest = CategorySpace(2, 2)
        done = 0
        while done < 4:
            prior = rnd_count_assessment(rng, full)
            try:
                posterior = posterior_count_assessment(prior, full, (1, 0))
            except PositivityError:
                continue
            joint = exchangeable_assessment(rest, posterior)
            assert is_exchangeable(rest, joint)
            # the posterior assessment reproduces the GBR values
            for _ in range(3):
                h = Gamble(
                    rest.count_space, tuple(F(rng.randint(-4, 4)) for _ in rest.counts)
                )
                assert natural_extension(posterior, h) == update_counts(
                    prior, full, (1, 0), h
                )
            done += 1


class TestCategoryPermutations:
    def test_time_and_category_invariance_implies_count_invariance(self, rng):
        # a model strongly invariant under both position and category
        # permutations has a count model strongly invariant under the
        # category action on compositions
        cs = CategorySpace(2, 3)
        swap = [2, 1]
        # build a category-symmetric prior: bounds on category-symmetric gambles
        sym_g = Gamble(cs.count_space, (F(1), F(0), F(0), F(1)))
        prior = Assessment(cs.count_space, ((sym_g, F(1, 3)),))
        count_action = monoid(cs.count_space, [count_category_permutation(cs, swap)])
        assert strongly_invariant(prior, count_action) is False  # weakly only
        joint = exchangeable_assessment(cs, prior)
        pos_and_cat = monoid(
            cs.space,
            position_permutation_generators(cs) + [category_permutation(cs, swap)],
        )
        if strongly_invariant(joint, pos_and_cat):
            assert strongly_invariant(prior, count_action)
        # engineered fully symmetric model: uniform over counts
        uniform = Assessment.from_prevision(cs.count_space, [F(1, 4)] * 4)
        joint_u = exchangeable_assessment(cs, uniform)
        assert strongly_invariant(joint_u, pos_and_cat)
        assert strongly_invariant(uniform, count_action)

    def test_category_permutation_action(self):
        cs = CategorySpace(2, 2)
        act = category_permutation(cs, [2, 1])
        assert act(cs.space.outcomes[cs.sequences.index((1, 2))]) == cs.space.outcomes[
            cs.sequences.index((2, 1))
        ]
