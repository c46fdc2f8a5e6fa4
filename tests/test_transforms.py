import random
from fractions import Fraction

import pytest

from lowprev import (
    Transformation,
    TruncatedClosureError,
    classify,
    closure,
    constant_map,
    gamble,
    identity,
    invariant_atoms,
    is_invariant_gamble,
    lift,
    monoid,
    pushforward,
)

from lowprev import Space
from lowprev.transforms import MonoidFlags

from conftest import rnd_gamble, rnd_map, rnd_permutation, transposition

F = Fraction


class TestClosure:
    def test_identity_only(self, space3):
        m = closure([identity(space3)])
        assert m.closure == frozenset({identity(space3)})
        assert not m.truncated

    def test_three_cycle(self, space3):
        rot = Transformation(space3, (1, 2, 0))
        m = closure([rot])
        assert len(m.closure) == 3
        assert identity(space3) in m.closure

    def test_non_directed_pair(self, space3):
        t1 = Transformation(space3, (0, 1, 1))
        t2 = Transformation(space3, (0, 2, 2))
        m = closure([t1, t2])
        assert m.closure == frozenset({identity(space3), t1, t2})
        assert t1.compose(t2) == t1 and t2.compose(t1) == t2

    def test_truncation_flag(self, space6):
        rng = random.Random(1)
        gens = [rnd_map(rng, space6) for _ in range(3)]
        m = closure(gens, cap=4)
        assert m.truncated
        with pytest.raises(TruncatedClosureError):
            classify(m)


class TestClassify:
    def test_symmetric_group(self, space3):
        m = monoid(space3, [transposition(space3, "1", "2"), Transformation(space3, (1, 2, 0))])
        flags = classify(m)
        assert flags.group and not flags.abelian
        assert flags.left_cancellable and flags.right_cancellable

    def test_non_directed_monoid_not_cancellable(self, space3):
        m = monoid(space3, [Transformation(space3, (0, 1, 1)), Transformation(space3, (0, 2, 2))])
        flags = classify(m)
        assert not flags.group and not flags.abelian
        assert not flags.left_cancellable and not flags.right_cancellable

    def test_idempotent_map(self, space3):
        t = Transformation(space3, (0, 0, 2))  # t o t == t, not invertible
        flags = classify(monoid(space3, [t]))
        assert not flags.left_cancellable and not flags.right_cancellable
        assert flags.abelian


def closure_flags(m):
    """The flags by their definitions, checked over every pair of the closure."""
    elems = list(m.closure)
    ident = identity(m.space)
    abelian = all(s.compose(t) == t.compose(s) for s in elems for t in elems)
    left = all(any(s.compose(t) == ident for s in elems) for t in elems)
    right = all(any(t.compose(s) == ident for s in elems) for t in elems)
    return MonoidFlags(abelian, left and right, left, right)


class TestClassifyFromGenerators:
    def test_matches_the_closure_oracle(self):
        rng = random.Random(92)
        seen = set()
        for _ in range(150):
            space = Space(tuple(str(i) for i in range(rng.randint(1, 4))))
            gens = [
                rnd_permutation(rng, space) if rng.random() < 0.6 else rnd_map(rng, space)
                for _ in range(rng.randint(1, 3))
            ]
            m = monoid(space, gens)
            flags = classify(m)
            assert flags == closure_flags(m)
            seen.add((flags.group, flags.abelian))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}


class TestInvariantAtoms:
    def test_all_transformations_single_atom(self, space3):
        gens = [constant_map(space3, x) for x in space3] + [rnd_permutation(random.Random(2), space3)]
        atoms = invariant_atoms(monoid(space3, gens))
        assert atoms.partition == (("1", "2", "3"),)

    def test_even_odd_partition(self, space6):
        gens = [
            transposition(space6, "1", "3"),
            transposition(space6, "3", "5"),
            transposition(space6, "2", "4"),
            transposition(space6, "4", "6"),
        ]
        atoms = invariant_atoms(monoid(space6, gens))
        assert atoms.partition == (("1", "3", "5"), ("2", "4", "6"))

    def test_identity_gives_singletons(self, space3):
        atoms = invariant_atoms(monoid(space3, [identity(space3)]))
        assert atoms.partition == (("1",), ("2",), ("3",))

    def test_group_atoms_are_orbits(self, space6, rng):
        for _ in range(10):
            gens = [rnd_permutation(rng, space6) for _ in range(2)]
            m = monoid(space6, gens)
            atoms = invariant_atoms(m)
            for block in atoms.partition:
                x = block[0]
                orbit = {t(x) for t in m.closure}
                assert orbit == set(block)

    def test_gamble_invariance_iff_constant_on_atoms(self, space6, rng):
        for _ in range(10):
            gens = [rnd_map(rng, space6) for _ in range(2)]
            m = monoid(space6, gens, cap=500)
            atoms = invariant_atoms(m)
            f = rnd_gamble(rng, space6)
            constant = all(
                len({f(x) for x in block}) == 1 for block in atoms.partition
            )
            assert is_invariant_gamble(m, f) == constant
            # a gamble built constant on atoms is always invariant
            levels = {block: F(i) for i, block in enumerate(atoms.partition)}
            g = gamble(space6, [levels[atoms.atom_of(x)] for x in space6])
            assert is_invariant_gamble(m, g)

    def test_adding_generators_never_splits_atoms(self, space6, rng):
        for _ in range(10):
            gens = [rnd_map(rng, space6)]
            coarse = invariant_atoms(monoid(space6, gens, cap=200))
            finer_gens = gens + [rnd_map(rng, space6)]
            coarser = invariant_atoms(monoid(space6, finer_gens, cap=200))
            # every atom of the smaller monoid sits inside one of the bigger
            for block in coarse.partition:
                assert any(set(block) <= set(big) for big in coarser.partition)

    def test_generator_preimage_fixes_atoms(self, space6, rng):
        from lowprev import Event

        for _ in range(10):
            gens = [rnd_map(rng, space6) for _ in range(2)]
            m = monoid(space6, gens, cap=200)
            for block in invariant_atoms(m).partition:
                ev = Event(space6, frozenset(block))
                for t in m.generators:
                    assert t.preimage(ev).members == ev.members


class TestPushforward:
    def test_identity_and_constant(self, space3):
        p = (F(1, 2), F(1, 3), F(1, 6))
        assert pushforward(identity(space3), p) == p
        assert pushforward(constant_map(space3, "2"), p) == (0, 1, 0)

    def test_duality_with_lifting(self, space4, rng):
        for _ in range(20):
            t = rnd_map(rng, space4)
            f = rnd_gamble(rng, space4)
            weights = [rng.randint(1, 5) for _ in range(4)]
            total = sum(weights)
            p = tuple(F(w, total) for w in weights)
            q = pushforward(t, p)
            assert sum(a * b for a, b in zip(q, f.values)) == sum(
                a * b for a, b in zip(p, lift(t, f).values)
            )

    def test_composition(self, space4, rng):
        for _ in range(20):
            s, t = rnd_map(rng, space4), rnd_map(rng, space4)
            weights = [rng.randint(0, 5) for _ in range(4)]
            total = sum(weights) or 1
            p = tuple(F(w, total) for w in weights)
            assert pushforward(s.compose(t), p) == pushforward(s, pushforward(t, p))
