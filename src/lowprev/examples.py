"""Named worked examples, hard-coded as a regression surface.

Each case recomputes a small model whose exact values are known in closed
form and verifies them.  ``lowprev examples <name>`` replays one case and
fails loudly (exit code 2) if any value drifts.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Event, Gamble, Space, Transformation, event, gamble, indicator
from .errors import LowPrevError
from .exchange import CategorySpace, predictive_update
from .invariance import (
    credal_weakly_invariant,
    invariant_polytope_vertices,
    mixture_lower_prevision,
    strongly_invariant,
    strongly_invariant_natex,
)
from .previsions import Assessment, is_coherent, natural_extension, upper_extension
from .rationals import format_rational
from .shift import (
    cesaro_mean,
    lnex_theta,
    quadratic_event,
    residue_counterexample_event,
    residue_estimate,
    unex_theta,
    window_inf_mean,
)
from .transforms import invariant_atoms, monoid
from .choquet import possibility_upper

F = Fraction


class ExampleDrift(LowPrevError):
    """A worked example no longer reproduces its known value."""


def _fmt(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _check(rows, label, got, expected):
    if got != expected:
        raise ExampleDrift(f"{label}: got {_fmt(got)}, expected {_fmt(expected)}")
    rows.append([label, _fmt(got)])


def _transposition(space, a, b):
    img = list(range(space.size))
    ia, ib = space.index(a), space.index(b)
    img[ia], img[ib] = ib, ia
    return Transformation(space, tuple(img))


def _dice():
    rows = []
    space = Space(tuple(str(i) for i in range(1, 7)))
    for p in (F(0), F(1, 12), F(1, 6), F(1, 5)):
        items = tuple((indicator(event(space, [x])), p) for x in space)
        _check(rows, f"coherent at {format_rational(p)}", is_coherent(Assessment(space, items)), p <= F(1, 6))
    return rows


def _two_elements():
    rows = []
    space = Space(("1", "2"))
    swap = monoid(space, [_transposition(space, "1", "2")])
    grid = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    i1, i2 = indicator(event(space, ["1"])), indicator(event(space, ["2"]))
    for eps in grid:
        for alpha in grid:
            model = Assessment(space, ((i1, eps * alpha), (i2, eps * (1 - alpha))))
            weak = credal_weakly_invariant(model, swap)
            strong = strongly_invariant(model, swap)
            label = f"eps={format_rational(eps)} alpha={format_rational(alpha)}"
            _check(rows, f"{label} weak", weak, alpha == F(1, 2) or eps == 0)
            _check(rows, f"{label} strong", strong, (eps, alpha) == (F(1), F(1, 2)))
    return rows


def _six_elements():
    rows = []
    space = Space(tuple(str(i) for i in range(1, 7)))
    gens = [
        _transposition(space, "1", "3"),
        _transposition(space, "3", "5"),
        _transposition(space, "2", "4"),
        _transposition(space, "4", "6"),
    ]
    even_odd = monoid(space, gens)
    vacuous = Assessment.vacuous(space)
    probe = gamble(space, [6, -3, 0, 5, 2, -1])
    expected = min(
        sum(probe.values[i] for i in (0, 2, 4)) / 3,
        sum(probe.values[i] for i in (1, 3, 5)) / 3,
    )
    _check(rows, "odd/even atom-mean minimum", strongly_invariant_natex(vacuous, even_odd, probe), expected)
    uniform = Assessment.from_prevision(space, [F(1, 6)] * 6)
    _check(rows, "uniform strongly invariant", strongly_invariant(uniform, even_odd), True)
    return rows


def _not_directed():
    rows = []
    space = Space(("1", "2", "3"))
    t1 = Transformation(space, (0, 1, 1))
    t2 = Transformation(space, (0, 2, 2))
    mon = monoid(space, [t1, t2])
    _check(rows, "closure size", len(mon.closure), 3)
    _check(
        rows,
        "unique invariant prevision",
        sorted(invariant_polytope_vertices(mon)),
        [(F(1), F(0), F(0))],
    )
    vacuous = Assessment.vacuous(space)
    probe = gamble(space, [2, 7, -3])
    expected = min(probe.values[0], max(probe.values[1], probe.values[2]))
    _check(rows, "mixture formula", mixture_lower_prevision(vacuous, mon, probe, 2), expected)
    return rows


def _four_elements():
    rows = []
    space = Space(("1", "2", "3", "4"))
    pi = Transformation(space, (1, 0, 3, 2))
    mon = monoid(space, [pi])
    vacuous = Assessment.vacuous(space)
    f1 = gamble(space, [0, -1, 1, -1])
    f2 = gamble(space, [F(-1), F(-1, 4), F(-3, 2), F(0)])

    def ext(f):
        return strongly_invariant_natex(vacuous, mon, f)

    _check(rows, "E(f1 meet f2) + E(f1 join f2)", ext(f1.meet(f2)) + ext(f1.join(f2)), F(-11, 8))
    _check(rows, "E(f1) + E(f2)", ext(f1) + ext(f2), F(-5, 4))
    return rows


def _quadratic():
    rows = []
    trunc = 10_000
    blocks = quadratic_event(trunc)
    _check(rows, "windowed lower value", lnex_theta(blocks, 50).value, F(0))
    _check(rows, "windowed upper value", unex_theta(blocks, 50).value, F(1))
    for m in (2, 10, 90):
        _check(rows, f"S_(m^2-1) at m={m}", cesaro_mean(blocks, m * m - 1), F(m, 2 * (m + 1)))
    return rows


def _residue():
    rows = []
    trunc = 100_000
    comp = residue_counterexample_event(5, trunc)
    for m in (1, 2, 10, 33):
        _check(rows, f"residue estimate at m={m}", residue_estimate(comp, m), F(0))
    for n in (3, 10, 50):
        ok = window_inf_mean(comp, n) >= F(2, 3)
        _check(rows, f"window mean bound at n={n}", ok, True)
    return rows


def _three_elements():
    rows = []
    space = Space(("1", "2", "3"))
    pairs = ((0, 1), (1, 2), (2, 0))

    def mixture(ms, f):
        m1, m2, m3, m4 = ms
        v = f.values
        return (
            m1 * (v[0] + v[1] + v[2]) / 3
            + m2 * sum(min(v[a], v[b]) for a, b in pairs) / 3
            + m3 * min((v[a] + v[b]) / 2 for a, b in pairs)
            + m4 * min(v)
        )

    import itertools

    from .invariance import credal_weakly_invariant

    group = monoid(
        space, [_transposition(space, "1", "2"), Transformation(space, (1, 2, 0))]
    )
    ms = (F(1, 2), F(1, 4), F(1, 8), F(1, 8))
    items = []
    for r in (1, 2):
        for combo in itertools.combinations(space.outcomes, r):
            ind = indicator(event(space, combo))
            items.append((ind, mixture(ms, ind)))
    model = Assessment(space, tuple(items))
    _check(rows, "symmetric mixture weakly invariant", credal_weakly_invariant(model, group), True)
    probe = gamble(space, [5, -1, 2])
    _check(rows, "event model extends to the mixture", natural_extension(model, probe), mixture(ms, probe))
    return rows


def _possibility():
    rows = []
    space = Space(("1", "2", "3", "4"))
    group = monoid(
        space, [_transposition(space, "1", "2"), _transposition(space, "3", "4")]
    )
    atoms = invariant_atoms(group)
    _check(rows, "invariant atoms", atoms.partition, (("1", "2"), ("3", "4")))
    ones = gamble(space, [1, 1, 1, 1])
    vacuous = Assessment.vacuous(space)
    import itertools

    all_agree = all(
        possibility_upper(ones, Event(space, frozenset(combo)))
        == upper_extension(vacuous, indicator(Event(space, frozenset(combo))))
        for r in range(space.size + 1)
        for combo in itertools.combinations(space.outcomes, r)
    )
    _check(rows, "unit distribution is the vacuous upper", all_agree, True)

    def invariant_under_group(lam):
        return all(
            possibility_upper(lam, Event(space, frozenset(combo)))
            == possibility_upper(lam, t.preimage(Event(space, frozenset(combo))))
            for r in range(space.size + 1)
            for combo in itertools.combinations(space.outcomes, r)
            for t in group.generators
        )

    flat = gamble(space, [1, 1, F(1, 2), F(1, 2)])
    tilted = gamble(space, [1, F(1, 2), 1, 1])
    _check(rows, "atom-constant distribution invariant", invariant_under_group(flat), True)
    _check(rows, "atom-splitting distribution not invariant", invariant_under_group(tilted), False)
    return rows


def _urn():
    rows = []
    full = CategorySpace(2, 3)
    prior = Assessment.from_prevision(full.count_space, [F(1, 4)] * 4)
    rest = CategorySpace(2, 2)
    next_is_one = Gamble(
        rest.space, tuple(F(1) if seq[0] == 1 else F(0) for seq in rest.sequences)
    )
    _check(rows, "posterior next-is-type-1", predictive_update(prior, full, (1,), next_is_one), F(2, 3))
    return rows


_CASES = {
    "dice": _dice,
    "two-elements": _two_elements,
    "six-elements": _six_elements,
    "not-directed": _not_directed,
    "three-elements": _three_elements,
    "possibility": _possibility,
    "four-elements": _four_elements,
    "quadratic": _quadratic,
    "residue": _residue,
    "urn": _urn,
}


def names():
    return sorted(_CASES)


def run(name: str):
    if name not in _CASES:
        raise LowPrevError(f"unknown example {name!r}; known: {', '.join(names())}")
    return _CASES[name]()
