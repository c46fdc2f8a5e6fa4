"""Shift-invariant lower previsions on bounded sequences over the naturals.

Four finitely described sequence classes are supported.  On the three
structured classes (finite support, eventually constant, eventually
periodic) the smallest strongly shift-invariant lower prevision, its
conjugate upper, and the limiting-relative-frequency functionals are all
computed exactly.  Truncated windows get honest estimates that carry the
window length and truncation actually used and never claim exactness.

The same machinery characterises strong invariance under a single
transformation of a finite space: powers of a finite map are eventually
periodic, so the sequence n -> P(lift(T^n, g)) is eventually periodic for
every prevision P, and its exact shift value can be taken as an
independent cross-check of the strongly invariant natural extension.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import ceil, floor, isqrt, lcm
from typing import Union

from .core import Gamble, Transformation, identity, lift
from .previsions import Assessment, natural_extension
from .rationals import frac

ZERO = Fraction(0)

DEFAULT_N_MAX = 50  # window length of the windowed functionals
DEFAULT_M_MAX = 100  # modulus of the residue-set estimate on a truncation


@dataclass(frozen=True)
class FinSupport:
    """Zero outside finitely many positions."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(frac(v) for v in self.values))

    def at(self, n: int) -> Fraction:
        return self.values[n] if n < len(self.values) else ZERO


@dataclass(frozen=True)
class Convergent:
    """Equal to ``limit`` beyond a finite prefix."""

    prefix: tuple[Fraction, ...]
    limit: Fraction

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(frac(v) for v in self.prefix))
        object.__setattr__(self, "limit", frac(self.limit))

    def at(self, n: int) -> Fraction:
        return self.prefix[n] if n < len(self.prefix) else self.limit


@dataclass(frozen=True)
class EventuallyPeriodic:
    """Cycles forever after a finite prefix."""

    prefix: tuple[Fraction, ...]
    cycle: tuple[Fraction, ...]

    def __post_init__(self):
        cyc = tuple(frac(v) for v in self.cycle)
        if not cyc:
            raise ValueError("cycle must be nonempty")
        object.__setattr__(self, "prefix", tuple(frac(v) for v in self.prefix))
        object.__setattr__(self, "cycle", cyc)

    def at(self, n: int) -> Fraction:
        if n < len(self.prefix):
            return self.prefix[n]
        return self.cycle[(n - len(self.prefix)) % len(self.cycle)]

    def cycle_mean(self) -> Fraction:
        return sum(self.cycle) / len(self.cycle)


@dataclass(frozen=True, init=False)
class Truncated:
    """Known only on an initial window, with global bounds lo <= f <= hi.

    The window is stored once, as integers over one denominator: entry k is
    ``ints[k] / scale``, where ``scale`` is the lcm of the entries'
    denominators in lowest terms, so equal windows give equal objects.
    Every scan works on this form; ``at`` and ``window`` give exact
    Fractions back.
    """

    ints: tuple[int, ...]
    scale: int
    lo: Fraction
    hi: Fraction

    def __init__(self, window, lo, hi):
        values = [v if type(v) is int else frac(v) for v in window]
        lo, hi = frac(lo), frac(hi)
        if not values:
            raise ValueError("truncated window must be nonempty")
        scale = lcm(*{v.denominator for v in values})
        ints = tuple(v.numerator * (scale // v.denominator) for v in values)
        if min(ints) < ceil(lo * scale) or max(ints) > floor(hi * scale):
            raise ValueError("window values must lie within [lo, hi]")
        _set_truncated(self, ints, scale, lo, hi)

    @property
    def window(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.scale) for v in self.ints)

    def at(self, n: int) -> Fraction:
        if n >= len(self.ints):
            raise IndexError(f"position {n} beyond truncation {len(self.ints)}")
        return Fraction(self.ints[n], self.scale)


def _set_truncated(f: Truncated, ints, scale, lo, hi) -> Truncated:
    for name, value in (("ints", ints), ("scale", scale), ("lo", lo), ("hi", hi)):
        object.__setattr__(f, name, value)
    return f


NatGamble = Union[FinSupport, Convergent, EventuallyPeriodic, Truncated]


@dataclass(frozen=True)
class ShiftValue:
    """A functional value plus honesty flags for truncated inputs.

    ``exact`` is True only on the structured classes.  For windowed
    estimates, ``window_length`` is the window length (or modulus) at
    which the reported value was attained and ``truncation_used`` the
    length of data consulted.
    """

    value: Fraction
    exact: bool
    window_length: int | None = None
    truncation_used: int | None = None


def negate(f: NatGamble) -> NatGamble:
    if isinstance(f, FinSupport):
        return FinSupport(tuple(-v for v in f.values))
    if isinstance(f, Convergent):
        return Convergent(tuple(-v for v in f.prefix), -f.limit)
    if isinstance(f, EventuallyPeriodic):
        return EventuallyPeriodic(tuple(-v for v in f.prefix), tuple(-v for v in f.cycle))
    negated = object.__new__(Truncated)
    return _set_truncated(negated, tuple(-v for v in f.ints), f.scale, -f.hi, -f.lo)


# --- eventually periodic arithmetic (closed and exact) ----------------------

def as_eventually_periodic(f: NatGamble) -> EventuallyPeriodic:
    if isinstance(f, EventuallyPeriodic):
        return f
    if isinstance(f, FinSupport):
        return EventuallyPeriodic(f.values, (ZERO,))
    if isinstance(f, Convergent):
        return EventuallyPeriodic(f.prefix, (f.limit,))
    raise TypeError("a truncated window has no exact eventually periodic form")


def _pointwise(op, f: EventuallyPeriodic, g: EventuallyPeriodic) -> EventuallyPeriodic:
    """``op`` applied entrywise, on a common prefix length and period."""
    pre = max(len(f.prefix), len(g.prefix))
    end = pre + lcm(len(f.cycle), len(g.cycle))
    return EventuallyPeriodic(
        tuple(op(f.at(n), g.at(n)) for n in range(pre)),
        tuple(op(f.at(n), g.at(n)) for n in range(pre, end)),
    )


def ep_add(f: EventuallyPeriodic, g: EventuallyPeriodic) -> EventuallyPeriodic:
    return _pointwise(operator.add, f, g)


def ep_sub(f: EventuallyPeriodic, g: EventuallyPeriodic) -> EventuallyPeriodic:
    return _pointwise(operator.sub, f, g)


def ep_min(f: EventuallyPeriodic, g: EventuallyPeriodic) -> EventuallyPeriodic:
    return _pointwise(min, f, g)


def ep_shift(f: EventuallyPeriodic) -> EventuallyPeriodic:
    """Drop the first entry: n -> f(n + 1)."""
    if f.prefix:
        return EventuallyPeriodic(f.prefix[1:], f.cycle)
    return EventuallyPeriodic((), f.cycle[1:] + f.cycle[:1])


def ep_liminf(f: EventuallyPeriodic) -> Fraction:
    return min(f.cycle)


def ep_limsup(f: EventuallyPeriodic) -> Fraction:
    return max(f.cycle)


# --- windowed scans on truncations ------------------------------------------

def window_inf_mean(f: Truncated, n: int) -> Fraction:
    """inf over start positions of the length-n window mean, on the data."""
    if n < 1 or n > len(f.ints):
        raise ValueError(f"window length {n} outside the truncation")
    pref = [0, *accumulate(f.ints)]
    return Fraction(min(map(operator.sub, pref[n:], pref)), n * f.scale)


def window_sup_mean(f: Truncated, n: int) -> Fraction:
    return -window_inf_mean(negate(f), n)


def _windowed_lnex(f: Truncated, n_max: int) -> ShiftValue:
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    pref = [0, *accumulate(f.ints)]
    best_value, best_n = None, None
    for n in range(1, min(n_max, len(f.ints)) + 1):
        value = Fraction(min(map(operator.sub, pref[n:], pref)), n * f.scale)
        if best_value is None or value > best_value:
            best_value, best_n = value, n
    return ShiftValue(best_value, False, best_n, len(f.ints))


def lnex_theta(f: NatGamble, n_max: int = DEFAULT_N_MAX) -> ShiftValue:
    """Smallest strongly shift-invariant coherent lower prevision.

    Exact on the structured classes: finite support gives 0, an eventually
    constant sequence its limit, an eventually periodic one its cycle
    mean.  On a truncation: the best over window lengths n <= n_max of the
    worst length-n window mean within the data, flagged inexact.
    """
    if not isinstance(f, Truncated):
        return ShiftValue(as_eventually_periodic(f).cycle_mean(), True)
    return _windowed_lnex(f, n_max)


def unex_theta(f: NatGamble, n_max: int = DEFAULT_N_MAX) -> ShiftValue:
    """Conjugate upper value: -lnex_theta(-f)."""
    inner = lnex_theta(negate(f), n_max)
    return ShiftValue(-inner.value, inner.exact, inner.window_length, inner.truncation_used)


def cesaro_mean(f: NatGamble, n: int) -> Fraction:
    """S_n: the average of f over positions 0..n-1."""
    if n < 1:
        raise ValueError("Cesaro mean needs n >= 1")
    if isinstance(f, Truncated):
        if n > len(f.ints):
            raise IndexError(f"n={n} beyond truncation {len(f.ints)}")
        return Fraction(sum(f.ints[:n]), n * f.scale)
    return sum(f.at(i) for i in range(n)) / n


def lsamp_theta(f: NatGamble, tail_from: int | None = None) -> ShiftValue:
    """Limit inferior of the Cesaro means S_n.

    Exact cycle mean for the structured classes.  On a truncation the
    estimate is the minimum of S_n over a tail range of n, by default the
    second half of the data.
    """
    if not isinstance(f, Truncated):
        return ShiftValue(as_eventually_periodic(f).cycle_mean(), True)
    pref = [0, *accumulate(f.ints)]
    total = len(f.ints)
    start = max(1, total // 2) if tail_from is None else max(1, tail_from)
    if start > total:
        raise ValueError(f"tail_from={tail_from} beyond truncation {total}")
    best_n = start
    for n in range(start + 1, total + 1):
        if pref[n] * best_n < pref[best_n] * n:
            best_n = n
    return ShiftValue(Fraction(pref[best_n], best_n * f.scale), False, best_n, total)


def usamp_theta(f: NatGamble, tail_from: int | None = None) -> ShiftValue:
    inner = lsamp_theta(negate(f), tail_from)
    return ShiftValue(-inner.value, inner.exact, inner.window_length, inner.truncation_used)


# --- residue-set natural extension ------------------------------------------

def residue_estimate(f: Truncated, modulus: int) -> Fraction:
    """(1/m) sum over residues r of the infimum of f over class r, on the data.

    The infimum over a class on the data is at least the infimum over the
    whole class, so the estimate is an upper bound of the untruncated
    per-class average; it equals that average once every class attains its
    infimum inside the window.  A modulus beyond the window length would
    leave a class with no data, so it is refused.
    """
    ints = f.ints
    if modulus < 1 or modulus > len(ints):
        raise ValueError(f"modulus {modulus} outside the truncation")
    bound = ceil(f.lo * f.scale)  # the least value an entry can take
    total = 0
    for r in range(modulus):
        worst = None
        for pos in range(r, len(ints), modulus):
            v = ints[pos]
            if worst is None or v < worst:
                worst = v
                if worst == bound:
                    break  # cannot go lower: lo is a global bound
        total += worst
    return Fraction(total, modulus * f.scale)


def lnex_res(f: NatGamble, m_max: int = DEFAULT_M_MAX) -> ShiftValue:
    """Natural extension of the residue-set assessments.

    The assessments give every arithmetic progression with modulus m the
    lower probability 1/m; their natural extension is the limit over ever
    finer moduli of the average per-class infimum.  Exact values: 0 for
    finite support, the limit for an eventually constant sequence, the
    cycle mean for an eventually periodic one (the estimates increase
    along the divisibility ordering of the modulus towards that value).
    On a truncation, the estimate at modulus m_max is reported.
    """
    if not isinstance(f, Truncated):
        return ShiftValue(as_eventually_periodic(f).cycle_mean(), True)
    return ShiftValue(residue_estimate(f, m_max), False, m_max, len(f.ints))


# --- the two worked sequence events -----------------------------------------

def quadratic_event(truncation: int) -> Truncated:
    """Indicator of {n^2 + k : n >= 1, 0 <= k <= n - 1}, truncated.

    Runs of n ones starting at each perfect square n^2, separated by ever
    longer gaps; the limiting relative frequency is 1/2 while the windowed
    shift bounds are 0 and 1.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    window = []
    for p in range(truncation):
        s = isqrt(p)
        window.append(1 if s >= 1 and p <= s * s + s - 1 else 0)
    return Truncated(window, 0, 1)


def residue_image_positions(spread: int, truncation: int) -> list[int]:
    """Positions below the truncation excluded from the counterexample set.

    Image of (m, r) -> spread*m*(m*(m-1)/2 + r + 1) + r over m >= 1,
    0 <= r < m; consecutive image points differ by at least ``spread`` and
    the point for (m, r) is congruent to r modulo m.
    """
    out = []
    m = 1
    while True:
        base = m * (m - 1) // 2
        first = spread * m * (base + 1)
        if first >= truncation and m > 1:
            break
        for r in range(m):
            pos = spread * m * (base + r + 1) + r
            if pos < truncation:
                out.append(pos)
        m += 1
    return sorted(set(out))


def residue_counterexample_event(spread: int, truncation: int) -> Truncated:
    """Indicator of the complement of the image set, truncated.

    Every residue class eventually meets the image, so the residue-set
    natural extension of this event is 0 in the limit, yet every long
    window misses at most one point in ``spread``, so the shift-invariant
    natural extension is at least 1 - 2/(spread + 1).

    The witness for class r modulo m is the excluded position
    spread*m*(m*(m-1)/2 + r + 1) + r.  A truncation of at least
    spread*M*(M*(M-1)/2 + M) + M therefore holds a witness for every class
    of every modulus m <= M, and ``residue_estimate`` is 0 there for each
    such m; on a shorter truncation it can be positive.  A window of length
    n holds at most ceil(n/spread) excluded points, so every window of
    length at least (spread + 1)/2 has mean at least 1 - 2/(spread + 1);
    a shorter one (length 1 or 2 when spread is 5) can sit on an excluded
    point and fall below it.
    """
    if spread < 2:
        raise ValueError("spread must be >= 2")
    window = [1] * truncation
    for pos in residue_image_positions(spread, truncation):
        window[pos] = 0
    return Truncated(window, 0, 1)


# --- powers of a finite map and the Banach-limit cross-check -----------------

def power_orbit(t: Transformation):
    """Preperiod and cycle of the sequence of powers of a finite map.

    Returns (powers, preperiod, cycle_length) where ``powers`` lists
    t^0 .. t^(preperiod + cycle_length - 1).
    """
    powers = [identity(t.space)]
    seen = {powers[0].image: 0}
    while True:
        nxt = t.compose(powers[-1])
        if nxt.image in seen:
            start = seen[nxt.image]
            return powers, start, len(powers) - start
        seen[nxt.image] = len(powers)
        powers.append(nxt)


def prevision_power_sequence(point, t: Transformation, g: Gamble) -> EventuallyPeriodic:
    """The eventually periodic sequence n -> P(lift(T^n, g)) for a mass function."""
    powers, start, cyclen = power_orbit(t)
    values = [
        sum(p * v for p, v in zip(point, lift(w, g).values)) for w in powers
    ]
    return EventuallyPeriodic(tuple(values[:start]), tuple(values[start:start + cyclen]))


def banach_crosscheck(assessment: Assessment, t: Transformation, g: Gamble) -> Fraction:
    """Strong T-invariant natural extension via shift values of power sequences.

    For every prevision P the shift value of n -> P(lift(T^n, g)) is its
    cycle mean P(g_bar), with g_bar the mean of the lifts over the cycle of
    T's powers; the minimum over the credal set is the natural extension of
    g_bar.  It equals the strongly T-invariant natural extension whenever
    the assessment is weakly T-invariant and invariant dominators exist.
    """
    powers, start, cyclen = power_orbit(t)
    lifts = [lift(w, g).values for w in powers[start:]]
    g_bar = Gamble(g.space, tuple(sum(column) / cyclen for column in zip(*lifts)))
    return natural_extension(assessment, g_bar)
