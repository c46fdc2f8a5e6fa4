"""JSON schemas for models, gambles, monoids, sequence gambles and scenarios.

All rationals travel as strings like ``"1/6"`` or ``"-2"``.  Parsers
report the JSON path of the offending fragment in every error.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Gamble, Space, Transformation
from .errors import ValidationError
from .exchange import CategorySpace
from .previsions import Assessment
from .rationals import parse_rational
from .shift import Convergent, EventuallyPeriodic, FinSupport, NatGamble, Truncated
from .choquet import SetFunction
from .transforms import TransformationMonoid, monoid


def _expect(cond, path, message):
    if not cond:
        raise ValidationError(path, message)


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``false`` load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _rational(value, path) -> Fraction:
    _expect(isinstance(value, str), path, f"expected a rational string, got {value!r}")
    return parse_rational(value, path)


def _rational_list(values, path):
    _expect(isinstance(values, list), path, "expected a list of rational strings")
    return [_rational(v, f"{path}[{i}]") for i, v in enumerate(values)]


def parse_space(doc, path="space") -> Space:
    _expect(isinstance(doc, list) and doc, path, "expected a nonempty list of labels")
    labels = [str(x) for x in doc]
    _expect(len(set(labels)) == len(labels), path, "outcome labels must be distinct")
    return Space(tuple(labels))


def parse_gamble(doc, space: Space, path="gamble") -> Gamble:
    _expect(isinstance(doc, dict) and "values" in doc, path, 'expected {"values": [...]}')
    values = _rational_list(doc["values"], f"{path}.values")
    _expect(
        len(values) == space.size,
        f"{path}.values",
        f"expected {space.size} values, got {len(values)}",
    )
    return Gamble(space, tuple(values))


def parse_event(doc, space: Space, path="event"):
    _expect(isinstance(doc, list), path, "expected a list of outcome labels")
    labels = [str(x) for x in doc]
    for i, x in enumerate(labels):
        _expect(x in space.outcomes, f"{path}[{i}]", f"unknown outcome {x!r}")
    return frozenset(labels)


def parse_transformation(doc, space: Space, path="transformation") -> Transformation:
    _expect(isinstance(doc, dict) and "map" in doc, path, 'expected {"map": [...]}')
    image = doc["map"]
    _expect(isinstance(image, list), f"{path}.map", "expected a list of indices")
    _expect(
        len(image) == space.size,
        f"{path}.map",
        f"expected {space.size} indices, got {len(image)}",
    )
    for i, j in enumerate(image):
        _expect(
            _is_int(j) and 0 <= j < space.size,
            f"{path}.map[{i}]",
            f"index {j!r} outside 0..{space.size - 1}",
        )
    return Transformation(space, tuple(image))


def parse_assessment(doc, path="") -> Assessment:
    prefix = f"{path}." if path else ""
    _expect(isinstance(doc, dict), path or "model", "expected an object")
    _expect("space" in doc, f"{prefix}space", "missing space")
    space = parse_space(doc["space"], f"{prefix}space")
    items_doc = doc.get("items", [])
    _expect(isinstance(items_doc, list), f"{prefix}items", "expected a list of items")
    items = []
    for i, item in enumerate(items_doc):
        ipath = f"{prefix}items[{i}]"
        _expect(
            isinstance(item, dict) and "gamble" in item and "lower" in item,
            ipath,
            'expected {"gamble": {...}, "lower": "p/q"}',
        )
        g = parse_gamble(item["gamble"], space, f"{ipath}.gamble")
        b = _rational(item["lower"], f"{ipath}.lower")
        items.append((g, b))
    return Assessment(space, tuple(items))


def parse_monoid(doc, space: Space, path="monoid") -> TransformationMonoid:
    _expect(
        isinstance(doc, dict) and "generators" in doc,
        path,
        'expected {"generators": [...]}',
    )
    gens_doc = doc["generators"]
    _expect(isinstance(gens_doc, list), f"{path}.generators", "expected a list")
    gens = [
        parse_transformation(g, space, f"{path}.generators[{i}]")
        for i, g in enumerate(gens_doc)
    ]
    return monoid(space, gens)


def parse_natgamble(doc, path="natgamble") -> NatGamble:
    _expect(isinstance(doc, dict) and "kind" in doc, path, 'expected {"kind": ...}')
    kind = doc["kind"]
    if kind == "finite_support":
        return FinSupport(tuple(_rational_list(doc.get("values", []), f"{path}.values")))
    if kind == "convergent":
        return Convergent(
            tuple(_rational_list(doc.get("prefix", []), f"{path}.prefix")),
            _rational(doc.get("limit", "0"), f"{path}.limit"),
        )
    if kind == "eventually_periodic":
        cycle = _rational_list(doc.get("cycle", []), f"{path}.cycle")
        _expect(bool(cycle), f"{path}.cycle", "cycle must be nonempty")
        return EventuallyPeriodic(
            tuple(_rational_list(doc.get("prefix", []), f"{path}.prefix")),
            tuple(cycle),
        )
    if kind == "truncated":
        window = _rational_list(doc.get("window", []), f"{path}.window")
        _expect(bool(window), f"{path}.window", "window must be nonempty")
        lo = _rational(doc.get("lo", "0"), f"{path}.lo")
        hi = _rational(doc.get("hi", "1"), f"{path}.hi")
        try:
            return Truncated(tuple(window), lo, hi)
        except ValueError as exc:  # an entry outside [lo, hi]
            raise ValidationError(f"{path}.window", str(exc)) from None
    raise ValidationError(f"{path}.kind", f"unknown sequence gamble kind {kind!r}")


def parse_setfunction(doc, path="setfunction") -> SetFunction:
    _expect(
        isinstance(doc, dict) and "events" in doc and "values" in doc,
        path,
        'expected {"events": [...], "values": [...]}',
    )
    events = doc["events"]
    _expect(
        isinstance(events, list) and events, f"{path}.events", "expected a nonempty list of events"
    )
    values = _rational_list(doc["values"], f"{path}.values")
    _expect(
        len(values) == len(events),
        f"{path}.values",
        f"expected {len(events)} values, got {len(values)}",
    )
    if "space" in doc:
        space = parse_space(doc["space"], f"{path}.space")
    else:
        # canonical order from the largest listed event (the whole space)
        for i, ev in enumerate(events):
            _expect(isinstance(ev, list), f"{path}.events[{i}]", "expected a list of labels")
        space = parse_space(max(events, key=len), f"{path}.events")
    table = {}
    for i, ev in enumerate(events):
        members = parse_event(ev, space, f"{path}.events[{i}]")
        _expect(members not in table, f"{path}.events[{i}]", "event listed twice")
        table[members] = values[i]
    try:
        return SetFunction(space, tuple(table.items()))
    except ValueError as exc:
        raise ValidationError(f"{path}.events", str(exc)) from None


def parse_scenario(doc, path="scenario"):
    """Exchange update scenario: prior on urn compositions plus a query."""
    _expect(isinstance(doc, dict), path, "expected an object")
    for key in ("kappa", "n_star", "observed", "count_prior", "query_gamble"):
        _expect(key in doc, f"{path}.{key}", "missing field")
    kappa, n_star = doc["kappa"], doc["n_star"]
    _expect(_is_int(kappa) and kappa >= 2, f"{path}.kappa", "kappa must be an int >= 2")
    _expect(_is_int(n_star) and n_star >= 1, f"{path}.n_star", "n_star must be an int >= 1")
    full = CategorySpace(kappa, n_star)
    observed = doc["observed"]
    _expect(
        isinstance(observed, list) and 0 < len(observed) < n_star,
        f"{path}.observed",
        "observed must be a nonempty proper prefix of the variables",
    )
    for i, v in enumerate(observed):
        _expect(
            _is_int(v) and 1 <= v <= kappa,
            f"{path}.observed[{i}]",
            f"category {v!r} outside 1..{kappa}",
        )
    prior_doc = dict(doc["count_prior"])
    prior_doc.setdefault("space", list(full.count_space.outcomes))
    prior = parse_assessment(prior_doc, f"{path}.count_prior")
    _expect(
        prior.space == full.count_space,
        f"{path}.count_prior.space",
        f"count prior must live on {list(full.count_space.outcomes)}",
    )
    rest = CategorySpace(kappa, n_star - len(observed))
    query = parse_gamble(doc["query_gamble"], rest.space, f"{path}.query_gamble")
    return full, tuple(observed), prior, query


def detect_and_parse(doc):
    """Classify a document against the known schemas and parse it.

    Bare gamble and monoid fragments have no space of their own; their
    scalar content is still validated (lengths are checked against the
    model by the command that consumes them).
    """
    if isinstance(doc, dict):
        if "count_prior" in doc:
            return "scenario", parse_scenario(doc)
        if "space" in doc and "items" in doc:
            return "assessment", parse_assessment(doc)
        if "kind" in doc:
            return "natgamble", parse_natgamble(doc)
        if "events" in doc:
            return "setfunction", parse_setfunction(doc)
        if "generators" in doc:
            gens = doc["generators"]
            _expect(isinstance(gens, list), "generators", "expected a list")
            for i, g in enumerate(gens):
                _expect(
                    isinstance(g, dict) and isinstance(g.get("map"), list),
                    f"generators[{i}]",
                    'expected {"map": [...]}',
                )
                for j, v in enumerate(g["map"]):
                    _expect(
                        _is_int(v) and v >= 0,
                        f"generators[{i}].map[{j}]",
                        f"index {v!r} is not a non-negative integer",
                    )
            return "monoid-fragment", None
        if "values" in doc:
            return "gamble-fragment", _rational_list(doc["values"], "values")
    raise ValidationError("", "unrecognised document shape")
