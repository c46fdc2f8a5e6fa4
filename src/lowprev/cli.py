"""Batch command-line front end.

Loads models from JSON files, runs one check or extension, and prints a
single machine-readable report on standard output.  Reports are
deterministic: identical inputs produce byte-identical output.  Exit
codes: 0 success, 1 parse or schema error, 2 precondition violated (sure
loss, no invariant dominator, zero-probability observation, caps).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from . import examples as worked
from .errors import (
    CapExceededError,
    LowPrevError,
    NoInvariantDominatorError,
    NotAGroupError,
    PositivityError,
    SureLossError,
    TruncatedClosureError,
    ValidationError,
)
from .invariance import (
    credal_weakly_invariant,
    invariance_report,
    mixture_lower_prevision,
    strongly_invariant,
    strongly_invariant_natex,
)
from .jsonio import (
    detect_and_parse,
    parse_assessment,
    parse_gamble,
    parse_monoid,
    parse_natgamble,
    parse_setfunction,
    parse_scenario,
)
from .previsions import avoids_sure_loss, credal_vertices, is_coherent, natural_extension
from .shift import DEFAULT_M_MAX, DEFAULT_N_MAX, Truncated
from .shift import lnex_res, lnex_theta, lsamp_theta, unex_theta
from .exchange import update_counts, count_gamble, counting_map, CategorySpace
from .choquet import choquet_integral, inner_extension

def report_rational(value: Fraction) -> str:
    """Reports always carry the explicit p/q form, "1/6" or "4/1"."""
    return f"{value.numerator}/{value.denominator}"


DECIMAL_CAP = 100  # most digits --decimal may ask for


def report_decimal(value: Fraction, digits: int) -> str:
    """``value`` to ``digits`` places, rounded half to even from the exact value."""
    text = str(round(abs(value) * 10**digits)).rjust(digits + 1, "0")
    sign = "-" if value < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else sign + text


PRECONDITION_ERRORS = (
    SureLossError,
    NoInvariantDominatorError,
    PositivityError,
    CapExceededError,
    NotAGroupError,
    TruncatedClosureError,
)


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ValidationError(path, "file not found")
    except OSError as exc:
        raise ValidationError(path, f"cannot read file: {exc.strerror}")
    except UnicodeDecodeError:
        raise ValidationError(path, "not UTF-8 text")
    except json.JSONDecodeError as exc:
        raise ValidationError(path, f"invalid JSON at line {exc.lineno} column {exc.colno}")


class Report:
    def __init__(self, command: str | None):
        self.command = command
        self.inputs: dict[str, str] = {}
        self.result = None
        self.exact = True
        self.diagnostics: list[str] = []

    def read(self, path: str):
        doc = _load(path)
        self.inputs[path] = _digest(path)
        return doc

    def rational(self, value: Fraction, decimal: int | None):
        out = {"kind": "rational", "value": report_rational(value)}
        if decimal is not None:
            out["decimal"] = report_decimal(value, decimal)
        self.result = out

    def boolean(self, value: bool):
        self.result = {"kind": "bool", "value": bool(value)}

    def table(self, rows):
        self.result = {"kind": "table", "rows": rows}

    def witness(self, payload):
        self.result = {"kind": "witness", **payload}

    def emit(self, code: int) -> int:
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "exact": self.exact,
            "diagnostics": self.diagnostics,
        }
        if code == 0:
            payload["result"] = self.result
        sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        return code


def _fmt_point(point):
    return [report_rational(v) for v in point]


# --- subcommand bodies -------------------------------------------------------

def _cmd_asl(args, report: Report) -> int:
    model = parse_assessment(report.read(args.model))
    report.boolean(avoids_sure_loss(model))
    return report.emit(0)


def _cmd_coherence(args, report: Report) -> int:
    model = parse_assessment(report.read(args.model))
    report.boolean(is_coherent(model))
    return report.emit(0)


def _cmd_natex(args, report: Report) -> int:
    model = parse_assessment(report.read(args.model))
    g = parse_gamble(report.read(args.gamble), model.space)
    report.rational(natural_extension(model, g), args.decimal)
    return report.emit(0)


def _cmd_vertices(args, report: Report) -> int:
    model = parse_assessment(report.read(args.model))
    vertices = sorted(credal_vertices(model))
    report.table([_fmt_point(v) for v in vertices])
    return report.emit(0)


def _cmd_invariance(args, report: Report) -> int:
    model = parse_assessment(report.read(args.model))
    mon = parse_monoid(report.read(args.monoid), model.space)
    if args.weak or args.strong:
        check = credal_weakly_invariant if args.weak else strongly_invariant
        try:
            report.boolean(check(model, mon))
        except SureLossError:
            raise SureLossError("credal-level invariance undefined under sure loss") from None
        return report.emit(0)
    rep = invariance_report(model, mon)
    witnesses = {
        kind: {"vertex": _fmt_point(v), "map": list(t.image)}
        for kind, (v, t) in rep.witnesses.items()
    }
    report.witness(
        {
            "weak_assessment_level": rep.weak_assessment_level,
            "weak_credal_level": rep.weak_credal_level,
            "strong": rep.strong,
            "witnesses": witnesses,
        }
    )
    if rep.weak_credal_level is None:
        report.diagnostics.append("sure loss: credal-level checks not applicable")
    return report.emit(0)


def _cmd_invnatex(args, report: Report) -> int:
    model = parse_assessment(report.read(args.model))
    mon = parse_monoid(report.read(args.monoid), model.space)
    g = parse_gamble(report.read(args.gamble), model.space)
    report.rational(strongly_invariant_natex(model, mon, g), args.decimal)
    return report.emit(0)


def _cmd_mixture(args, report: Report) -> int:
    model = parse_assessment(report.read(args.model))
    mon = parse_monoid(report.read(args.monoid), model.space)
    g = parse_gamble(report.read(args.gamble), model.space)
    if args.depth < 0:
        raise ValidationError("--depth", "word depth must be >= 0")
    report.rational(mixture_lower_prevision(model, mon, g, args.depth), args.decimal)
    report.diagnostics.append(f"depth={args.depth}")
    return report.emit(0)


def _cmd_shift(args, report: Report) -> int:
    seq = parse_natgamble(report.read(args.natgamble))
    nmax = args.nmax
    if nmax is None:
        nmax = DEFAULT_M_MAX if args.op == "lres" else DEFAULT_N_MAX
    if nmax < 1:
        raise ValidationError("--nmax", "window length or modulus must be >= 1")
    if args.trunc is not None:
        if not isinstance(seq, Truncated):
            raise ValidationError("--trunc", "only truncated gambles can be re-truncated")
        if args.trunc < 1 or args.trunc > len(seq.ints):
            raise ValidationError("--trunc", "truncation outside the available window")
        seq = Truncated([Fraction(v, seq.scale) for v in seq.ints[: args.trunc]], seq.lo, seq.hi)
    if args.op == "lnex":
        value = lnex_theta(seq, nmax)
    elif args.op == "unex":
        value = unex_theta(seq, nmax)
    elif args.op == "lsamp":
        value = lsamp_theta(seq)
    else:
        if isinstance(seq, Truncated) and nmax > len(seq.ints):
            raise ValidationError("--nmax", "modulus exceeds the truncation length")
        value = lnex_res(seq, nmax)
    report.rational(value.value, args.decimal)
    report.exact = value.exact
    if not value.exact:
        report.diagnostics.append(
            f"window_length={value.window_length} truncation_used={value.truncation_used}"
        )
    return report.emit(0)


def _cmd_exchange(args, report: Report) -> int:
    if args.action != "update":
        raise ValidationError("exchange", f"unknown action {args.action!r}")
    full, observed, prior, query = parse_scenario(report.read(args.scenario))
    rest = CategorySpace(full.kappa, full.n - len(observed))
    m = counting_map(observed, full.kappa)
    value = update_counts(prior, full, m, count_gamble(rest, query))
    report.rational(value, args.decimal)
    report.diagnostics.append(f"observed_counts={','.join(map(str, m))}")
    return report.emit(0)


def _cmd_choquet(args, report: Report) -> int:
    sfun = parse_setfunction(report.read(args.setfunction))
    g = parse_gamble(report.read(args.gamble), sfun.space)
    full = sfun if len(sfun.domain()) == 2 ** sfun.space.size else inner_extension(sfun)
    if full is not sfun:
        report.diagnostics.append("domain completed by the inner set function")
    report.rational(choquet_integral(full, g), args.decimal)
    return report.emit(0)


def _cmd_examples(args, report: Report) -> int:
    rows = worked.run(args.name)
    report.table(rows)
    return report.emit(0)


def _cmd_validate(args, report: Report) -> int:
    doc = report.read(args.file)
    kind, _parsed = detect_and_parse(doc)
    report.table({"valid": True, "schema": kind})
    return report.emit(0)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is reported as one JSON line
        raise ValidationError("", message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lowprev",
        description="Exact coherence, extension and invariance checks for lower previsions.",
    )
    parser.add_argument(
        "--decimal",
        type=int,
        default=None,
        metavar="DIGITS",
        help="add a decimal rendering next to the exact rational result",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("asl", help="does the model avoid sure loss?")
    p.add_argument("model")
    p.set_defaults(func=_cmd_asl)

    p = sub.add_parser("coherence", help="is the model coherent?")
    p.add_argument("model")
    p.set_defaults(func=_cmd_coherence)

    p = sub.add_parser("natex", help="natural extension of a gamble")
    p.add_argument("model")
    p.add_argument("--gamble", required=True)
    p.set_defaults(func=_cmd_natex)

    p = sub.add_parser("vertices", help="extreme points of the credal set")
    p.add_argument("model")
    p.set_defaults(func=_cmd_vertices)

    p = sub.add_parser("invariance", help="weak/strong invariance checks")
    p.add_argument("model")
    p.add_argument("--monoid", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--weak", action="store_true")
    group.add_argument("--strong", action="store_true")
    p.set_defaults(func=_cmd_invariance)

    p = sub.add_parser("invnatex", help="strongly invariant natural extension")
    p.add_argument("model")
    p.add_argument("--monoid", required=True)
    p.add_argument("--gamble", required=True)
    p.set_defaults(func=_cmd_invnatex)

    p = sub.add_parser("mixture", help="mixture lower prevision at a word depth")
    p.add_argument("model")
    p.add_argument("--monoid", required=True)
    p.add_argument("--gamble", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=_cmd_mixture)

    p = sub.add_parser("shift", help="shift-invariant functionals of a sequence gamble")
    p.add_argument("natgamble")
    p.add_argument("--op", choices=["lnex", "unex", "lsamp", "lres"], default="lnex")
    p.add_argument("--nmax", type=int, default=None, help="window length; for lres, the modulus")
    p.add_argument("--trunc", type=int, default=None)
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("exchange", help="exchangeable predictive updating")
    p.add_argument("action", choices=["update"])
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_exchange)

    p = sub.add_parser("choquet", help="Choquet integral of a gamble")
    p.add_argument("setfunction")
    p.add_argument("--gamble", required=True)
    p.set_defaults(func=_cmd_choquet)

    p = sub.add_parser("examples", help="replay a named worked example")
    p.add_argument("name", choices=worked.names())
    p.set_defaults(func=_cmd_examples)

    p = sub.add_parser("validate", help="schema-check a JSON document")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    report = Report(None)
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:  # -h/--help printed its usage text
            return 0
        report.command = args.subcommand
        if args.decimal is not None and args.decimal < 0:
            raise ValidationError("--decimal", "digits must be >= 0")
        if args.decimal is not None and args.decimal > DECIMAL_CAP:
            raise ValidationError("--decimal", f"digits must be <= {DECIMAL_CAP}")
        return args.func(args, report)
    except ValidationError as exc:
        report.diagnostics.append(f"parse error: {exc}")
        return report.emit(1)
    except PRECONDITION_ERRORS as exc:
        report.diagnostics.append(f"precondition violated: {exc}")
        return report.emit(2)
    except LowPrevError as exc:
        report.diagnostics.append(str(exc))
        return report.emit(2)
    except Exception as exc:  # a defect still gets one JSON line, not a traceback
        report.diagnostics.append(f"internal error: {type(exc).__name__}: {exc}")
        return report.emit(2)


if __name__ == "__main__":
    sys.exit(main())
