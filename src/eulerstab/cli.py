"""Command-line interface and serialization.

Subcommands:

* gen     - generate family polynomials
* oracle  - brute-force distribution polynomials from group enumeration
* verify  - run the verification suite (exit 1 when any check fails)
* scan    - threshold bracketing / distinct-roots region scans
* zigzag  - Euler zigzag numbers

Output formats are text, json, and csv, all produced by `emit`.  Machine
formats are byte-identical for identical argv: coefficients and rationals
are serialized as decimal strings (family coefficients overflow 64-bit
integers around rank 20), and elapsed times appear only in the text format.
JSON payloads carry a "schema": 1 version field.

Exit codes: 0 success / all checks pass, 1 verification failures, 2 usage or
domain errors.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import io
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Sequence

from .eulerian import FAMILIES, ConsistencyError, FamilyId, ZigzagTable, family_polynomial, zigzag
from .polynomial import Polynomial

# For annotations only: lab, stability and random load inside the commands
# that run them, and oracle inside the parser, so that `gen` and `zigzag`
# start without lab and stability.
if TYPE_CHECKING:
    import random
    from types import ModuleType

    from .lab import ThresholdBracket, VerificationReport

SCHEMA_VERSION = 1
FORMATS = ("text", "json", "csv")
# Lowest --n-max each verify check can run at.
_CHECK_MIN_RANK = {
    "identities": 2, "interlacing": 2, "half-reciprocal": 1, "stability": 2, "operator-symbol": 1
}
VERIFY_CHECKS = (*_CHECK_MIN_RANK, "all")
_OPERATOR_SEED = 0x0E57AB


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _parse_rational_list(text: str) -> List[Fraction]:
    values = [_parse_rational(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one rational value")
    return values


def build_parser() -> argparse.ArgumentParser:
    from . import oracle

    parser = argparse.ArgumentParser(
        prog="eulerstab",
        description="Exact Eulerian polynomial families, enumeration oracles, and stability certificates.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", dest="fmt", choices=FORMATS, default="text")

    p = sub.add_parser("gen", help="generate family polynomials")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument(
        "--roots",
        action="store_true",
        help="also print 20-digit decimal root approximations (text format only)",
    )
    add_format(p)

    p = sub.add_parser("oracle", help="brute-force distribution polynomials")
    p.add_argument("--group", required=True, choices=oracle.GROUPS)
    p.add_argument("--stat", default="des", choices=oracle.STATS)
    p.add_argument("--filter", default="all", choices=oracle.FILTERS)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET, help="enumeration budget")
    add_format(p)

    p = sub.add_parser("verify", help="run verification checks")
    p.add_argument("--check", required=True, choices=VERIFY_CHECKS)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--ks", type=_parse_rational_list, default=None, help="comma-separated rational k values")
    add_format(p)

    p = sub.add_parser("scan", help="scan conjectured stability regions")
    p.add_argument("--conjecture", required=True, choices=("stable", "distinct-roots"))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--width", type=_parse_rational, default=None, help="bracket width (default 1/10^6)")
    p.add_argument("--ks", type=_parse_rational_list, default=None)
    add_format(p)

    p = sub.add_parser("zigzag", help="Euler zigzag numbers E_0..E_n")
    p.add_argument("--n", required=True, type=int)
    add_format(p)

    return parser


# ---------------------------------------------------------------------------
# serialization


def _decimal_str(value: Fraction, digits: int = 20) -> str:
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        return str(decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator))


def polynomial_record(poly: Polynomial, **meta) -> dict:
    rec = {"schema": SCHEMA_VERSION}
    rec.update({k: v for k, v in meta.items() if v is not None})
    rec["coeffs"] = poly.coeff_strings()
    return rec


def polynomial_from_record(rec: dict) -> Polynomial:
    return Polynomial([Fraction(c) for c in rec["coeffs"]])


def report_record(report: VerificationReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "check": report.check_id,
        "rank_range": list(report.rank_range),
        "status": report.status,
        "checks": report.checks_run,
        "failures": [{"rank": rank, "description": msg} for rank, msg in report.failures],
        "observations": list(report.observations),
    }


def bracket_record(bracket: ThresholdBracket) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "conjecture": "stable",
        "n": bracket.n,
        "conjectured": str(bracket.conjectured),
        "lower": str(bracket.lower),
        "upper": str(bracket.upper),
        "width": str(bracket.width),
    }


def zigzag_record(table: ZigzagTable) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "n": len(table) - 1,
        "values": [str(v) for v in table.values],
    }


def _polynomial_text(rec: dict) -> str:
    poly = polynomial_from_record(rec)
    if "family" in rec:
        return f"{rec['family']}({rec['n']}) = {poly}"
    if "group" in rec:
        return f"{rec['group']}/{rec['stat']}/{rec['filter']}({rec['n']}) = {poly}"
    return str(poly)


def _polynomials_table(records: List[dict]):
    width = max(len(rec["coeffs"]) for rec in records)
    meta_keys = [k for k in ("family", "group", "stat", "filter", "n") if k in records[0]]
    header = meta_keys + ["degree"] + [f"c{i}" for i in range(width)]
    rows = [
        [str(rec[k]) for k in meta_keys]
        + [str(len(rec["coeffs"]) - 1)]
        + rec["coeffs"]
        + [""] * (width - len(rec["coeffs"]))
        for rec in records
    ]
    return header, rows


def _report_text(r: VerificationReport) -> str:
    lo, hi = r.rank_range
    lines = [f"{r.status.upper()} {r.checks_run} checks ({r.check_id}, ranks {lo}..{hi}) [{r.elapsed:.2f}s]"]
    lines += [f"  FAIL rank {rank}: {msg}" for rank, msg in r.failures]
    lines += [f"  note: {obs}" for obs in r.observations]
    return "\n".join(lines)


def _reports_table(reports: List[VerificationReport]):
    header = ["check", "rank_lo", "rank_hi", "status", "checks", "failures", "observations"]
    rows = [
        [
            r.check_id,
            str(r.rank_range[0]),
            str(r.rank_range[1]),
            r.status,
            str(r.checks_run),
            "; ".join(f"rank {rank}: {msg}" for rank, msg in r.failures),
            "; ".join(r.observations),
        ]
        for r in reports
    ]
    return header, rows


def _bracket_text(b: ThresholdBracket) -> str:
    return (
        f"stable-threshold n={b.n}: conjectured {b.conjectured} "
        f"(approx {_decimal_str(b.conjectured)}), bracket [{b.lower}, {b.upper}], "
        f"width {b.width} (midpoint approx {_decimal_str((b.lower + b.upper) / 2)})"
    )


def _brackets_table(brackets: List[ThresholdBracket]):
    header = ["n", "conjectured", "lower", "upper", "width"]
    rows = [[str(b.n), str(b.conjectured), str(b.lower), str(b.upper), str(b.width)] for b in brackets]
    return header, rows


def _zigzag_text(table: ZigzagTable) -> str:
    return "E_0..E_{}: {}".format(len(table) - 1, ", ".join(str(v) for v in table.values))


def _zigzags_table(tables: List[ZigzagTable]):
    header = [f"E{i}" for i in range(len(tables[0]))]
    return header, [[str(v) for v in t.values] for t in tables]


# Per kind, by class name so that emitting needs no layer the command did not
# run: (JSON record, text of one item, CSV header and rows of all items).
_KINDS = {
    "dict": (lambda rec: rec, _polynomial_text, _polynomials_table),
    "VerificationReport": (report_record, _report_text, _reports_table),
    "ThresholdBracket": (bracket_record, _bracket_text, _brackets_table),
    "ZigzagTable": (zigzag_record, _zigzag_text, _zigzags_table),
}


def emit(obj, fmt: str, *, summary: bool = False, **meta) -> str:
    """Serialize one object, or a list of objects of one kind, in `fmt`.

    Polynomials come as `polynomial_record` dicts, or as one Polynomial with
    its record fields in `meta`; the other kinds are zigzag tables,
    verification reports and threshold brackets.  A list of several items
    becomes one JSON document with an "items" array, one CSV table, or one
    text line (block, for reports) per item.  `summary` ends a text report
    list with the overall verdict and check count.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(obj, Polynomial):
        obj = polynomial_record(obj, **meta)
    items = obj if isinstance(obj, list) else [obj]
    kind = _KINDS.get(type(items[0]).__name__) if items else None
    if kind is None:
        raise TypeError(f"cannot emit {type(obj).__name__}")
    to_record, to_text, to_table = kind
    if fmt == "json":
        records = [to_record(item) for item in items]
        doc = records[0] if len(records) == 1 else {"schema": SCHEMA_VERSION, "items": records}
        return json.dumps(doc, sort_keys=True)
    if fmt == "csv":
        header, rows = to_table(items)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    text = "\n".join(to_text(item) for item in items)
    if summary:
        status = "FAIL" if _failed(items) else "PASS"
        text += f"\n{status} {sum(r.checks_run for r in items)} checks total"
    return text


# ---------------------------------------------------------------------------
# subcommands


def _ranks(ns: argparse.Namespace) -> List[int]:
    hi = ns.n if ns.n_max is None else ns.n_max
    if hi < ns.n:
        raise ValueError(f"empty rank range {ns.n}..{hi}")
    return list(range(ns.n, hi + 1))


def _failed(reports: List[VerificationReport]) -> bool:
    return any(r.status == "fail" for r in reports)


def _root_lines(poly: Polynomial) -> List[str]:
    from .stability import approximate_real_roots

    if poly.degree < 1:
        return ["  no real roots"]
    return [
        f"  real root approx {_decimal_str(mid)} (multiplicity {mult})"
        for mid, mult in approximate_real_roots(poly)
    ]


def _cmd_gen(ns: argparse.Namespace) -> tuple[str, int]:
    if ns.roots and ns.fmt != "text":
        raise ValueError("--roots is only available with the text format")
    records = []
    lines = []
    for n in _ranks(ns):
        fid = FamilyId(ns.family, n)
        poly = family_polynomial(fid)
        records.append(polynomial_record(poly, family=fid.tag, n=fid.rank))
        if ns.roots:
            lines += [emit(records[-1], "text"), *_root_lines(poly)]
    return ("\n".join(lines) if ns.roots else emit(records, ns.fmt)), 0


def _cmd_oracle(ns: argparse.Namespace) -> tuple[str, int]:
    from . import oracle

    try:
        records = [
            polynomial_record(
                oracle.distribution(ns.group, ns.stat, n, ns.filter, budget=ns.budget),
                group=ns.group,
                stat=ns.stat,
                filter=ns.filter,
                n=n,
            )
            for n in _ranks(ns)
        ]
    except oracle.BudgetExceededError as exc:
        raise ValueError(str(exc)) from exc
    return emit(records, ns.fmt), 0


def _operator_reports(
    lab: ModuleType, n: int, ks: Optional[List[Fraction]], rng: random.Random
) -> List[VerificationReport]:
    if ks is None:
        ks = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(3)]
    return [lab.operator_symbol_check(n, k) for k in ks]


# The reports of each per-rank verify check at rank n, from --ks or, when ks
# is None, from the check's own k: the default grid, or three seeded draws.
# Each takes the lab module first, which the verify command imports.
_RANK_CHECKS = {
    "interlacing": lambda lab, n, ks, rng: [lab.verify_d_affine_b(n)],
    "half-reciprocal": lambda lab, n, ks, rng: [lab.verify_half_reciprocal(n)],
    "stability": lambda lab, n, ks, rng: [
        lab.verify_family_stability(n, lab.default_k_grid(n) if ks is None else ks)
    ],
    "operator-symbol": _operator_reports,
}


def _verify_reports(ns: argparse.Namespace) -> List[VerificationReport]:
    n_max = ns.n_max
    wanted = [check for check in _CHECK_MIN_RANK if ns.check in (check, "all")]
    if ns.ks is not None and ns.check not in ("stability", "operator-symbol", "all"):
        raise ValueError(f"--ks has no effect on --check {ns.check}")
    for check in wanted:
        if n_max < _CHECK_MIN_RANK[check]:
            raise ValueError(f"check {check} needs --n-max >= {_CHECK_MIN_RANK[check]}, got {n_max}")
    import random

    from . import lab

    per_rank = {check: [] for check in wanted if check in _RANK_CHECKS}
    rng = random.Random(_OPERATOR_SEED)
    for n in range(n_max + 1):
        for check, reports in per_rank.items():
            if n >= _CHECK_MIN_RANK[check]:
                reports += _RANK_CHECKS[check](lab, n, ns.ks, rng)
    # Each merged report keeps the check id of its per-rank reports.
    return [
        lab.merge_reports(per_rank[check][0].check_id, per_rank[check])
        if check in per_rank
        else lab.verify_identities(n_max)
        for check in wanted
    ]


def _cmd_verify(ns: argparse.Namespace) -> tuple[str, int]:
    reports = _verify_reports(ns)
    return emit(reports, ns.fmt, summary=True), 1 if _failed(reports) else 0


def _cmd_scan(ns: argparse.Namespace) -> tuple[str, int]:
    from . import lab

    if ns.conjecture == "stable":
        if ns.ks is not None:
            raise ValueError("--ks has no effect on --conjecture stable")
        width = Fraction(1, 10**6) if ns.width is None else ns.width
        try:
            brackets = [lab.critical_k(n, width) for n in _ranks(ns)]
        except (lab.BracketError, lab.MonotonicityError) as exc:
            return f"FAIL {exc}", 1
        return emit(brackets, ns.fmt), 0
    if ns.width is not None:
        raise ValueError("--width has no effect on --conjecture distinct-roots")
    reports = [
        lab.scan_distinct_roots(n, ns.ks if ns.ks is not None else lab.default_distinct_grid(n))
        for n in _ranks(ns)
    ]
    return emit(reports, ns.fmt), 1 if _failed(reports) else 0


def _cmd_zigzag(ns: argparse.Namespace) -> tuple[str, int]:
    return emit(zigzag(ns.n), ns.fmt), 0


_COMMANDS = {
    "gen": _cmd_gen,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
    "zigzag": _cmd_zigzag,
}


# ---------------------------------------------------------------------------
# entry point


def run(argv: Sequence[str]) -> int:
    try:
        ns = build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    # Exact results (zigzag numbers, high-rank coefficients) may have more
    # digits than the interpreter's default int-to-str limit.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        out, code = _COMMANDS[ns.subcommand](ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"FAIL {exc}")
        return 1
    if out:
        try:
            print(out)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed early (`| head`); point stdout at devnull so
            # the interpreter's final flush cannot raise again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
