"""Command line front end: commands, reports, and the check runner.

Input is an ideal in the plain text grammar ("n=4; x1*x3, x2*x4") or the
JSON form {"n": ..., "gens": [[exponents], ...]}, read by
matroidalkit.parsing. Reports come out as text or, with --json, as a JSON
document carrying exactly the same numbers. Exit codes: 0 on success, 1
for usage or parse trouble, 2 for domain preconditions, 3 when a
mathematically guaranteed fact fails to verify.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

from .checks import run_all
from .decomposition import associated_primes, criteria_check, partition_degree2
from .errors import (DomainError, ParseError, StructuralError,
                     TheoremViolationError)
from .fields import require_prime
from .groebner import DEFAULT_PRIME, certify_witness
from .homology import pd_depth
from .matroids import enumerate_matroidal, is_matroidal, is_polymatroidal
from .parsing import parse_ideal
from .schmitt_vogel import ara_report


@dataclass(frozen=True)
class Config:
    """Settings run_command reads, each set by the option of the same name."""

    field: int | None = None  # None means rationals
    max_n: int = 6
    max_d: int = 3
    certify: bool = True


def _ideal_payload(ideal):
    return {
        "n": ideal.n,
        "gens": [list(g.exponents) for g in ideal.gens],
        "display": str(ideal),
    }


def _prime_payload(primes):
    return [sorted(p) for p in sorted(primes, key=lambda p: (len(p), sorted(p)))]


def _section(build):
    try:
        return build()
    except DomainError as err:
        return {"skipped": str(err)}


def _decomposition_payload(ideal):
    dec = associated_primes(ideal)
    return {
        "ass": _prime_payload(dec.ass),
        "minimal": _prime_payload(dec.minimal),
        "height": dec.height,
        "big_height": dec.big_height,
        "is_unmixed": dec.is_unmixed,
    }


def _partition_payload(ideal):
    partition = partition_degree2(ideal)
    return {
        "blocks": [sorted(b) for b in partition.blocks],
        "m": partition.m,
    }


def _criteria_payload(ideal):
    report = criteria_check(ideal)
    return {
        "height": report.height,
        "big_height": report.big_height,
        "is_unmixed": report.is_unmixed,
        "ass_count": report.ass_count,
        "block_count": report.block_count,
        "c1_identity": report.c1_identity,
        "colon_facts": [{"variable": i, "height": h, "is_unmixed": u}
                        for i, h, u in report.colon_facts],
        "t2_condition": report.t2_condition,
    }


def _homology_payload(ideal, field):
    profile = pd_depth(ideal, field)
    return {"pd": profile.pd, "depth": profile.depth, "is_cm": profile.is_cm}


def _witness_payload(report):
    payload = {
        "degree": report.degree,
        "lower": report.lower,
        "upper": report.upper,
        "exact": report.exact,
        "sums": [str(q) for q in report.elements],
    }
    if report.witness is not None:
        payload["layers"] = [[str(m) for m in layer]
                             for layer in report.witness.layers]
    return payload


def _certificate_payload(certificate):
    payload = {
        "passed": certificate.passed,
        "field": "rationals" if certificate.field is None else f"gf:{certificate.field}",
        "failing_generators": [str(g) for g in certificate.failing_generators],
    }
    if certificate.subset_failure is not None:
        j, monomial = certificate.subset_failure
        payload["subset_failure"] = {"sum_index": j, "monomial": str(monomial)}
    return payload


def _analyze(ideal, config):
    summary = ideal.summarize()
    report = {
        "input": _ideal_payload(ideal),
        "summary": {
            "mu": summary.mu,
            "is_squarefree": summary.is_squarefree,
            "is_single_degree": summary.is_single_degree,
            "degree": summary.degree,
            "is_full_supported": summary.is_full_supported,
        },
    }

    def matroidal_section():
        certificate = is_polymatroidal(ideal)
        payload = {
            "is_polymatroidal": certificate.holds,
            "is_matroidal": is_matroidal(ideal),
            "reason": certificate.reason,
        }
        if certificate.failure_witness is not None:
            u, v, i = certificate.failure_witness
            payload["failure_witness"] = {"u": str(u), "v": str(v), "variable": i}
        return payload

    report["matroidal"] = _section(matroidal_section)
    report["decomposition"] = _section(lambda: _decomposition_payload(ideal))
    report["partition"] = _section(lambda: _partition_payload(ideal))
    report["criteria"] = _section(lambda: _criteria_payload(ideal))
    report["homology"] = _section(lambda: _homology_payload(ideal, config.field))

    rank_report = None

    def rank_section():
        nonlocal rank_report
        rank_report = ara_report(ideal)
        return _witness_payload(rank_report)

    report["rank"] = _section(rank_section)
    if not config.certify:
        report["certification"] = {"skipped": "disabled by --no-certify"}
    elif rank_report is None:
        report["certification"] = {"skipped": "no witness to certify"}
    else:
        report["certification"] = _section(lambda: _certificate_payload(
            certify_witness(ideal, rank_report.elements, config.field)))
    return report


def _enumerate_census(n, d, config):
    if n > config.max_n:
        raise DomainError(f"n={n} exceeds the cap {config.max_n} (raise with --max-n)")
    if d > config.max_d:
        raise DomainError(f"d={d} exceeds the cap {config.max_d} (raise with --max-d)")
    ideals = enumerate_matroidal(n, d, True)
    rows = []
    for ideal in ideals:
        dec = associated_primes(ideal)
        profile = pd_depth(ideal, config.field)
        row = {
            "gens": [list(g.exponents) for g in ideal.gens],
            "display": str(ideal),
            "mu": ideal.mu,
            "is_unmixed": dec.is_unmixed,
            "height": dec.height,
            "pd": profile.pd,
            "is_cm": profile.is_cm,
            "m": partition_degree2(ideal).m if d == 2 else None,
        }
        rows.append(row)
    return {"n": n, "d": d, "count": len(rows), "ideals": rows}


def run_command(command, config, ideal=None, n=None, d=None):
    """Dispatch one command; returns the report payload."""
    if command == "analyze":
        return _analyze(ideal, config)
    if command == "partition":
        return {"input": _ideal_payload(ideal),
                "partition": _partition_payload(ideal)}
    if command == "witness":
        report = ara_report(ideal)
        return {"input": _ideal_payload(ideal), "witness": _witness_payload(report)}
    if command == "certify":
        report = ara_report(ideal)
        certificate = certify_witness(ideal, report.elements, config.field)
        return {"input": _ideal_payload(ideal),
                "witness": _witness_payload(report),
                "certification": _certificate_payload(certificate)}
    if command == "enumerate":
        return _enumerate_census(n, d, config)
    if command == "reproduce-paper":
        results = run_all(max_n=config.max_n, max_d=config.max_d,
                          certify=config.certify)
        return [{"name": r.name, "passed": r.passed, "skipped": r.skipped,
                 "detail": r.detail} for r in results]
    raise DomainError(f"unknown command {command!r}")


def _print_block(title, payload, out):
    print(f"{title}:", file=out)
    if "skipped" in payload:
        print(f"  skipped: {payload['skipped']}", file=out)
        return
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"  {key}:", file=out)
            for item in value:
                line = ", ".join(f"{k}={v}" for k, v in item.items())
                print(f"    {line}", file=out)
        else:
            print(f"  {key}: {value}", file=out)


def _render_text(command, payload, out):
    if command == "reproduce-paper":
        passes = skips = 0
        for row in payload:
            if row["skipped"]:
                status = "SKIP"
                skips += 1
            elif row["passed"]:
                status = "PASS"
                passes += 1
            else:
                status = "FAIL"
            print(f"{status:<4} {row['name']}: {row['detail']}", file=out)
        tail = f", {skips} skipped" if skips else ""
        print(f"{passes} of {len(payload) - skips} checks good{tail}", file=out)
        return
    if command == "enumerate":
        print(f"matroidal ideals for n={payload['n']}, d={payload['d']}: "
              f"{payload['count']}", file=out)
        for row in payload["ideals"]:
            flags = []
            flags.append("unmixed" if row["is_unmixed"] else "mixed")
            flags.append("CM" if row["is_cm"] else "not CM")
            if row["m"] is not None:
                flags.append(f"m={row['m']}")
            print(f"  {row['display']}  mu={row['mu']} height={row['height']} "
                  f"pd={row['pd']} [{', '.join(flags)}]", file=out)
        return
    for title, block in payload.items():
        _print_block(title, block, out)


def _parse_field(value):
    if value == "q":
        return None
    if value.startswith("gf:"):
        try:
            p = int(value[3:])
            require_prime(p)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad field {value!r}")
        except DomainError as err:
            raise argparse.ArgumentTypeError(str(err))
        return p
    raise argparse.ArgumentTypeError(f"field must be q or gf:<prime>, got {value!r}")


class _Parser(argparse.ArgumentParser):
    # spec reserves exit status 2 for domain errors; usage trouble is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# add_argument keywords of every option, by name
_OPTIONS = {
    "input": {"nargs": "?", "default": "-",
              "help": "ideal file, or - for stdin (default)"},
    "n": {"type": int},
    "d": {"type": int},
    "--json": {"action": "store_true", "dest": "as_json",
               "help": "emit the report as JSON"},
    "--field": {"type": _parse_field, "default": Config.field, "metavar": "q|gf:p",
                "help": f"coefficient field (default q; try gf:{DEFAULT_PRIME})"},
    "--no-certify": {"action": "store_false", "dest": "certify",
                     "help": "skip the radical-membership certification"},
    "--max-n": {"type": int, "default": Config.max_n, "metavar": "K",
                "help": "cap on the ambient variable count for sweeps"},
    "--max-d": {"type": int, "default": Config.max_d, "metavar": "K",
                "help": "cap on the generating degree for sweeps"},
}

# each command's help text and the options it reads; it accepts no others
COMMANDS = {
    "analyze": ("full report on one ideal",
                ("input", "--json", "--field", "--no-certify")),
    "partition": ("block structure of a degree-2 ideal", ("input", "--json")),
    "witness": ("layered sums bounding the arithmetical rank", ("input", "--json")),
    "certify": ("verify the witness sums by radical membership",
                ("input", "--json", "--field")),
    "enumerate": ("census of matroidal ideals for one (n, d)",
                  ("n", "d", "--json", "--field", "--max-n", "--max-d")),
    "reproduce-paper": ("run the built-in example and theorem checks",
                        ("--json", "--no-certify", "--max-n", "--max-d")),
}


def _build_parser():
    parser = _Parser(
        prog="matroidalkit",
        description="Analyze matroidal monomial ideals: decomposition, "
                    "unmixedness, projective dimension, and certified "
                    "arithmetical-rank witnesses.")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (text, options) in COMMANDS.items():
        sub = commands.add_parser(name, help=text)
        for option in options:
            sub.add_argument(option, **_OPTIONS[option])
    return parser, commands.choices


_PARSER, _SUBPARSERS = _build_parser()


def main(argv=None):
    args, extra = _PARSER.parse_known_args(argv)
    if extra:  # refused with the usage of the command they were given to
        _SUBPARSERS[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    # a command's namespace holds only the options it accepts
    config = Config(**{f.name: getattr(args, f.name)
                       for f in fields(Config) if hasattr(args, f.name)})
    try:
        ideal = None
        if "input" in COMMANDS[args.command][1]:
            if args.input == "-":
                text = sys.stdin.read()
            else:
                try:
                    with open(args.input, encoding="utf-8") as handle:
                        text = handle.read()
                except OSError as err:
                    raise ParseError(f"cannot read {args.input}: {err.strerror}")
            ideal = parse_ideal(text)
        payload = run_command(args.command, config, ideal=ideal,
                              n=getattr(args, "n", None), d=getattr(args, "d", None))
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 1
    except TheoremViolationError as err:
        print(f"theorem violation: {err}", file=sys.stderr)
        return 3
    except StructuralError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        if args.as_json:
            print(json.dumps(payload, indent=2))
        else:
            _render_text(args.command, payload, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (say `| head -1`): stop quietly, and point
        # stdout at devnull so the interpreter's final flush stays quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    if args.command == "reproduce-paper" and any(
            not row["passed"] and not row["skipped"] for row in payload):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
