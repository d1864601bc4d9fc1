"""Command line front end.

Exit codes: 0 success (all requested checks pass), 1 usage or input error,
2 a verification check failed (the counterexample is printed), 3 the
computation would exceed the column cap.  FATPOINTS_COLUMN_CAP overrides
the default cap of 20000 monomial columns.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import hilbert as hilbert_mod
from .errors import DegreeOutOfRange, FatpointsError, ResourceLimit, SchemeFormatError
from .errors import _text, brief
from .hilbert import hilbert_function, regularity_index
from .scheme import (
    _image_dim,
    embed,
    gen_random,
    multiplicity,
    scheme_from_json,
    scheme_fingerprint,
    scheme_to_json,
)
from .verify import (
    CHECK_NAMES,
    DIAGNOSTIC_CHECKS,
    report_to_json,
    rnc_reg_formula,
    run_checks,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_scheme(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemeFormatError(f"scheme file is not UTF-8: {exc}") from None
    return scheme_from_json(text)


def _int_option(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # also a value over the interpreter's integer-string limit
        raise argparse.ArgumentTypeError(f"a value of {len(text)} characters is not an integer")


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _parse_mults(raw: str) -> list[int]:
    mults = []
    for k, part in enumerate(part for part in raw.split(",") if part != ""):
        try:
            mults.append(int(part))
        except ValueError:  # also a part over the interpreter's integer-string limit
            bad = f"multiplicity {k} ({len(part)} characters) is not an integer"
            raise FatpointsError(f"{bad}; expected e.g. 2,2,1") from None
    if not mults:
        raise FatpointsError("multiplicity list is empty")
    return mults


def _cmd_hilbert(args) -> int:
    scheme = _load_scheme(args.scheme)
    if args.tmax is not None and args.tmax < 0:
        raise DegreeOutOfRange(f"--tmax must be nonnegative, got {brief(args.tmax)}")
    degrees = [args.t] if args.t is not None else range(args.tmax + 1)
    values = [(t, hilbert_function(scheme, t)) for t in degrees]
    if args.format == "json":
        doc = {
            "scheme_fingerprint": scheme_fingerprint(scheme),
            "values": [{"t": t, "H": h} for t, h in values],
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        width = len(str(degrees[-1]))
        for t, h in values:
            print(f"t:{t:<{width}} H:{h}")
    return 0


def _cmd_reg(args) -> int:
    print(f"reg = {regularity_index(_load_scheme(args.scheme))}")
    return 0


def _cmd_multiplicity(args) -> int:
    print(f"e = {_text(multiplicity(_load_scheme(args.scheme)), 'result')}")
    return 0


def _cmd_embed(args) -> int:
    scheme = _load_scheme(args.scheme)
    # each coordinate of P^dim is a column of the degree-1 conditions matrix
    hilbert_mod._cap_check(_image_dim(scheme, args.target_dim), 1)
    image = embed(scheme, args.target_dim)
    _write_output(scheme_to_json(image), args.output)
    return 0


def _cmd_gen(args) -> int:
    mults = _parse_mults(args.mults)
    hilbert_mod._cap_check(args.n, 1)
    scheme = gen_random(args.n, len(mults), mults, config=args.config, seed=args.seed)
    _write_output(scheme_to_json(scheme), args.output)
    return 0


def _cmd_verify(args) -> int:
    scheme = _load_scheme(args.scheme)
    if args.checks is None:
        names, explicit = ["all"], False
    else:
        names = [part for part in args.checks.split(",") if part != ""]
        if not names:
            raise FatpointsError("check list is empty")
        explicit = "all" not in names
    reports = run_checks(
        scheme,
        args.target_dim,
        names,
        prop44_diagnostic=args.prop44_diagnostic,
        explicit=explicit,
    )
    failed = False
    for report in reports:
        diagnostic = report.check in DIAGNOSTIC_CHECKS
        if args.format == "json":
            print(report_to_json(report))
        else:
            status = "PASS" if report.passed else "FAIL"
            if diagnostic:
                status = f"{status} (diagnostic)"
            suffix = f"  [{report.note}]" if report.note else ""
            print(f"{status:18s} {report.check}{suffix}")
            if not report.passed:
                for rec in report.records:
                    if not rec.passed:
                        where = f"t={rec.t}" if rec.t is not None else "overall"
                        print(f"    {where}  lhs={rec.lhs}  rhs={rec.rhs}  ({rec.note})")
        if not report.passed and not diagnostic:
            failed = True
    return 2 if failed else 0


def _cmd_rnc_formula(args) -> int:
    print(_text(rnc_reg_formula(_parse_mults(args.mults), args.n), "result"))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="fatpoints", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilbert", help="print Hilbert function values")
    p.add_argument("--scheme", required=True, help="scheme JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=_int_option, help="single degree")
    group.add_argument("--tmax", type=_int_option, help="table for degrees 0..tmax")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_hilbert)

    p = sub.add_parser("reg", help="print the regularity index")
    p.add_argument("--scheme", required=True)
    p.set_defaults(handler=_cmd_reg)

    p = sub.add_parser("multiplicity", help="print the multiplicity")
    p.add_argument("--scheme", required=True)
    p.set_defaults(handler=_cmd_multiplicity)

    p = sub.add_parser("embed", help="pad the scheme into a larger space")
    p.add_argument("--scheme", required=True)
    p.add_argument("--target-dim", type=_int_option, required=True)
    p.add_argument("-o", "--output", default=None, help="write scheme JSON here")
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("gen", help="generate a deterministic random scheme")
    p.add_argument("--n", type=_int_option, required=True, help="ambient dimension")
    p.add_argument("--mults", required=True, help="comma list, e.g. 2,2,1")
    p.add_argument("--config", choices=("generic", "collinear", "rnc"), required=True)
    p.add_argument("--seed", type=_int_option, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("verify", help="run the identity checks")
    p.add_argument("--scheme", required=True)
    p.add_argument("--target-dim", type=_int_option, required=True)
    p.add_argument(
        "--checks",
        default=None,
        help=f"comma list from {{{', '.join(CHECK_NAMES)}, all}} (default all)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--prop44-diagnostic",
        action="store_true",
        help="also evaluate the displayed coefficient variant (reported, never fails the run)",
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("rnc-formula", help="closed-form regularity on the curve")
    p.add_argument("--n", type=_int_option, required=True)
    p.add_argument("--mults", required=True)
    p.set_defaults(handler=_cmd_rnc_formula)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1

    cap = os.environ.get("FATPOINTS_COLUMN_CAP")
    previous_cap = hilbert_mod.COLUMN_CAP
    if cap is not None:
        try:
            value = int(cap)
            if value < 1:
                raise ValueError
        except ValueError:
            message = f"FATPOINTS_COLUMN_CAP of {len(cap)} characters is not a positive integer"
            print(f"fatpoints: error: {message}", file=sys.stderr)
            return 1
        hilbert_mod.COLUMN_CAP = value
    try:
        return args.handler(args)
    except ResourceLimit as exc:
        print(f"fatpoints: resource limit: {exc}", file=sys.stderr)
        return 3
    except FatpointsError as exc:
        print(f"fatpoints: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"fatpoints: error: {exc}", file=sys.stderr)
        return 1
    finally:
        hilbert_mod.COLUMN_CAP = previous_cap


if __name__ == "__main__":
    raise SystemExit(main())
