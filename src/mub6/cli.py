"""Command-line interface.

Subcommands: families show, check, normalize, analyze, refute, scan.  Each
leaf parser carries its handler, and the handler gets that parser, so a
usage error prints the subcommand's usage line and "mub6 <subcommand>:
error:"; other errors print one "mub6: error:" line.  Exit codes: 0 success,
1 usage, domain or out-of-memory errors (analyze: not Hadamard), 2 failed
verdict (refute: any audit failed; check: not Hadamard), 3 I/O or parse
errors.  Machine output is JSON against the schemas in schemas/: families
show, plain normalize and analyze always print it, and check, normalize
--lemma-form and refute print it with --json (text otherwise).  --tol, the
only way to set eq_tol, applies to check, normalize --lemma-form and
analyze; refute audits at the default, so t alone sets its verdict.  No
environment variable is read.  Only scan, which writes CSV, is seeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .analysis import ALL_SECTIONS, SECTION_FIELDS, analyze
from .core import (
    DEFAULT_TOL,
    SQRT6,
    Tolerances,
    matrix_from_json,
    matrix_to_json,
    modulus_residual,
    unitarity_residual,
)
from .equivalence import dephase, to_lemma_form
from .errors import InvalidInput, Mub6Error
from .families import b6, fourier_f6, m6, s6
from .musearch import OptimConfig, render_scan_csv, scan_m6
from .refutation import VERDICT_REFUTED, run_counterexample

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _jsonable(obj):
    """Plain JSON data: dataclasses and named tuples become objects in field
    order, complex numbers [re, im] pairs, and sequences lists."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return {k: _jsonable(v) for k, v in zip(obj._fields, obj)}
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def build_parser() -> _Parser:
    tol_flag = argparse.ArgumentParser(add_help=False)
    tol_flag.add_argument("--tol", type=float, default=None,
                          help="equality tolerance eq_tol (default 1e-9)")
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="emit JSON output")

    parser = _Parser(prog="mub6",
                     description="order-6 complex Hadamard matrices: families, "
                                 "structural analysis, lemma-form normalization, "
                                 "and mutually-unbiased-basis search")
    sub = parser.add_subparsers(required=True, metavar="command")

    fam = sub.add_parser("families", help="built-in Hadamard matrix families")
    famsub = fam.add_subparsers(required=True, metavar="action")
    show = famsub.add_parser("show", help="print one family member as JSON")
    show.set_defaults(handler=_cmd_families_show, parser=show)
    show.add_argument("--family", required=True, choices=("m6", "f6", "b6", "s6"))
    show.add_argument("--t", type=float, help="m6 parameter, radians")
    show.add_argument("--x1", type=float, help="f6 first phase (default 0)")
    show.add_argument("--x2", type=float, help="f6 second phase (default 0)")
    show.add_argument("--theta", type=float, help="b6 parameter, radians")

    check = sub.add_parser("check", parents=[tol_flag, json_flag],
                           help="verify a JSON matrix is Hadamard / MU to the standard basis")
    check.set_defaults(handler=_cmd_check, parser=check)
    check.add_argument("--in", dest="path", required=True, metavar="JSON")

    norm = sub.add_parser("normalize", parents=[tol_flag, json_flag],
                          help="dephase a matrix or put it in lemma form")
    norm.set_defaults(handler=_cmd_normalize, parser=norm)
    norm.add_argument("--in", dest="path", required=True, metavar="JSON")
    norm.add_argument("--lemma-form", dest="lemma_form", action="store_true",
                      help="search for the normalized shape with a real upper 3x2 block")

    ana = sub.add_parser("analyze", parents=[tol_flag],
                         help="structural measurements (real entries, 2x2 Hadamard "
                              "submatrices, product columns)")
    ana.set_defaults(handler=_cmd_analyze, parser=ana)
    ana.add_argument("--in", dest="path", required=True, metavar="JSON")
    ana.add_argument("--report", choices=("full", "real", "h2", "product"), default="full")

    ref = sub.add_parser("refute", parents=[json_flag],
                         help="run the third-column counterexample pipeline on m6(t)")
    ref.set_defaults(handler=_cmd_refute, parser=ref)
    ref.add_argument("--t", type=float, required=True, help="m6 parameter, radians")

    scan = sub.add_parser("scan",
                          help="sweep a family, counting MU vectors/bases/triples per point")
    scan.set_defaults(handler=_cmd_scan, parser=scan)
    scan.add_argument("--family", required=True, choices=("m6",))
    scan.add_argument("--t-from", type=float, required=True, dest="t_from")
    scan.add_argument("--t-to", type=float, required=True, dest="t_to")
    scan.add_argument("--steps", type=int, required=True)
    scan.add_argument("--starts", type=int, default=2000)
    scan.add_argument("--seed", type=int, default=0, help="seed of the random starts")
    scan.add_argument("--out", required=True, metavar="CSV")
    scan.add_argument("--timing", action="store_true",
                      help="record real wall times (breaks byte-identical reruns)")

    return parser


def _tolerances(args) -> Tolerances:
    return DEFAULT_TOL if args.tol is None else Tolerances(eq_tol=args.tol)


def _load_matrix(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return matrix_from_json(text)
    except (OSError, UnicodeDecodeError, InvalidInput) as exc:
        raise _CliError(3, f"cannot read matrix from {path}: {exc}")


def _cmd_families_show(parser, args) -> int:
    takes = {"m6": ("t",), "f6": ("x1", "x2"), "b6": ("theta",), "s6": ()}[args.family]
    for name in ("t", "x1", "x2", "theta"):
        if getattr(args, name) is not None and name not in takes:
            parser.error(f"--{name} does not apply to {args.family}")
    if args.family == "m6":
        if args.t is None:
            parser.error("--t is required for m6")
        H = m6(args.t)
    elif args.family == "f6":
        H = fourier_f6(*(0.0 if x is None else x for x in (args.x1, args.x2)))
    elif args.family == "b6":
        if args.theta is None:
            parser.error("--theta is required for b6")
        H = b6(args.theta)
    else:
        H = s6()
    print(matrix_to_json(H))
    return 0


def _cmd_check(parser, args) -> int:
    tol = _tolerances(args)
    H = _load_matrix(args.path)
    mod_dev = modulus_residual(H)
    unit_res = unitarity_residual(H)
    unimodular_ok = mod_dev < tol.eq_tol
    unitary_ok = unit_res < tol.eq_tol
    hadamard = unimodular_ok and unitary_ok
    report = {
        "label": H.label,
        "max_modulus_deviation": mod_dev,
        "unitarity_residual": unit_res,
        "unimodular_ok": unimodular_ok,
        "unitary_ok": unitary_ok,
        "is_hadamard": hadamard,
        "mu_to_standard_basis": unimodular_ok,
    }
    if args.json:
        _emit(report)
    else:
        print(f"label: {H.label}")
        print(f"unimodular entries: {'PASS' if unimodular_ok else 'FAIL'} "
              f"(max deviation {mod_dev:.3e})")
        print(f"unitary: {'PASS' if unitary_ok else 'FAIL'} "
              f"(residual {unit_res:.3e})")
        print(f"MU to standard basis: {'PASS' if unimodular_ok else 'FAIL'}")
        print(f"hadamard: {'PASS' if hadamard else 'FAIL'}")
    return 0 if hadamard else 2


def _cmd_normalize(parser, args) -> int:
    if not args.lemma_form:
        if args.tol is not None or args.json:
            parser.error("--tol and --json apply only to normalize --lemma-form")
        D, _ = dephase(_load_matrix(args.path))
        print(matrix_to_json(D))
        return 0
    tol = _tolerances(args)
    form = to_lemma_form(_load_matrix(args.path), tol)
    if form is None:
        if args.json:
            _emit({"present": False})
        else:
            print("NONE")
        return 0
    if args.json:
        payload = {"present": True, **_jsonable(form)}
        del payload["matrix"]
        _emit(payload)
    else:
        print(f"y = {form.y}")
        print(f"x = {form.x}")
        if form.s is None:
            print("s = none")
        else:
            print(f"s = {form.s!r}")
        print(f"row_perm = {form.record.row_perm}")
        print(f"col_perm = {form.record.col_perm}")
    return 0


def _cmd_analyze(parser, args) -> int:
    tol = _tolerances(args)
    H = _load_matrix(args.path)
    sections = ALL_SECTIONS if args.report == "full" else (args.report,)
    rep = _jsonable(analyze(H, tol, sections=sections))
    wanted = {"label"}.union(*(SECTION_FIELDS[name] for name in sections))
    _emit({k: v for k, v in rep.items() if k in wanted})
    return 0


def _cmd_refute(parser, args) -> int:
    rep = run_counterexample(args.t)
    if args.json:
        payload = _jsonable(rep)
        del payload["matrix"]
        _emit(payload)
    else:
        ok = lambda b: "PASS" if b else "FAIL"
        print(f"t = {rep.t!r}")
        print(f"hadamard:            {ok(rep.is_hadamard_ok)}  "
              f"(residual {rep.hadamard_residual:.3e})")
        print(f"lemma form (1,-1):   {ok(rep.lemma_form_ok)}")
        if rep.s is None:
            print(f"tail (-1, s, -s):    {ok(rep.tail_ok)}")
        else:
            print(f"tail (-1, s, -s):    {ok(rep.tail_ok)}  "
                  f"(s = {rep.s.real:+.12f}{rep.s.imag:+.12f}j)")
        print(f"third-column moduli: min {rep.min_third_col_modulus:.12f} "
              f"vs 1/sqrt(6) = {1.0 / SQRT6:.12f}; zero entries would need 0")
        print(f"verdict: {rep.verdict}")
    return 0 if rep.verdict == VERDICT_REFUTED else 2


def _cmd_scan(parser, args) -> int:
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    if args.steps > np.iinfo(np.intp).max // 8:     # numpy's cap on one float64 array
        parser.error("--steps exceeds what one array of parameters can hold")
    if not math.isfinite(args.t_to - args.t_from):    # also false for a non-finite bound
        parser.error("--t-from and --t-to must be finite and so must their difference")
    cfg = OptimConfig(starts=args.starts, seed=args.seed)
    ts = [float(x) for x in np.linspace(args.t_from, args.t_to, args.steps)]
    with open(args.out, "w", encoding="utf-8") as fh:
        rows = scan_m6(ts, cfg)
        fh.write(render_scan_csv(rows, cfg, timing=args.timing))
    flagged = sum(1 for r in rows if r.error is not None)
    print(f"wrote {len(rows)} rows to {args.out}" +
          (f" ({flagged} flagged invalid)" if flagged else ""))
    return 0


def main(argv=None) -> int:
    args_list = sys.argv[1:] if argv is None else [str(a) for a in argv]
    try:
        args, extra = build_parser().parse_known_args(args_list)
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
        return args.handler(args.parser, args)
    except SystemExit as exc:
        return exc.code
    except _CliError as exc:
        print(f"mub6: error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"mub6: error: {exc}", file=sys.stderr)
        return 3
    except (Mub6Error, MemoryError) as exc:
        print(f"mub6: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
