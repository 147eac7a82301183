"""Command-line surface.

Subcommands: ``ks`` (interpolation polynomials and their singular/regular
parts), ``eig`` (eigenvalue polynomials by route), ``deligne`` (categorical
eigenvalue polynomial, block table, minimal polynomial), ``table``
(partition data), ``verify`` (identity sweeps with machine-readable
reports).

``build_parser`` alone declares what each subcommand accepts: ``csv``
output on ``table`` and ``verify`` only, ``--jobs`` on ``verify`` only (the
one command that starts workers), and flags spelled in full, never abbreviated.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
configuration error.  Output is byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from . import __version__
from . import deligne as dl
from . import eigenpoly as ep
from . import knopsahi as ks
from .bipoly import render_bipoly
from .config import ConfigError, load_config
from .partitions import PClass, Pair2, classify, dagger, ell, h_poly, c_super, c_cat, size, upto
from .ratfunc import render_frac, render_unipoly
from .report import csv_text, json_text
from .verify import Bounds, BoundsError, SUITES, run_suite

USAGE_EXIT = 2
FAIL_EXIT = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with one-line usage errors and no prefix abbreviations.  Its
    test for a token that is a negative number, not an option name, is
    widened from -4 and -.5 to any minus sign and digit, so ``--t -4/3``
    parses like ``--t=-4/3``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def parse_partition(text: str) -> Pair2:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"partition must be 'a,b', got {text!r}")
    try:
        l1, l2 = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"partition must be a pair of integers, got {text!r}")
    if not l1 >= l2 >= 0:
        raise UsageError(f"need a >= b >= 0 in partition '{text}'")
    return (l1, l2)


def parse_rational(text: str) -> Fraction:
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"expected an integer or p/q rational, got {text!r}")


def parse_t_list(text: str) -> tuple[Fraction, ...]:
    tokens = text.split(",")
    if not all(tok.strip() for tok in tokens):
        raise UsageError(f"--t-list has an empty entry: {text!r}")
    return tuple(parse_rational(tok) for tok in tokens)


# The verify sweep bounds in report order, named by their report keys.  The
# flag is ``--`` plus the key with ``-`` for ``_``; the ``Bounds`` field is
# the key lower-cased.
BOUND_KEYS = ("k_max", "size_max", "N_max", "psi_N_max", "deligne_size_max",
              "minpoly_d_max", "a_max", "bcd_max")

_TEXT_FORMATS = ("pretty", "json")
_TABLE_FORMATS = _TEXT_FORMATS + ("csv",)


def _common_flags(sub: argparse.ArgumentParser, formats=_TEXT_FORMATS, jobs=False) -> None:
    sub.add_argument("--format", choices=formats, default="pretty")
    sub.add_argument("--out", metavar="PATH", default=None)
    if jobs:
        sub.add_argument("--jobs", type=int, default=None, metavar="N")
    sub.add_argument("--config", metavar="PATH", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="capelli",
        description="Exact interpolation and Capelli eigenvalue polynomials in two variables.",
    )
    parser.add_argument("--version", action="version", version=f"capelli {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_ks = subs.add_parser("ks", help="interpolation polynomial P_lambda")
    p_ks.add_argument("partition", metavar="LAMBDA", help="partition 'a,b'")
    p_ks.add_argument("--k", type=int, default=None, metavar="K")
    p_ks.add_argument("--part", choices=("poly", "reg", "sing"), default=None)
    p_ks.add_argument("--falling", action="store_true", help="render in the falling basis")
    _common_flags(p_ks)

    p_eig = subs.add_parser("eig", help="eigenvalue polynomial f_lambda")
    p_eig.add_argument("partition", metavar="LAMBDA")
    p_eig.add_argument("--k", type=int, default=None, metavar="K")
    p_eig.add_argument("--route", choices=("a", "b", "c", "d", "oracle", "all"), default="all")
    p_eig.add_argument("--falling", action="store_true", help="render in the falling basis")
    _common_flags(p_eig)

    p_del = subs.add_parser("deligne", help="categorical eigenvalue polynomial at dimension t")
    p_del.add_argument("partition", metavar="LAMBDA")
    p_del.add_argument("--t", required=True, metavar="T", help="rational, 'p/q' or integer")
    p_del.add_argument("--falling", action="store_true", help="render in the falling basis")
    _common_flags(p_del)

    p_tab = subs.add_parser("table", help="partition classification table")
    p_tab.add_argument("--k", type=int, default=None, metavar="K")
    p_tab.add_argument("--size-max", type=int, default=6, dest="size_max")
    _common_flags(p_tab, _TABLE_FORMATS)

    p_ver = subs.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=SUITES)
    for key in BOUND_KEYS:
        flags = ["--" + key.replace("_", "-")] + (["--n-max"] if key == "N_max" else [])
        p_ver.add_argument(*flags, type=int, default=None, dest=key.lower())
    p_ver.add_argument("--t-list", default=None, dest="t_list", metavar="T1,T2,...")
    _common_flags(p_ver, _TABLE_FORMATS, jobs=True)

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc}")


def _kv_lines(pairs: list[tuple[str, str]]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs)


# -- subcommand implementations ------------------------------------------------------


def _partition(args, cfg) -> Pair2:
    """The LAMBDA argument, parsed and held to the size cap."""
    lam = parse_partition(args.partition)
    if size(lam) > cfg.size_cap:
        raise UsageError(f"partition size {size(lam)} exceeds the hard cap {cfg.size_cap}")
    return lam


def _k(args, cfg) -> int:
    """``--k``, range-checked, or the configured ``default_k`` when omitted."""
    if args.k is None:
        return cfg.default_k
    if not 0 <= args.k <= cfg.k_cap:
        raise UsageError(f"--k must lie in [0, {cfg.k_cap}]")
    return args.k


def cmd_ks(args, cfg) -> int:
    lam = _partition(args, cfg)
    if args.part in ("reg", "sing") and args.k is None:
        raise UsageError("--part reg|sing requires --k")
    body = ks.ks_poly(lam).body
    fall = args.falling
    pairs: list[tuple[str, str]] = []
    if args.k is None:
        if fall:
            pairs.append(("P_falling", render_bipoly(body, falling=True)))
        else:
            pairs.append(("P", render_bipoly(body)))
            pairs.append(("P_falling", render_bipoly(body, falling=True)))
    else:
        k = _k(args, cfg)
        reg = ks.reg_part(lam, k)
        sing = ks.sing_part(lam, k)
        if args.part == "sing":
            pairs.append(("Sing", render_bipoly(sing, falling=fall)))
        elif args.part == "reg":
            pairs.append(("Reg", render_bipoly(reg, falling=fall)))
        else:
            pairs.append(("Reg", render_bipoly(reg, falling=fall)))
            pairs.append(("Sing", render_bipoly(sing, falling=fall)))
    if args.format == "json":
        doc = {"command": "ks", "lambda": args.partition, "k": args.k}
        doc.update({k.lower(): v for k, v in pairs})
        _emit(json_text(doc), args.out)
    else:
        if args.part in ("reg", "sing"):
            _emit(pairs[0][1] + "\n", args.out)
        else:
            _emit(_kv_lines(pairs), args.out)
    return 0


def cmd_eig(args, cfg) -> int:
    lam = _partition(args, cfg)
    k = _k(args, cfg)
    cls = classify(lam, k)
    if args.route == "all":
        routes = ep.applicable_routes(lam, k)
        bodies = [ep.eigen(lam, k, r) for r in routes]
        agree = all(b == bodies[0] for b in bodies)
        rendered = render_bipoly(bodies[0], falling=args.falling)
        if args.format == "json":
            doc = {
                "command": "eig", "lambda": args.partition, "k": k,
                "class": cls.value,
                "routes": [r.value for r in routes],
                "f": rendered,
                "routes_agree": agree,
            }
            _emit(json_text(doc), args.out)
        else:
            _emit(f"{rendered}\nroutes agree: {'yes' if agree else 'NO'}\n", args.out)
        return 0 if agree else FAIL_EXIT
    route = ep.Route(args.route)
    if route not in ep.ROUTES[cls]:
        need = next(c for c, routes in ep.ROUTES.items() if route in routes)
        raise UsageError(f"lambda is {k}-{cls.value}; route {args.route} requires {need.value}")
    body = ep.eigen(lam, k, route)
    rendered = render_bipoly(body, falling=args.falling)
    if args.format == "json":
        doc = {"command": "eig", "lambda": args.partition, "k": k,
               "class": cls.value, "route": args.route, "f": rendered}
        _emit(json_text(doc), args.out)
    else:
        _emit(rendered + "\n", args.out)
    return 0


def cmd_deligne(args, cfg) -> int:
    lam = _partition(args, cfg)
    t = parse_rational(args.t)
    f = dl.cat_eig_formula(lam, t)
    consistent = f == dl.cat_eig_from_blocks(lam, t)
    rendered = render_bipoly(f, falling=args.falling)
    block_rows = []
    for m in range(size(lam) + 1):
        row = ", ".join(f"({b.lam[0]},{b.lam[1]})x{b.mult}" for b in dl.blocks(m, t))
        block_rows.append((m, row))
    mp = dl.min_poly(size(lam), t)
    if args.format == "json":
        doc = {
            "command": "deligne", "lambda": args.partition, "t": render_frac(t),
            "f": rendered,
            "blocks": {str(m): row for m, row in block_rows},
            "min_poly": render_unipoly(mp, "x"),
            "routes_agree": consistent,
        }
        _emit(json_text(doc), args.out)
    else:
        lines = [f"f = {rendered}"]
        lines += [f"blocks size {m}: {row}" for m, row in block_rows]
        lines.append(f"min_poly = {render_unipoly(mp, 'x')}")
        lines.append(f"routes agree: {'yes' if consistent else 'NO'}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if consistent else FAIL_EXIT


def cmd_table(args, cfg) -> int:
    k = _k(args, cfg)
    if args.size_max < 0 or args.size_max > cfg.size_cap:
        raise UsageError(f"--size-max must lie in [0, {cfg.size_cap}]")
    header = ["lambda", "size", "class", "dagger", "ell", "H(kappa)", "H(k)", "c_super", "c_cat(-2k)"]
    rows = []
    for lam in upto(args.size_max):
        cls = classify(lam, k)
        lamd = dagger(lam, k)
        h = h_poly(lam)
        rows.append([
            f"{lam[0]},{lam[1]}",
            str(size(lam)),
            cls.value,
            f"{lamd[0]},{lamd[1]}" if lamd is not None else "-",
            str(ell(lam, k)) if cls is PClass.QUASIREGULAR else "-",
            render_unipoly(h),
            render_frac(Fraction(h(k))),
            render_frac(c_super(lam, k)),
            render_frac(c_cat(lam, Fraction(-2 * k))),
        ])
    if args.format == "json":
        doc = {
            "command": "table", "k": k, "size_max": args.size_max,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        _emit(json_text(doc), args.out)
    elif args.format == "csv":
        _emit(csv_text(header, rows), args.out)
    else:
        widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
        lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args, cfg) -> int:
    overrides = {name: value for name in map(str.lower, BOUND_KEYS)
                 if (value := getattr(args, name)) is not None}
    if args.t_list is not None:
        overrides["t_list"] = parse_t_list(args.t_list)
    bounds = Bounds(**overrides)
    try:
        bounds.validate(cfg)
    except BoundsError as exc:
        raise UsageError(str(exc))
    jobs = args.jobs if args.jobs is not None else cfg.effective_jobs()
    if jobs < 1:
        raise UsageError("--jobs must be >= 1")
    params = (
        ("suite", args.suite),
        *((key, str(getattr(bounds, key.lower()))) for key in BOUND_KEYS),
        ("t_list", ",".join(render_frac(t) for t in bounds.t_list)),
    )
    report = run_suite(args.suite, bounds, params=params, jobs=jobs, cfg=cfg)
    render = {"json": report.to_json, "csv": report.to_csv, "pretty": report.to_pretty}
    _emit(render[args.format](), args.out)
    print(report.summary_line(), file=sys.stderr)
    return 0 if report.all_passed else FAIL_EXIT


_COMMANDS = {
    "ks": cmd_ks,
    "eig": cmd_eig,
    "deligne": cmd_deligne,
    "table": cmd_table,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command](args, cfg)
    except (UsageError, ConfigError) as exc:
        print(f"capelli: error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
