"""Command-line surface.

Subcommands: ``ks`` (interpolation polynomials, or with ``--k`` their
regular and singular parts; ``--part reg|sing`` keeps one), ``eig``
(eigenvalue polynomials by route), ``deligne`` (categorical eigenvalue
polynomial, block table, minimal polynomial), ``table`` (partition data),
``verify`` (identity sweeps with machine-readable reports).

``build_parser`` alone declares what each subcommand accepts: ``csv``
output on ``table`` and ``verify`` only, ``--jobs`` on ``verify`` only (the
one command that starts workers), and flags spelled in full, never abbreviated.
It spells no route or bound: ``eig --route`` takes the names in
``eigenpoly.ROUTES`` plus ``all``, and the ``verify`` bound flags, overrides
and report params come from ``verify.BOUND_CAPS``.

Each command builds its result as a JSON document and as text, and
``_write`` writes the one ``--format`` asks for to ``--out`` or stdout;
``verify`` hands ``_emit`` the report's own JSON, CSV or pretty text.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage,
configuration, bound or write error (one line on stderr).  Output is
byte-deterministic for fixed inputs.
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
from .config import ConfigError, load_config, shown
from .partitions import PClass, Pair2, classify, dagger, ell, h_poly, c_super, c_cat, size, upto
from .ratfunc import render_frac, render_unipoly
from .report import csv_text, json_text
from .verify import BOUND_CAPS, Bounds, BoundsError, SUITES, check_range, run_suite

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
        raise UsageError(f"partition must be 'a,b', got {shown(text)}")
    try:
        l1, l2 = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"partition must be a pair of integers, got {shown(text)}")
    if not l1 >= l2 >= 0:
        raise UsageError(f"need a >= b >= 0 in partition {shown(text)}")
    return (l1, l2)


_INTEGER = re.compile(r"\s*[+-]?\d+\s*")

# Largest |numerator| and denominator of a t value in lowest terms.  The
# oracle's integer entries grow with the height of t: at this cap
# ``deligne 14,0`` takes up to about 1.7 times as long as at ``--t 7``.
T_HEIGHT_MAX = 100


def parse_rational(text: str) -> Fraction:
    """A t value: an integer or p/q rational, its height held to ``T_HEIGHT_MAX``."""
    parts = text.split("/", 1)
    try:
        t = Fraction(*(int(part) for part in parts))
    except ZeroDivisionError:
        pass
    except ValueError:
        # int() refuses a well-formed integer only past Python's digit limit
        if all(_INTEGER.fullmatch(part) for part in parts):
            raise UsageError(f"integer with more than {sys.get_int_max_str_digits()} "
                             f"digits, got {shown(text)}")
    else:
        if max(abs(t.numerator), t.denominator) <= T_HEIGHT_MAX:
            return t
        raise UsageError(f"t needs numerator and denominator of at most {T_HEIGHT_MAX} "
                         f"in absolute value, got {shown(text)}")
    raise UsageError(f"expected an integer or p/q rational, got {shown(text)}")


def parse_t_list(text: str) -> tuple[Fraction, ...]:
    tokens = text.split(",")
    if not all(tok.strip() for tok in tokens):
        raise UsageError(f"--t-list has an empty entry: {shown(text)}")
    return tuple(parse_rational(tok) for tok in tokens)


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
    p_ks.add_argument("--part", choices=("reg", "sing"), default=None)
    p_ks.add_argument("--falling", action="store_true", help="render in the falling basis")
    _common_flags(p_ks)

    p_eig = subs.add_parser("eig", help="eigenvalue polynomial f_lambda")
    p_eig.add_argument("partition", metavar="LAMBDA")
    p_eig.add_argument("--k", type=int, default=None, metavar="K")
    routes = sorted({r for names in ep.ROUTES.values() for r in names})
    p_eig.add_argument("--route", choices=(*routes, "all"), default="all")
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
    for key in BOUND_CAPS:
        flags = ["--" + key.replace("_", "-")] + (["--n-max"] if key == "N_max" else [])
        p_ver.add_argument(*flags, type=int, default=None, dest=key.lower())
    p_ver.add_argument("--t-list", default=None, dest="t_list", metavar="T1,T2,...")
    _common_flags(p_ver, _TABLE_FORMATS, jobs=True)

    return parser


def _write(args, doc: dict, text: str) -> None:
    """``_emit`` ``doc`` as JSON under ``--format json``, else ``text`` (pretty or CSV)."""
    _emit(args, json_text(doc) if args.format == "json" else text)


def _emit(args, text: str) -> None:
    """Write ``text`` to ``--out`` or stdout; a failed write is a usage error."""
    try:
        if args.out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out or 'stdout'}: {exc}")


# -- subcommand implementations ------------------------------------------------------


def _partition(args, cfg) -> Pair2:
    """The LAMBDA argument, parsed and held to the size cap."""
    lam = parse_partition(args.partition)
    check_range("partition size", size(lam), cfg.size_cap)
    return lam


def _k(args, cfg) -> int:
    """``--k``, range-checked, or the configured ``default_k`` when omitted."""
    if args.k is None:
        return cfg.default_k
    check_range("k", args.k, cfg.k_cap)
    return args.k


def cmd_ks(args, cfg) -> int:
    lam = _partition(args, cfg)
    if args.part is not None and args.k is None:
        raise UsageError("--part reg|sing requires --k")
    if args.k is None:
        body = ks.ks_poly(lam).body
        names = ("P_falling",) if args.falling else ("P", "P_falling")
        fields = {name: render_bipoly(body, falling=name == "P_falling") for name in names}
    else:
        k = _k(args, cfg)
        parts = {"Reg": ks.reg_part, "Sing": ks.sing_part}
        names = ("Reg", "Sing") if args.part is None else (args.part.capitalize(),)
        fields = {name: render_bipoly(parts[name](lam, k), falling=args.falling)
                  for name in names}
    doc = {"command": "ks", "lambda": args.partition, "k": args.k}
    doc.update((name.lower(), value) for name, value in fields.items())
    if args.part is None:
        text = "".join(f"{name} = {value}\n" for name, value in fields.items())
    else:
        text = fields[names[0]] + "\n"
    _write(args, doc, text)
    return 0


def cmd_eig(args, cfg) -> int:
    lam = _partition(args, cfg)
    k = _k(args, cfg)
    cls = classify(lam, k)
    doc = {"command": "eig", "lambda": args.partition, "k": k, "class": cls.value}
    routes = ep.ROUTES[cls]
    if args.route == "all":
        doc["routes"] = list(routes)
    else:
        if args.route not in routes:
            need = next(c for c, names in ep.ROUTES.items() if args.route in names)
            raise UsageError(f"lambda is {k}-{cls.value}; route {args.route} requires {need.value}")
        routes = (args.route,)
        doc["route"] = args.route
    bodies = [ep.eigen(lam, k, r) for r in routes]
    agree = all(b == bodies[0] for b in bodies)
    rendered = render_bipoly(bodies[0], falling=args.falling)
    doc["f"] = rendered
    text = rendered + "\n"
    if args.route == "all":
        doc["routes_agree"] = agree
        text += f"routes agree: {'yes' if agree else 'NO'}\n"
    _write(args, doc, text)
    return 0 if agree else FAIL_EXIT


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
    mp = render_unipoly(dl.min_poly(size(lam), t), "x")
    doc = {
        "command": "deligne", "lambda": args.partition, "t": render_frac(t),
        "f": rendered,
        "blocks": {str(m): row for m, row in block_rows},
        "min_poly": mp,
        "routes_agree": consistent,
    }
    lines = [f"f = {rendered}"]
    lines += [f"blocks size {m}: {row}" for m, row in block_rows]
    lines.append(f"min_poly = {mp}")
    lines.append(f"routes agree: {'yes' if consistent else 'NO'}")
    _write(args, doc, "\n".join(lines) + "\n")
    return 0 if consistent else FAIL_EXIT


def cmd_table(args, cfg) -> int:
    k = _k(args, cfg)
    check_range("size-max", args.size_max, cfg.size_cap)
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
            render_frac(h(k)),
            render_frac(c_super(lam, k)),
            render_frac(c_cat(lam, Fraction(-2 * k))),
        ])
    doc = {
        "command": "table", "k": k, "size_max": args.size_max,
        "rows": [dict(zip(header, row)) for row in rows],
    }
    if args.format == "csv":
        text = csv_text(header, rows)
    else:
        widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
        lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows]
        text = "\n".join(lines) + "\n"
    _write(args, doc, text)
    return 0


def cmd_verify(args, cfg) -> int:
    overrides = {name: value for name in map(str.lower, BOUND_CAPS)
                 if (value := getattr(args, name)) is not None}
    if args.t_list is not None:
        overrides["t_list"] = parse_t_list(args.t_list)
    bounds = Bounds(**overrides)
    bounds.validate(cfg)
    jobs = args.jobs if args.jobs is not None else cfg.effective_jobs()
    if jobs < 1:
        raise UsageError("--jobs must be >= 1")
    params = (
        ("suite", args.suite),
        *((key, str(getattr(bounds, key.lower()))) for key in BOUND_CAPS),
        ("t_list", ",".join(render_frac(t) for t in bounds.t_list)),
    )
    report = run_suite(args.suite, bounds, params=params, jobs=jobs, cfg=cfg)
    _emit(args, {"json": report.to_json, "csv": report.to_csv}.get(args.format, report.to_pretty)())
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
    except (UsageError, ConfigError, BoundsError) as exc:
        print(f"capelli: error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
