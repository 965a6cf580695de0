"""Command-line front end.

Subcommands: adem, act, tv, nil, reps, quillen-check, localize, d0.
Output is deterministic: TSV rows or the same content as JSON with sorted
keys, so consecutive runs are byte-identical.  Exit codes: 0 success, 2
validation failure, 3 unresolved verdicts under --strict.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import fp_linalg as fl
from . import groups as gp
from .chow import elem_abelian_ring
from .lannes import tv_structural, tv_table
from .localization import (bounds_report, build_lambda, d0_estimate,
                           f_iso_check)
from .modules import FPModule, nilpotence_degree
from .powers import OperationSyntaxError, adem_reduce, parse_operation

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNRESOLVED = 3


class CliError(Exception):
    pass


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON ({exc})")


def _load_group(path) -> gp.FiniteGroup:
    try:
        return gp.load_group(_load_json(path), name=path)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")


def _load_module(path) -> FPModule:
    try:
        return FPModule.from_json(_load_json(path), name=path)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")


def _emit(args, columns, rows, meta=None):
    if args.format == "json":
        doc = {"columns": list(columns), "rows": [list(r) for r in rows]}
        if meta:
            doc["meta"] = meta
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        if meta:
            for key in sorted(meta):
                print(f"# {key}\t{meta[key]}")
        print("\t".join(columns))
        for r in rows:
            print("\t".join(str(x) for x in r))


# -- polynomial syntax for `act` --------------------------------------------

_POLY_TOKEN = re.compile(r"\s*(?:(\d+)|(y\d+)|(\^)|(\*)|(\+)|(\S))")


def parse_poly(s: str, rank: int):
    """Sums of optionally-scaled monomials in y1..yk, e.g. '2 y1^3 y2 + y2'."""
    terms = {}
    i = 0
    tokens = []
    while i < len(s):
        m = _POLY_TOKEN.match(s, i)
        if not m:
            break
        num, name, caret, star, plus, bad = m.groups()
        if bad:
            raise CliError(f"polynomial syntax error at {m.start(m.lastindex)}: "
                           f"unexpected {bad!r}")
        tokens.append((num, name, caret, star, plus))
        i = m.end()
    pos = 0

    def peek(kind):
        return pos < len(tokens) and tokens[pos][kind] is not None

    while pos < len(tokens):
        coeff = 1
        if peek(0):
            coeff = int(tokens[pos][0])
            pos += 1
            if peek(3):
                pos += 1
        expo = [0] * rank
        saw = False
        while peek(1):
            name = tokens[pos][1]
            pos += 1
            idx = int(name[1:]) - 1
            if not 0 <= idx < rank:
                raise CliError(f"generator {name} out of range for rank {rank}")
            e = 1
            if peek(2):
                pos += 1
                if not peek(0):
                    raise CliError("expected an exponent after '^'")
                e = int(tokens[pos][0])
                pos += 1
            expo[idx] += e
            saw = True
            if peek(3):
                pos += 1
        if not saw and coeff == 1:
            raise CliError("expected a monomial like y1^2")
        key = tuple(expo)
        terms[key] = terms.get(key, 0) + coeff
        if pos < len(tokens):
            if not peek(4):
                raise CliError("expected '+' between polynomial terms")
            pos += 1
    return terms


def format_poly(f, rank):
    if not f:
        return "0"
    parts = []
    for m in sorted(f, reverse=True):
        c = f[m]
        body = " ".join(
            (f"y{i + 1}" if e == 1 else f"y{i + 1}^{e}")
            for i, e in enumerate(m) if e)
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        else:
            parts.append(f"{c} {body}")
    return " + ".join(parts)


# -- subcommands -------------------------------------------------------------


def cmd_adem(args):
    try:
        expr = parse_operation(args.expr, _prime(args))
    except OperationSyntaxError as exc:
        raise CliError(f"--expr: {exc}")
    print(adem_reduce(expr))
    return EXIT_OK


def cmd_act(args):
    p = _prime(args)
    try:
        op = parse_operation(args.op, p)
    except OperationSyntaxError as exc:
        raise CliError(f"--op: {exc}")
    ring = elem_abelian_ring(args.rank, p)
    poly = {m: c % p for m, c in parse_poly(args.poly, args.rank).items()}
    try:
        ring.poly_degree(poly)
    except ValueError as exc:
        raise CliError(f"--poly: {exc}")
    out = {}
    from .chow import poly_add, poly_scale
    for word, c in sorted(op.terms.items()):
        out = poly_add(out, poly_scale(ring.act_word(word, poly), c, p), p)
    print(format_poly(out, args.rank))
    return EXIT_OK


def cmd_tv(args):
    if bool(args.group) == bool(args.module):
        raise CliError("pass exactly one of --group or --module")
    rows = []
    meta = {}
    if args.group:
        G = _load_group(args.group)
        try:
            tv = tv_structural(G, args.rank, _prime(args))
        except ValueError as exc:
            raise CliError(str(exc))
        for k in range(args.cutoff + 1):
            rows.append((args.rank, k, tv.dim(k)))
        meta = {
            "group": G.name,
            "components": len(tv.components),
            "classes": "; ".join(str(list(c.representative))
                                 for c, _ in tv.components),
        }
    else:
        mod = _load_module(args.module)
        if args.prime is not None and args.prime != mod.p:
            raise CliError(f"--prime {args.prime} but module file says {mod.p}")
        table = tv_table(mod, args.rank, args.cutoff)
        rows = [(args.rank, k, table[k]) for k in sorted(table)]
        meta = {"module": mod.name or args.module}
    _emit(args, ("rank", "degree", "dimension"), rows, meta)
    return EXIT_OK


def cmd_nil(args):
    mod = _load_module(args.module)
    n, verdict = nilpotence_degree(mod, args.cutoff)
    _emit(args, ("nilpotence_degree", "verdict"), [(n, verdict)],
          {"module": mod.name or args.module, "cutoff": args.cutoff})
    if args.strict and verdict != "exact":
        return EXIT_UNRESOLVED
    return EXIT_OK


def cmd_reps(args):
    G = _load_group(args.group)
    classes = gp.rep_classes(args.rank, G, _prime(args))
    rows = [(i, c.orbit_size, " ".join(map(str, c.representative)))
            for i, c in enumerate(classes)]
    _emit(args, ("class", "orbit_size", "representative"), rows,
          {"group": G.name, "order": len(G), "prime": _prime(args),
           "rank": args.rank, "classes": len(classes)})
    return EXIT_OK


def cmd_quillen(args):
    G = _load_group(args.group)
    try:
        cert = f_iso_check(G, args.cutoff, _prime(args))
    except ValueError as exc:
        raise CliError(str(exc))
    rows = []
    for d, vec, m in cert.kernel_report:
        rows.append(("kernel", d, " ".join(map(str, vec)),
                     "unresolved" if m is None else f"nilpotent:p^{m}"))
    for d, vec, j in cert.image_report:
        rows.append(("image", d, " ".join(map(str, vec)),
                     "unresolved" if j is None else f"power:p^{j}"))
    meta = {
        "group": G.name,
        "prime": _prime(args),
        "cutoff": args.cutoff,
        "limit_dims": " ".join(str(cert.limit_dims[d])
                               for d in sorted(cert.limit_dims)),
        "kernel_trivial": cert.kernel_trivial,
        "image_full": cert.image_full,
        "verdict": ("unresolved" if cert.unresolved
                    else "verified-through-cutoff"),
    }
    _emit(args, ("side", "degree", "element", "certificate"), rows, meta)
    if args.strict and cert.unresolved:
        return EXIT_UNRESOLVED
    return EXIT_OK


def cmd_localize(args):
    G = _load_group(args.group)
    try:
        diag = build_lambda(G, args.level, args.cutoff, _prime(args))
    except ValueError as exc:
        raise CliError(str(exc))
    rows = []
    for d in range(args.cutoff + 1):
        rows.append((d, diag.source_dims[d], diag.middle_dims[d],
                     diag.eq_dims[d], diag.injective[d],
                     diag.onto_equalizer[d], diag.legs_agree[d]))
    meta = {
        "group": G.name,
        "prime": _prime(args),
        "level": args.level,
        "cutoff": args.cutoff,
        "classes": len(diag.objects),
        "morphisms": diag.morphism_count,
        "verdict": "verified-through-cutoff",
    }
    _emit(args, ("degree", "source_dim", "middle_dim", "equalizer_dim",
                 "injective", "onto_equalizer", "legs_agree"), rows, meta)
    return EXIT_OK


def cmd_d0(args):
    G = _load_group(args.group)
    fd = args.faithful_degree or G.faithful_degree
    p = _prime(args)
    try:
        d0, v0 = d0_estimate(G, args.cutoff, p)
    except ValueError as exc:
        raise CliError(str(exc))
    print(f"d0 = {d0} ({v0})")
    exit_code = EXIT_OK
    if fd:
        rep = bounds_report(G, fd, args.cutoff, p)
        print(f"d1 = {rep['d1']} ({rep['d1_verdict']})")
        print(f"largest certified nilpotent level = {rep['largest_nil_level']}")
        print(f"bounds: d0 <= {rep['bound_d0']}, d1 <= {rep['bound_d1']}")
        for v in rep["violations"]:
            print(f"VIOLATION: {v}", file=sys.stderr)
        if rep["violations"]:
            exit_code = EXIT_VALIDATION
    if args.strict and v0 != "verified-through-cutoff":
        return EXIT_UNRESOLVED
    return exit_code


# -- parser ------------------------------------------------------------------


def _prime(args):
    return args.prime if args.prime is not None else 2


def _add_common(sp, prime=True, cutoff=True, fmt=True, strict=False):
    """Register the shared flags a subcommand reads, and no others."""
    if prime:
        sp.add_argument("--prime", type=int, default=None,
                        help="the prime p (default 2)")
    if cutoff:
        sp.add_argument("--cutoff", type=int, default=8,
                        help="verify through this degree (default 8)")
    if fmt:
        sp.add_argument("--format", choices=("tsv", "json"), default="tsv")
    if strict:
        sp.add_argument("--strict", action="store_true",
                        help="exit 3 when any verdict is unresolved")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="chowops",
        description="Reduced-power operations on mod-p Chow rings of "
                    "classifying spaces: Adem normal forms, T-functor "
                    "dimension tables, nilpotence, and localization "
                    "certificates.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("adem", help="admissible normal form of an expression")
    _add_common(sp, cutoff=False, fmt=False)
    sp.add_argument("--expr", required=True,
                    help="e.g. 'P^1 P^1' or '2 * P^3 + P^2 P^1' (Sq^{2a} ok at p=2)")
    sp.set_defaults(fn=cmd_adem)

    sp = sub.add_parser("act", help="apply an operation to a polynomial")
    _add_common(sp, cutoff=False, fmt=False)
    sp.add_argument("--rank", type=int, required=True,
                    help="number of degree-1 generators y1..yk")
    sp.add_argument("--op", required=True)
    sp.add_argument("--poly", required=True, help="e.g. 'y1^3 + y1 y2^2'")
    sp.set_defaults(fn=cmd_act)

    sp = sub.add_parser("tv", help="T-functor dimension table")
    _add_common(sp)
    sp.add_argument("--group", help="group file (structural route)")
    sp.add_argument("--module", help="presented-module file (Hom route)")
    sp.add_argument("--rank", type=int, default=1)
    sp.set_defaults(fn=cmd_tv)

    sp = sub.add_parser("nil", help="nilpotence degree of a presented module")
    _add_common(sp, prime=False, strict=True)
    sp.add_argument("--module", required=True)
    sp.set_defaults(fn=cmd_nil)

    sp = sub.add_parser("reps", help="conjugacy classes of (Z/p)^r -> G")
    _add_common(sp, cutoff=False)
    sp.add_argument("--group", required=True)
    sp.add_argument("--rank", type=int, default=1)
    sp.set_defaults(fn=cmd_reps)

    sp = sub.add_parser("quillen-check",
                        help="F-isomorphism certificate into the limit over "
                             "elementary abelian subgroups")
    _add_common(sp, strict=True)
    sp.add_argument("--group", required=True)
    sp.set_defaults(fn=cmd_quillen)

    sp = sub.add_parser("localize",
                        help="the level-n localization map and its equalizer")
    _add_common(sp)
    sp.add_argument("--group", required=True)
    sp.add_argument("--level", type=int, default=1)
    sp.set_defaults(fn=cmd_localize)

    sp = sub.add_parser("d0", help="smallest n with level-(n+1) map injective")
    _add_common(sp, fmt=False, strict=True)
    sp.add_argument("--group", required=True)
    sp.add_argument("--faithful-degree", type=int, default=None,
                    help="degree of a faithful representation, for bound checks")
    sp.set_defaults(fn=cmd_d0)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "prime", None) is not None:
            fl.check_prime(args.prime)
        if getattr(args, "cutoff", 1) < 1:
            raise CliError("--cutoff must be >= 1")
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
