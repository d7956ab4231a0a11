"""Command-line front end.

Four subcommands: ``matrix`` (generate and export braid generator
matrices), ``dims`` (dimension tables), ``verify`` (run verification
suites), and ``word`` (evaluate a braid word as an ordered matrix
product).  JSON is the canonical interchange format; CSV entry export
is numeric-only and lossy.  Exit codes: 0 success, 1 invariant
violation or int64 overflow of an exact coefficient during computation,
2 invalid configuration (unknown options, n < 2, N < 0, non-finite q or
labels, out-of-range word letters, options the chosen route ignores).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .scalars import DEFAULT_TOLS
from .oscillator import BraidoscError, Context, RepLabel, homogeneous_context, marked_context
from .weightspace import counts
from .braid import _entries_json, _word_product, build_matrices, family_to_json


def _rep_args(p):
    p.add_argument("--n", type=int, required=True, help="number of tensor slots")
    p.add_argument("--N", type=int, required=True, help="total occupation level")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--homogeneous", action="store_true", help="all slots carry the same label (default)")
    grp.add_argument("--het", action="store_true", help="one marked slot with a second label")
    grp.add_argument("--labels", type=str, default=None, help='explicit labels as JSON [[gamma,c],...]')
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--c", type=float, default=0.5)
    p.add_argument("--gamma2", type=float, default=1.5, help="marked-slot gamma (with --het)")
    p.add_argument("--c2", type=float, default=0.8, help="marked-slot c (with --het)")
    p.add_argument("--position", type=int, default=1, help="marked slot position (with --het)")
    p.add_argument("--q", type=float, default=0.6)
    p.add_argument("--backend", choices=("numeric", "laurent"), default=None,
                   help="laurent = exact in x = q**(-gamma), homogeneous only")
    p.add_argument("--route", choices=("rewrite", "direct", "closed_form"), default="rewrite")


def _build_context(args):
    if args.labels:
        try:
            pairs = json.loads(args.labels)
            labels = tuple(RepLabel(float(g), float(c)) for g, c in pairs)
        except (ValueError, TypeError) as exc:
            print("bad --labels: %s" % exc, file=sys.stderr)
            raise SystemExit(2)
        if len(labels) != args.n:
            print("label count must equal n", file=sys.stderr)
            raise SystemExit(2)
        return Context(labels, args.q)
    if args.het:
        return marked_context(
            args.n, RepLabel(args.gamma, args.c), RepLabel(args.gamma2, args.c2),
            args.position, args.q,
        )
    return homogeneous_context(args.n, args.gamma, args.c, args.q)


def _build_family(args, inverse):
    backend = args.backend or "numeric"
    if backend == "laurent" and (args.het or args.labels):
        print("laurent backend requires homogeneous labels", file=sys.stderr)
        raise SystemExit(2)
    return build_matrices(
        args.n, args.N, route=args.route, backend=backend,
        ctx=_build_context(args) if backend == "numeric" else None,
        inverse=inverse,
    )


def _json_text(obj):
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)`` for str
    keys, built by joining strings: json's indented encoder is pure Python
    and cost more than the build on a matrix export.  Lists of strings (matrix
    rows, Laurent terms) are encoded in C, and an object that a list holds
    more than once, such as the shared zero of an exact matrix, is encoded
    once per depth."""
    encode_str, memo = json.encoder.encode_basestring_ascii, {}

    def text(obj, pad):
        inner = pad + "  "
        if isinstance(obj, dict):
            items = [encode_str(k) + ": " + text(v, inner) for k, v in sorted(obj.items())]
            return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
        if not isinstance(obj, (list, tuple)):
            return json.dumps(obj)
        try:
            items = list(map(encode_str, obj))
        except TypeError:
            items = []
            for v in obj:
                key = id(v), len(inner)
                if key not in memo:
                    memo[key] = text(v, inner)
                items.append(memo[key])
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"

    return text(obj, "\n")


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_matrix(args):
    mats = _build_family(args, args.inverse)
    if args.format == "json":
        _emit(_json_text(family_to_json(mats)) + "\n", args.output)
        return 0
    # csv: one block per generator, decimal entries
    if mats[0].backend != "numeric":
        print("csv export is numeric-only; use --backend numeric or --format json", file=sys.stderr)
        return 2
    print("warning: csv is lossy (decimal); json is the canonical format", file=sys.stderr)
    lines = []
    for m in mats:
        lines.append("# generator %d" % m.generator)
        for row in m.entries:
            lines.append(",".join(repr(float(v)) for v in row))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_dims(args):
    n, N = args.n, args.N
    total, parts = counts(n, N)
    if args.format == "json":
        payload = {"n": n, "N": N, "weight_dim": total, "lowest_dims": parts}
        _emit(_json_text(payload) + "\n", args.output)
        return 0
    lines = ["n=%d N=%d" % (n, N), "level lowest_dim"]
    for j, d in enumerate(parts):
        lines.append("%5d %10d" % (j, d))
    lines.append("weight_dim %d (sum of lowest dims %d)" % (total, sum(parts)))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_verify(args):
    from .verify import run_suites

    reports = run_suites(args.suite, seed=args.seed, tols=DEFAULT_TOLS)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print("suite %-8s %s (%d checks)" % (rep.suite, status, len(rep.checks)))
        for chk in rep.checks:
            if not chk.passed:
                print("  failed: %s residual=%s" % (chk.name, chk.residual))
    if args.report:
        payload = [rep.to_json() for rep in reports]
        with open(args.report, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    ok = all(rep.passed for rep in reports)
    print("ALL PASS" if ok else "FAILURES PRESENT")
    return 0 if ok else 1


def cmd_word(args):
    letters = [int(tok) for tok in args.word.replace(",", " ").split()]
    fwd = _build_family(args, False)
    inv = _build_family(args, True) if any(t < 0 for t in letters) else None
    total, phase = _word_product(letters, fwd, inv)
    payload = {
        "word": letters,
        "n": args.n,
        "N": args.N,
        "backend": fwd[0].backend,
        "phase": phase.to_json(),
        "entries": _entries_json(total),
    }
    _emit(_json_text(payload) + "\n", args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="braidosc",
        description="Braid group representations from the deformed oscillator algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="generate braid generator matrices")
    _rep_args(p)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("dims", help="dimension tables")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, default=4)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", choices=("algebra", "spaces", "braid", "all"), default="all")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--report", type=str, default=None, help="write JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("word", help="evaluate a braid word")
    _rep_args(p)
    p.add_argument("--word", type=str, required=True, help='e.g. "1 2 -1"')
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_word)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # numpy's LinAlgError is a ValueError, but it reports a failed computation
    except (BraidoscError, OverflowError, np.linalg.LinAlgError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
