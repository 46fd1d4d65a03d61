"""Batch command-line front end.

Subcommands: classify, wordlen, stable, axioms, ball.  All results go to
stdout as schema-versioned JSON (sorted keys, so identical configurations
give byte-identical output); diagnostics go to stderr.  Exit codes:
0 success, 1 parse error, 2 precondition failure, 3 resource exhaustion.
Each subcommand imports the layers it runs when it runs, so a call loads
only those: wordlen, stable and axioms load groups and lengths, a
Heisenberg ball loads groups (a semidirect-product ball adds matrices),
and classify loads matrices, polynomials, spectral and classify, plus
groups and lengths for its evidence levels.  No layer imports
``dataclasses``, and ``fractions`` is loaded only by the code that makes
rationals, so wordlen, axioms and the Heisenberg ball never load it.
Every command that searches a Cayley graph (wordlen, stable, axioms,
ball, classify) bounds its states by LENGRP_MEMORY_BUDGET.  ball counts
every state of the ball, but holds only its last two spheres unless
--out asks for every row.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING

from .errors import (
    DEFAULT_STATE_BUDGET,
    OracleExhausted,
    PreconditionError,
    ResourceExhausted,
)

if TYPE_CHECKING:
    from .matrices import IntMatrix

SCHEMA = "lengrp/1"

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_RESOURCE = 3


class _ParseExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports parse failures via exit code 1."""

    def error(self, message):
        raise _ParseExit(message)


def _fraction_text(obj) -> str:
    """json's fallback: a Fraction as "p/q"; any other type is an error."""
    # no Fraction exists unless fractions is loaded, and word lengths never load it
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(obj, fractions.Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(payload: dict) -> None:
    payload = dict(payload)
    payload["schema"] = SCHEMA
    print(json.dumps(payload, sort_keys=True, indent=2, default=_fraction_text))


def _read_source(arg: str) -> str:
    """Inline text, a file path, or '-' for stdin."""
    if arg == "-":
        return sys.stdin.read()
    if os.path.exists(arg):
        with open(arg) as fh:
            return fh.read()
    return arg


def _parse_matrix(arg: str) -> IntMatrix:
    """JSON rows of integers (not bools, floats or strings)."""
    from .matrices import IntMatrix

    try:
        rows = json.loads(_read_source(arg))
        if not all(type(x) is int for row in rows for x in row):
            raise ValueError("entries must be JSON integers")
        return IntMatrix.from_rows(rows)
    except (OSError, RecursionError, ValueError, TypeError, PreconditionError) as exc:
        raise _ParseExit(f"cannot parse matrix from {arg!r}: {exc}")


def _writable(path: str) -> bool:
    if os.path.exists(path):
        return os.path.isfile(path) and os.access(path, os.W_OK)
    parent = os.path.dirname(os.path.abspath(path))
    return os.path.isdir(parent) and os.access(parent, os.W_OK)


def _budget() -> int:
    raw = os.environ.get("LENGRP_MEMORY_BUDGET")
    if raw is None:
        return DEFAULT_STATE_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise _ParseExit(f"LENGRP_MEMORY_BUDGET must be an integer >= 1, got {raw!r}")
    return budget


def _evaluator(name: str, budget: int):
    """The named length function; the word metric's oracle ball holds at
    most ``budget`` states."""
    from .lengths import (
        quadratic_evaluator,
        swl_evaluator,
        word_length_evaluator,
        zero_evaluator,
    )

    factories = {
        "swl": swl_evaluator,
        "quadratic": quadratic_evaluator,
        "wordlen": lambda: word_length_evaluator(budget=budget),
        "zero": zero_evaluator,
    }
    if name not in factories:
        raise _ParseExit(f"unknown length function {name!r}; choose from {sorted(factories)}")
    return factories[name]()


# -- subcommands ---------------------------------------------------------


def cmd_classify(args) -> int:
    from .classify import build_dossier

    matrix = _parse_matrix(args.matrix)
    dossier = build_dossier(matrix, args.evidence, k_max=args.k_max,
                            max_radius=args.radius, budget=_budget())
    _emit({"command": "classify", "dossier": dossier.to_json_dict()})
    return EXIT_OK


def cmd_wordlen(args) -> int:
    from .groups import HeisElem
    from .lengths import HeisWordOracle

    oracle = HeisWordOracle(max_radius=args.oracle_radius, budget=_budget())
    result = oracle.word_length(HeisElem(args.x, args.y, args.z))
    _emit({"command": "wordlen", "element": [args.x, args.y, args.z],
           "length": result.value, "path": result.path})
    return EXIT_OK


def cmd_stable(args) -> int:
    from .groups import parse_heis
    from .lengths import stable_length_estimate

    try:
        g = parse_heis(args.element)
    except ValueError as exc:
        raise _ParseExit(str(exc))
    est = stable_length_estimate(_evaluator(args.length, _budget()), g, args.k_max)
    _emit({
        "command": "stable",
        "element": [g.x, g.y, g.z],
        "length": args.length,
        "samples": [{"k": k, "value": v, "ratio": r} for k, v, r in est.samples],
        "running_infimum": est.running_infimum,
        "skipped": est.skipped,
        "partial": est.partial,
        "declared_limit": est.declared_limit,
        "subadditivity_violations": est.subadditivity_violations,
    })
    return EXIT_OK


def cmd_axioms(args) -> int:
    from .lengths import check_axioms

    if args.tolerance is not None and not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise _ParseExit(f"--tolerance must be a finite number >= 0, got {args.tolerance}")
    report = check_axioms(_evaluator(args.length, _budget()), sample_budget=args.samples,
                          tolerance=args.tolerance, seed=args.seed)
    _emit({"command": "axioms", "length": args.length,
           "report": report.to_json_dict(), "all_passed": report.all_passed})
    return EXIT_OK


def cmd_ball(args) -> int:
    from .groups import HeisenbergGroup, SdpContext, SdpGroup, _bfs, bfs_ball

    if args.group == "heis":
        if args.matrix is not None:
            raise _ParseExit("--matrix applies to --group sdp only")
        group = HeisenbergGroup()
    elif args.group == "sdp":
        if args.matrix is None:
            raise _ParseExit("--matrix is required for --group sdp")
        group = SdpGroup(SdpContext(_parse_matrix(args.matrix)))
    else:
        raise _ParseExit(f"unknown group {args.group!r}")
    if args.out and not _writable(args.out):
        raise PreconditionError(f"cannot write CSV output to {args.out!r}")
    if args.out:  # the CSV needs every row
        table = bfs_ball(group, args.radius, budget=_budget())
        try:
            table.to_csv(args.out)
        except OSError as exc:
            raise PreconditionError(
                f"cannot write CSV output to {args.out!r}: {exc.strerror or exc}")
        sizes = table.sphere_sizes
    else:
        sizes = _bfs(group, args.radius, _budget(), whole=False)[1]
    _emit({"command": "ball", "group": args.group, "out": args.out,
           "radius": args.radius, "sphere_sizes": sizes, "ball_size": sum(sizes)})
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="lengrp",
                     description="exact length-function toolkit for Heisenberg "
                                 "and Z^n x| Z groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a twist matrix")
    p.add_argument("--matrix", required=True,
                   help="JSON rows, a file path, or - for stdin")
    p.add_argument("--evidence", choices=["none", "estimates", "full"], default="none")
    p.add_argument("--k-max", type=int, default=12)
    p.add_argument("--radius", type=int, default=12)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("wordlen", help="exact Heisenberg word length")
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)
    p.add_argument("z", type=int)
    p.add_argument("--oracle-radius", type=int, default=40)
    p.set_defaults(func=cmd_wordlen)

    p = sub.add_parser("stable", help="stable length estimate along powers")
    p.add_argument("element", help="Heisenberg element as 'x,y,z'")
    p.add_argument("--k-max", type=int, default=20)
    p.add_argument("--length", default="wordlen")
    p.set_defaults(func=cmd_stable)

    p = sub.add_parser("axioms", help="property-check the length axioms")
    p.add_argument("--length", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=None)
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("ball", help="enumerate a Cayley ball")
    p.add_argument("--group", default="heis", help="heis or sdp")
    p.add_argument("--matrix", default=None, help="twist matrix for sdp")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--out", default=None, help="optional CSV output path")
    p.set_defaults(func=cmd_ball)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for name in ("k_max", "radius", "samples", "oracle_radius"):
            if getattr(args, name, 1) is not None and getattr(args, name, 1) <= 0:
                raise _ParseExit(f"--{name.replace('_', '-')} must be positive")
        return args.func(args)
    except _ParseExit as exc:
        print(f"lengrp: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionError, ValueError) as exc:
        print(f"lengrp: precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ResourceExhausted, OracleExhausted) as exc:
        print(f"lengrp: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
