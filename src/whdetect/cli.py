"""Command line interface.

Subcommands:

* ``analyze``   -- full detection report for a preset, presentation file or
  Seifert datum, as JSON on stdout.
* ``table73``   -- recompute the finite-group ambivalence classification;
  exit 0 on an exact match, CSV diff and exit 1 otherwise.
* ``wh1``       -- invariant factors of Wh1(pi; Gamma) for a preset.
* ``steinberg`` -- evaluate a Steinberg word over a preset group.
* ``catalog``   -- dump the builtin group catalog as JSON or CSV.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .catalog import (
    Epsilon,
    SeifertInvariants,
    builtin_groups,
    get_preset,
)
from .coset import DEFAULT_MAX_COSETS, EnumerationBudgetExceeded, realize_presentation
from .pipeline import SCHEMA_VERSION, analyze, reproduce_table_73
from .steinberg import evaluate, parse_steinberg_word, pd_decompose
from .whitehead import CoefficientSystem, wh1_general
from .words import parse_presentation


_SEIFERT_FORM = "b,eps,g,(alpha:beta),..."


def _int_field(name: str, value: str, form: str) -> int:
    """``value`` as an int, or a ValueError naming the field and its form."""
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{name} {value!r} is not an integer, in {form}") from None


def _parse_seifert(text: str) -> SeifertInvariants:
    """Parse ``b,eps,g,(a1:b1),(a2:b2),...`` e.g. ``0,o1,1`` for the 3-torus.

    Whitespace around a field or a number is ignored; an empty field is an
    error naming that field.
    """
    parts = [p.strip() for p in text.split(",")]
    if len(parts) < 3:
        raise ValueError("seifert datum needs at least b,eps,g")
    b = _int_field("seifert b", parts[0], f"the datum {_SEIFERT_FORM}")
    try:
        eps = Epsilon(parts[1])
    except ValueError:
        types = ", ".join(e.value for e in Epsilon)
        raise ValueError(
            f"seifert base type eps {parts[1]!r} is not one of {types},"
            f" in the datum {_SEIFERT_FORM}"
        ) from None
    g = _int_field("seifert genus g", parts[2], f"the datum {_SEIFERT_FORM}")
    fibers = []
    for p in parts[3:]:
        inner = p[1:-1] if p.startswith("(") and p.endswith(")") else ""
        a, _, bb = inner.partition(":")
        try:
            fibers.append((int(a), int(bb)))
        except ValueError:
            raise ValueError(
                f"seifert fiber {p!r} is not of the form (alpha:beta)"
            ) from None
    return SeifertInvariants(b, eps, g, tuple(fibers))


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.preset:
        report = analyze(get_preset(args.preset), budget=args.budget)
    elif args.presentation:
        text = Path(args.presentation).read_text()
        report = analyze(
            parse_presentation(text),
            budget=args.budget,
            name=Path(args.presentation).stem,
        )
    else:
        report = analyze(_parse_seifert(args.seifert), budget=args.budget)
    print(report.to_json())
    return 0


def _cmd_table73(args: argparse.Namespace) -> int:
    diffs, computed = reproduce_table_73(args.max_order, budget=args.budget)
    if not diffs:
        ambivalent = sorted(n for n, a in computed.items() if a)
        print(
            f"PASS: {len(computed)} groups checked; "
            f"ambivalent: {', '.join(ambivalent)}"
        )
        return 0
    print("name,expected_ambivalent,computed_ambivalent")
    for d in diffs:
        print(f"{d.name},{d.expected},{d.computed}")
    return 1


def _cmd_wh1(args: argparse.Namespace) -> int:
    factors = (2,) if args.gamma is None else tuple(
        _int_field(f"gamma factor {i}", x, "the list d1,d2,... of invariant factors")
        for i, x in enumerate(args.gamma.split(","), 1)
    )
    entry = get_preset(args.preset)
    G = realize_presentation(entry.presentation, args.budget)
    result = wh1_general(G, CoefficientSystem(factors))
    print(
        json.dumps(
            {
                "schema": SCHEMA_VERSION,
                "group": entry.name,
                "gamma_invariant_factors": list(factors),
                "wh1_invariant_factors": list(result.invariant_factors),
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_steinberg(args: argparse.Namespace) -> int:
    entry = get_preset(args.group)
    G = realize_presentation(entry.presentation, args.budget)
    word = parse_steinberg_word(args.word, G)
    n = max(args.dim, word.min_dimension())
    matrix = evaluate(word, n, G)
    pd = pd_decompose(matrix)
    print(matrix.display())
    print(f"PD form: {'yes' if pd else 'no'}")
    print(f"K2 member: {'yes' if matrix.is_identity() else 'no'}")
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    entries = builtin_groups(args.max_order)
    if args.format == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "entries": [
                {
                    "name": e.name,
                    "presentation": e.presentation.display(),
                    "known_order": e.known_order,
                    "k1_trivial": e.k1_trivial,
                    "goodness": e.goodness.value,
                    "expected_ambivalent": e.expected_ambivalent,
                    "three_manifold": e.three_manifold,
                }
                for e in entries
            ],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print("name,presentation,known_order,k1_trivial,goodness,expected_ambivalent")
        for e in entries:
            print(
                f'{e.name},"{e.presentation.display()}",{e.known_order},'
                f"{e.k1_trivial},{e.goodness.value},{e.expected_ambivalent}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whdetect",
        description="Whitehead-group detection of exotic homeomorphisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument(
            "--budget",
            type=int,
            default=DEFAULT_MAX_COSETS,
            help="maximum working cosets for enumeration",
        )

    p = sub.add_parser("analyze", help="full detection report as JSON")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help="builtin group name, e.g. dicyclic_12")
    src.add_argument("--presentation", help="path to a presentation file")
    src.add_argument(
        "--seifert",
        help="Seifert datum b,eps,g,(a1:b1),... e.g. 0,o1,1; for a negative b"
        " write --seifert=-1,o1,0,(2:1),(3:1),(5:1)",
    )
    add_budget(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("table73", help="reproduce the ambivalence classification")
    p.add_argument("--max-order", type=int, default=240)
    add_budget(p)
    p.set_defaults(func=_cmd_table73)

    p = sub.add_parser("wh1", help="invariant factors of Wh1(pi; Gamma)")
    p.add_argument("--preset", required=True)
    p.add_argument(
        "--gamma",
        help="comma-separated invariant factors of Gamma (default 2 = Z/2)",
    )
    add_budget(p)
    p.set_defaults(func=_cmd_wh1)

    p = sub.add_parser("steinberg", help="Steinberg word calculator")
    p.add_argument("action", choices=["eval"])
    p.add_argument("--group", required=True, help="builtin group name")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--word", required=True, help="e.g. 'x(1,2;+a) x(2,1;-a^-1) x(1,2;+a)'")
    add_budget(p)
    p.set_defaults(func=_cmd_steinberg)

    p = sub.add_parser("catalog", help="dump the builtin catalog")
    p.add_argument("--max-order", type=int, default=240)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, EnumerationBudgetExceeded, OSError) as exc:
        # an unknown preset, a malformed datum, factor list, word or action,
        # a budget too small, or an unreadable file
        print(f"whdetect: error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
