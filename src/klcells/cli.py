"""Command line front end.

Subcommands: ring, cells, characters, classify, verify.  Text output follows
the row/column layout of the reference tables; structured output is JSON with
sorted keys and canonically ordered lists, byte-identical across runs.
Exit codes: 0 success, 1 invariant or regression failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import __version__
from .basedring import (
    BasedRing,
    RingError,
    RingFormatError,
    full_kl_ring,
    ring_from_text,
    ring_products,
    ring_to_text,
    subquotient_qn,
    subring_an,
)
from .characters import CharacterTable, character_table, special_character
from .classifier import (
    ClassificationReport,
    ClassifierError,
    _resolve_filters,
    classify,
    named_filters,
)
from .klring import CellPartition, PositivityError, compute_cells, structure_constants
from .matrixmodule import MatrixModule
from .quadfield import FieldElement
from .selfcheck import SMALLEST_MAX_N, run_suite

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _meta(command: str, **extra) -> dict:
    meta = {"tool": "klcells", "version": __version__, "command": command}
    meta.update(extra)
    return meta


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False))


# -- shared renderers -----------------------------------------------------------


def render_combination(labels: Sequence[str], coeffs: Sequence[int]) -> str:
    """"2s+2sts" style rendering of an integer combination of basis labels."""
    parts = []
    for label, coeff in zip(labels, coeffs):
        if coeff == 0:
            continue
        parts.append(label if coeff == 1 else f"{coeff}{label}")
    return "+".join(parts) if parts else "0"


def _render_grid(rows: list[list[str]]) -> str:
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = []
    for r, row in enumerate(rows):
        line = " | ".join(cell.ljust(width) for cell, width in zip(row, widths))
        lines.append(line.rstrip())
        if r == 0:
            lines.append("-+-".join("-" * width for width in widths))
    return "\n".join(lines)


def _multiplication_grid(labels: Sequence[str], product) -> str:
    rows = [["x\\y", *labels]]
    for x, lx in enumerate(labels):
        row = [lx]
        for y in range(len(labels)):
            row.append(render_combination(labels, product(x, y)))
        rows.append(row)
    return _render_grid(rows)


def _value_payload(value: FieldElement) -> dict:
    if value.is_quadratic:
        return {
            "text": str(value),
            "a": str(value.a),
            "b": str(value.b),
            "d": value.d,
        }
    # coordinates in the power basis of the generator, the root of minpoly
    # (constant term first) that the text names
    return {
        "text": str(value),
        "coords": [str(c) for c in value.coords],
        "minpoly": list(value.field.poly),
    }


def _matrix_text(mat: Sequence[Sequence[int]]) -> str:
    return "[" + " / ".join(" ".join(str(v) for v in row) for row in mat) + "]"


def _module_payload(module: MatrixModule) -> list:
    return [
        [label, [v for row in module.mats[i] for v in row]]
        for i, label in enumerate(module.labels)
        if i != module.identity
    ]


def _cells_payload(cells: CellPartition) -> dict:
    def order(pairs):
        return sorted([i, j] for i, j in pairs if i != j)

    return {
        "left": [list(cell) for cell in cells.left],
        "left_order": order(cells.left_leq),
        "right": [list(cell) for cell in cells.right],
        "right_order": order(cells.right_leq),
        "two_sided": [list(cell) for cell in cells.two_sided],
        "two_sided_order": order(cells.two_sided_leq),
    }


def _cells_text(title: str, cells: CellPartition) -> list[str]:
    out = [title]
    for kind, tag in (("two_sided", "J"), ("left", "L"), ("right", "R")):
        parts = [
            f"{tag}{i}={{{', '.join(cell)}}}"
            for i, cell in enumerate(getattr(cells, kind))
        ]
        out.append(f"  {kind.replace('_', '-')}: " + "  ".join(parts))
        pairs = sorted(
            (i, j) for i, j in getattr(cells, f"{kind}_leq") if i != j
        )
        rendered = ", ".join(f"{tag}{i} <= {tag}{j}" for i, j in pairs)
        out.append(f"    order: {rendered if rendered else 'trivial'}")
    return out


def _ring_payload(ring: BasedRing) -> dict:
    constants = []
    for lx, ly, row in ring_products(ring):
        for z, lz in enumerate(ring.labels):
            if row[z]:
                constants.append([lx, ly, lz, row[z]])
    return {
        "labels": list(ring.labels),
        "identity": ring.labels[ring.identity],
        "involution": [ring.labels[i] for i in ring.involution],
        "constants": constants,
    }


def _characters_payload(table: CharacterTable) -> dict:
    return {
        "labels": list(table.ring.labels),
        "columns": list(table.column_names()),
        "exact": table.exact,
        "rows": [
            {
                "name": name,
                "values": [_value_payload(v) for v in row],
            }
            for name, row in zip(table.column_names(), table.rows)
        ],
    }


# -- subcommands ------------------------------------------------------------------


def _pick_ring(args: argparse.Namespace) -> tuple[str, BasedRing]:
    if args.which == "qn":
        return f"Q{args.n}", subquotient_qn(args.n)
    if args.which == "an":
        return f"A{args.n}", subring_an(args.n)
    ring = full_kl_ring(args.n)
    return ring.name, ring


def cmd_ring(args: argparse.Namespace) -> int:
    name, ring = _pick_ring(args)
    if args.format == "ringfile":
        sys.stdout.write(ring_to_text(ring))
        return 0
    if args.format == "structured":
        _emit_json(
            {
                "meta": _meta("ring", n=args.n, which=args.which),
                "ring": _ring_payload(ring),
            }
        )
        return 0
    print(f"multiplication table of {name} (n = {args.n}),", "basis:", ", ".join(ring.labels))
    print(_multiplication_grid(ring.labels, lambda x, y: ring.c[x][y]))
    return 0


def cmd_cells(args: argparse.Namespace) -> int:
    constants = structure_constants(args.n)
    full = compute_cells(constants.labels, constants.c)
    ring = subquotient_qn(args.n)
    sub = compute_cells(ring.labels, ring.c)
    if args.format == "structured":
        _emit_json(
            {
                "meta": _meta("cells", n=args.n),
                "full_ring": _cells_payload(full),
                "subquotient": _cells_payload(sub),
            }
        )
        return 0
    lines = _cells_text(
        f"cells of the Kazhdan-Lusztig ring of D_{2 * args.n} (n = {args.n})", full
    )
    lines += _cells_text(f"cells of the subquotient ring Q{args.n}", sub)
    print("\n".join(lines))
    return 0


def cmd_characters(args: argparse.Namespace) -> int:
    ring = subquotient_qn(args.n)
    table = character_table(ring)
    if args.format == "structured":
        _emit_json(
            {
                "meta": _meta("characters", n=args.n),
                "characters": _characters_payload(table),
            }
        )
        return 0
    print(f"character table of Q{args.n} (n = {args.n})")
    names = table.column_names()
    grid = [["", *names]]
    for b, label in enumerate(ring.labels):
        grid.append([label, *(str(row[b]) for row in table.rows)])
    print(_render_grid(grid))
    if not all(value.is_quadratic for row in table.rows for value in row):
        print(f"λ = 2cos(2π/{args.n})")
    print(f"all values exact; special character: {names[special_character(table)]}")
    return 0


def _report_payload(report: ClassificationReport) -> dict:
    return {
        "meta": _meta(
            "classify",
            ring=report.ring_id,
            filters=list(report.filters),
            bound=report.bound,
            bound_exhausted=report.bound_exhausted,
            max_rank_profiles=[list(p) for p in report.profiles],
            matches_expected=report.matches_expected,
        ),
        "ring": _ring_payload(report.ring),
        "candidates": [
            {
                "rank": c.module.rank,
                "matrices": _module_payload(c.module),
                "multiplicities": list(c.multiplicities)
                if c.multiplicities is not None
                else None,
                "status": c.status,
                "citation": c.note,
            }
            for c in report.candidates
        ],
        "realized_classes": len(report.realized),
    }


def _requested_filters(args: argparse.Namespace) -> list[str]:
    """s-rigidity, then each --filter, less each --no-filter.  Disabling
    transitivity, or a filter that is not applied, is a usage error."""
    removed = _resolve_filters(args.no_filter or ())
    if "transitive" in removed:
        raise ClassifierError("transitivity is always applied; it cannot be disabled")
    filters = ["s-rigidity", *_resolve_filters(args.filter or ())]
    for name in removed:
        if name not in filters:
            raise ClassifierError(f"filter {name!r} is not applied; it cannot be disabled")
    return [name for name in filters if name not in removed]


def cmd_classify(args: argparse.Namespace) -> int:
    if args.ring_file:
        with open(args.ring_file, "r", encoding="utf-8") as handle:
            ring: str | BasedRing = ring_from_text(handle.read())
    else:
        ring = f"Q{args.n}"
    report = classify(
        ring,
        filters=_requested_filters(args),
        rank=args.rank,
        bound=args.bound,
        max_rank=args.max_rank,
    )
    if args.format == "structured":
        _emit_json(_report_payload(report))
    else:
        print(f"classification report for {report.ring_id}")
        print("basis:", ", ".join(report.ring.labels))
        print(
            "faithful rank profiles:",
            "  ".join(str(p) for p in report.profiles) or "(none)",
        )
        print("filters:", ", ".join(report.filters))
        if report.bound_exhausted:
            completeness = "a branch pressed against the bound; completeness not certified"
        elif report.complete:
            completeness = "proven per-entry caps; no branch hit an unproven bound"
        else:
            completeness = (
                "completeness not certified: a --bound, --max-rank, --rank or "
                "--no-filter s-rigidity narrows the run"
            )
        print(f"entry bound: {report.bound} ({completeness})")
        print()
        labels = [
            label
            for i, label in enumerate(report.ring.labels)
            if i != report.ring.identity
        ]
        names = character_table(report.ring).column_names()
        for candidate in report.candidates:
            module = candidate.module
            mats = "  ".join(
                f"{label} = {_matrix_text(module.mat(label))}" for label in labels
            )
            print(f"rank {module.rank}  status: {candidate.status}")
            print(f"  {mats}")
            if candidate.multiplicities is not None:
                parts = [
                    f"{m}*{name}"
                    for m, name in zip(candidate.multiplicities, names)
                    if m
                ]
                print(f"  decomposition: {' + '.join(parts) if parts else '0'}")
            print(f"  note: {candidate.note}")
        print()
        regression = {
            True: "ok",
            False: "MISMATCH against bundled data",
            None: "not applicable",
        }[report.matches_expected]
        print(f"realized classes: {len(report.realized)} (regression check: {regression})")
    if report.matches_expected is False:
        return CHECK_FAILURE
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(max_n=args.max_n)
    if args.format == "structured":
        _emit_json(
            {
                "meta": _meta("verify", max_n=args.max_n),
                "ok": report.ok,
                "checks": [
                    {"name": r.name, "ok": r.ok, "cases": r.cases, "detail": r.detail}
                    for r in report.results
                ],
            }
        )
    else:
        print("\n".join(report.lines()))
    return 0 if report.ok else CHECK_FAILURE


# -- argument parsing ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klcells",
        description=(
            "Exact Kazhdan-Lusztig combinatorics of dihedral groups and the "
            "classification of transitive integer matrix modules over the "
            "subquotient rings Q_n."
        ),
    )
    parser.add_argument("--version", action="version", version=f"klcells {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats=("text", "structured")) -> None:
        p.add_argument(
            "--format", choices=formats, default="text", help="output format"
        )

    ring = sub.add_parser("ring", help="print a multiplication table")
    ring.add_argument("--n", type=int, required=True, help="Coxeter exponent n")
    which = ring.add_mutually_exclusive_group()
    which.add_argument(
        "--qn", dest="which", action="store_const", const="qn",
        help="subquotient ring Q_n (default)",
    )
    which.add_argument(
        "--an", dest="which", action="store_const", const="an", help="subring A_n"
    )
    which.add_argument(
        "--full-kl", dest="which", action="store_const", const="full-kl",
        help="full KL ring of D_2n",
    )
    ring.set_defaults(which="qn")
    add_common(ring, formats=("text", "structured", "ringfile"))
    ring.set_defaults(func=cmd_ring)

    cells = sub.add_parser("cells", help="print cell partitions and orders")
    cells.add_argument("--n", type=int, required=True)
    add_common(cells)
    cells.set_defaults(func=cmd_cells)

    chars = sub.add_parser("characters", help="print the character table of Q_n")
    chars.add_argument("--n", type=int, required=True)
    add_common(chars)
    chars.set_defaults(func=cmd_characters)

    cls = sub.add_parser("classify", help="classify transitive matrix modules")
    cls.add_argument("--n", type=int, help="use the bundled ring Q_n")
    cls.add_argument(
        "--ring-file", help="classify a user-supplied ring (serialization format)"
    )
    cls.add_argument("--rank", type=int, help="force a single raw search at this rank")
    cls.add_argument(
        "--filter", action="append", metavar="NAME",
        help=f"enable a named filter ({', '.join(sorted(named_filters()))})",
    )
    cls.add_argument(
        "--no-filter", action="append", metavar="NAME", help="disable a named filter"
    )
    cls.add_argument("--bound", type=int, help="override the entry bound")
    cls.add_argument(
        "--max-rank", type=int,
        help="rank cap for profile screening (default and ceiling: the derived cap)",
    )
    add_common(cls)
    cls.set_defaults(func=cmd_classify)

    ver = sub.add_parser("verify", help="run the cross-module verification suites")
    ver.add_argument("--max-n", type=int, default=8, help="largest exponent checked")
    add_common(ver)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("ring", "cells", "characters"):
        least = 2 if getattr(args, "which", None) == "full-kl" else 3
        if args.n < least:
            parser.error(f"{args.command} needs --n >= {least}")
    if args.command == "classify":
        if bool(args.ring_file) == (args.n is not None):
            parser.error("classify needs exactly one of --n or --ring-file")
        if args.max_rank is not None and args.max_rank < 1:
            parser.error("--max-rank must be at least 1")
        if args.bound is not None and args.bound < 0:
            parser.error("--bound must be non-negative")
    if args.command == "verify" and args.max_n < SMALLEST_MAX_N:
        parser.error(f"verify needs --max-n >= {SMALLEST_MAX_N}")
    try:
        return args.func(args)
    except (RingFormatError, ClassifierError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (RingError, ValueError, PositivityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILURE


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; send the interpreter's final flush to
        # devnull so that it cannot fail again and print a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = CHECK_FAILURE
    raise SystemExit(code)


if __name__ == "__main__":
    run()
