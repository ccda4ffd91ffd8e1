"""Command-line interface.

Subcommands:
  solve         pick a solver (or let auto dispatch) and print a solution
  check-domain  recognize or verify a structured-preference order
  generate      build a solver instance from a source problem description
  evaluate      score a user-supplied selection of items

Exit codes: 0 success, 2 parse or validation error, 3 resource guardrail,
4 decision answered "no" (threshold unmet, or no witness order exists).
All input and output documents are JSON; see the README for the schemas.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
import sys
from typing import Any, Callable, Optional

from .core import GuardrailError, Objective, ValidationError, make_solution
from .documents import (
    _decimal_to_int,
    _dumps,
    _load_json,
    _require_keys,
    emit_evaluation,
    emit_instance,
    emit_reduction_metadata,
    emit_solution,
    parse_instance,
    parse_order,
)
from .domains import (
    recognize_single_crossing,
    recognize_single_peaked,
    verify_single_crossing,
    verify_single_peaked,
)
from .reductions import (
    SetSystem,
    SourceGraph,
    from_dominating_set,
    from_ersp,
    from_exact_partition,
    from_knapsack,
    from_multicolored_clique,
    from_partition,
    from_x3c,
)
from .solvers import _ROUTES, DEFAULT_OPTIONS, SolveOptions, solve_auto


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e.strerror or e}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e.strerror or e}")


@functools.cache  # built once per process; main() only parses
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knapvote",
        description="Budgeted selection with voter utilities: exact solvers, "
        "structured-domain recognition, and hardness-instance generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance and print the solution")
    p.add_argument(
        "--objective", required=True, choices=sorted(k.value for k in Objective)
    )
    p.add_argument("--method", default="auto", choices=["auto", *_ROUTES])
    p.add_argument(
        "--threshold",
        metavar="D",
        help="decision mode: decimal value the solution must reach (exit 4 if not)",
    )
    p.add_argument("--max-cells", type=int, metavar="N", help="table-size guardrail")
    p.add_argument(
        "--max-fpt-voters", type=int, metavar="N", help="voter cap for the fpt method"
    )
    p.add_argument("file")

    p = sub.add_parser("check-domain", help="find or verify a witness order")
    p.add_argument("--kind", required=True, choices=["sp", "sc"])
    p.add_argument(
        "--order",
        metavar="FILE",
        help="verify this order (a JSON array) instead of searching for one",
    )
    p.add_argument("file")

    p = sub.add_parser("generate", help="build an instance from a source problem")
    p.add_argument("--reduction", required=True, choices=list(_REDUCTIONS))
    p.add_argument("--params", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")

    p = sub.add_parser("evaluate", help="score a fixed selection of items")
    p.add_argument(
        "--objective", required=True, choices=sorted(k.value for k in Objective)
    )
    p.add_argument(
        "--selection", required=True, metavar="NAMES", help="comma-separated item names"
    )
    p.add_argument("file")

    return parser


def _options_from(args: argparse.Namespace) -> SolveOptions:
    overrides = {}
    if getattr(args, "max_cells", None) is not None:
        overrides["max_dp_cells"] = args.max_cells
    if getattr(args, "max_fpt_voters", None) is not None:
        overrides["max_fpt_voters"] = args.max_fpt_voters
    if not overrides:
        return DEFAULT_OPTIONS
    return dataclasses.replace(DEFAULT_OPTIONS, **overrides)


def _parse_threshold(text: str) -> int:
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValidationError(f"threshold must be a decimal integer, got {text!r}")
    return _decimal_to_int(text)


def _run_solve(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.file))
    objective = Objective(args.objective)
    options = _options_from(args)
    threshold = None if args.threshold is None else _parse_threshold(args.threshold)

    if args.method == "auto":
        solution = solve_auto(instance, objective, options)
    else:
        solution = _ROUTES[args.method].solve(instance, objective, options)

    meets: Optional[bool] = None
    if threshold is not None:
        meets = solution.value.score >= threshold
    sys.stdout.write(emit_solution(instance, solution, meets_threshold=meets))
    return 0 if meets is not False else 4


def _run_check_domain(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.file))
    if args.order is not None:
        order = parse_order(_read(args.order))
        if args.kind == "sp":
            ok = verify_single_peaked(instance, order)
        else:
            ok = verify_single_crossing(instance, order)
        sys.stdout.write(_dumps({"kind": args.kind, "valid": ok}))
        return 0 if ok else 4
    if args.kind == "sp":
        found = recognize_single_peaked(instance)
    else:
        found = recognize_single_crossing(instance)
    doc = {"kind": args.kind, "order": list(found) if found is not None else "none"}
    sys.stdout.write(_dumps(doc))
    return 0 if found is not None else 4


def _build_reduction(name: str, params: Any):
    if not isinstance(params, dict):
        raise ValidationError("parameter file must hold a JSON object")
    keys, build = _REDUCTIONS[name]
    _require_keys(params, keys, "parameter")
    return build(**params)


def _parse_graph(num_vertices: Any, edges: Any, coloring: Any = None) -> SourceGraph:
    # SourceGraph names an edge with too many endpoints by its value; a
    # parameter file names it by its index
    for i, e in enumerate(edges if isinstance(edges, list) else ()):
        if isinstance(e, list) and len(e) != 2:
            raise ValidationError(f"edges[{i}] must have exactly two endpoints")
    return SourceGraph(num_vertices, edges, coloring)


# --reduction name: (the parameter file's keys, the generator they are passed
# to). The generators check the parameters; the lambdas look them up when
# called, so a function rebound on this module is the one called.
_REDUCTIONS: dict[str, tuple[set[str], Callable[..., Any]]] = {
    "knapsack": (
        {"values", "weights", "value_target", "weight_budget"},
        lambda **p: from_knapsack(**p),
    ),
    "partition": ({"entries"}, lambda **p: from_partition(**p)),
    "exact-partition": ({"entries", "k"}, lambda **p: from_exact_partition(**p)),
    "ersp": ({"universe_size", "sets", "d", "k"}, lambda **p: from_ersp(**p)),
    "dominating-set": (
        {"num_vertices", "edges", "k"},
        lambda k, **g: from_dominating_set(_parse_graph(**g), k),
    ),
    "multicolored-clique": (
        {"num_vertices", "edges", "coloring", "k"},
        lambda k, **g: from_multicolored_clique(_parse_graph(**g), k),
    ),
    "x3c": ({"universe_size", "sets"}, lambda **s: from_x3c(SetSystem(**s))),
}


def _run_generate(args: argparse.Namespace) -> int:
    reduction = _build_reduction(args.reduction, _load_json(_read(args.params)))
    _write(args.out, emit_instance(reduction.instance))
    sys.stdout.write(emit_reduction_metadata(reduction))
    return 0


def _run_evaluate(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.file))
    objective = Objective(args.objective)
    names = [s for s in args.selection.split(",") if s]
    index_of = {name: j for j, name in enumerate(instance.item_names)}
    selected = []
    for name in names:
        if name not in index_of:
            raise ValidationError(f"unknown item name {name!r}")
        selected.append(index_of[name])
    if len(set(selected)) != len(selected):
        raise ValidationError("selection repeats an item")
    solution = make_solution(instance, objective, selected, "evaluate")
    sys.stdout.write(
        emit_evaluation(
            instance,
            objective.value,
            solution.knapsack,
            solution.value.score,
            solution.total_cost,
            solution.per_voter_utility,
            solution.total_cost <= instance.budget,
        )
    )
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    runner = {
        "solve": _run_solve,
        "check-domain": _run_check_domain,
        "generate": _run_generate,
        "evaluate": _run_evaluate,
    }[args.command]
    try:
        return runner(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GuardrailError as e:
        print(f"guardrail: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
