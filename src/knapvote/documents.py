"""JSON documents: instance parsing and result emission.

Instance documents carry exactly the keys "voters", "items" (array of
{"name", "cost"}), "utilities" (row-major integer matrix), and "budget";
anything else is rejected. All quantities are integers; booleans and floats
are rejected even where JSON would allow them. Emission is deterministic and
byte-stable, and every objective value is rendered as an exact decimal string
so that fair products of any size survive the trip through text.
"""

from __future__ import annotations

import json
from typing import Any, Optional, Sequence

from .core import Instance, Solution, ValidationError, _is_int
from .reductions import ReductionOutput

_APPROXIMATE_METHODS = ("greedy", "greedy-approximate")


# decimal digits per str()/int() call, below the least digit limit an
# interpreter accepts (640; sys.get_int_max_str_digits() is 4300 by default)
_CHUNK = 500


def _int_to_decimal(n: int) -> str:
    """Exact decimal text of an int of any length.

    ``str`` refuses an int past the interpreter's digit limit, so a long one
    is split in two around a power of ten, each half written on its own.
    """
    if n < 0:
        return "-" + _int_to_decimal(-n)
    if n.bit_length() <= 3 * _CHUNK:  # under 10^(0.302 * 3 * _CHUNK)
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of n's digits
    hi, lo = divmod(n, 10**k)
    return _int_to_decimal(hi) + _int_to_decimal(lo).zfill(k)


def _decimal_to_int(text: str) -> int:
    """The int that ``-?[0-9]+`` text of any length writes; the inverse."""
    if text.startswith("-"):
        return -_decimal_to_int(text[1:])
    if len(text) <= _CHUNK:
        return int(text)
    k = len(text) // 2
    return _decimal_to_int(text[:-k]) * 10**k + _decimal_to_int(text[-k:])


def _load_json(text: str) -> Any:
    """Parse JSON text whose integers may have any number of digits."""
    try:
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            raise
        except ValueError:  # an integer past the interpreter's digit limit
            # a parse_int hook on every parse would take several times as long
            return json.loads(text, parse_int=_decimal_to_int)
    except json.JSONDecodeError as e:
        raise ValidationError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")


def _require_keys(doc: dict, required: set[str], noun: str) -> None:
    """Refuse a JSON object whose keys are not exactly ``required``."""
    unknown = sorted(set(doc) - required)
    if unknown:
        raise ValidationError(f"unknown {noun}(s): {', '.join(unknown)}")
    missing = sorted(required - set(doc))
    if missing:
        raise ValidationError(f"missing {noun}(s): {', '.join(missing)}")


def parse_instance(text: str) -> Instance:
    """Parse and fully validate an instance document.

    Raises ValidationError with the offending field's path for malformed
    documents, and with the :class:`Instance` constructor's messages for
    semantic problems.
    """
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ValidationError("top-level value must be an object")
    _require_keys(doc, {"voters", "items", "utilities", "budget"}, "key")

    voters = doc["voters"]
    if not _is_int(voters):
        raise ValidationError('"voters" must be an integer')
    items = doc["items"]
    if not isinstance(items, list):
        raise ValidationError('"items" must be an array')
    names: list[str] = []
    costs: list[int] = []
    for j, entry in enumerate(items):
        if not isinstance(entry, dict):
            raise ValidationError(f"items[{j}] must be an object")
        extra = sorted(set(entry) - {"name", "cost"})
        if extra:
            raise ValidationError(f"items[{j}] has unknown key(s): {', '.join(extra)}")
        if "name" not in entry or "cost" not in entry:
            raise ValidationError(f'items[{j}] needs both "name" and "cost"')
        if not isinstance(entry["name"], str):
            raise ValidationError(f"items[{j}].name must be a string")
        if not _is_int(entry["cost"]):
            raise ValidationError(f"items[{j}].cost must be an integer")
        names.append(entry["name"])
        costs.append(entry["cost"])
    utilities = doc["utilities"]
    if not isinstance(utilities, list):
        raise ValidationError('"utilities" must be an array of arrays')
    rows: list[tuple[int, ...]] = []
    for i, row in enumerate(utilities):
        if not isinstance(row, list):
            raise ValidationError(f"utilities[{i}] must be an array")
        if not set(map(type, row)) <= {int}:  # one pass in C for the common case
            for j, u in enumerate(row):
                if not _is_int(u):
                    raise ValidationError(f"utilities[{i}][{j}] must be an integer")
        rows.append(tuple(row))
    if voters != len(rows):
        raise ValidationError(
            f'"voters" is {voters} but the utility matrix has {len(rows)} rows'
        )
    if not _is_int(doc["budget"]):
        raise ValidationError('"budget" must be an integer')

    return Instance(
        item_names=tuple(names),
        costs=tuple(costs),
        utilities=tuple(rows),
        budget=doc["budget"],
    )


def _dumps(doc: Any) -> str:
    """``json.dumps(doc, indent=2)`` and a newline, for ints of any length."""
    return _encode(doc, "\n") + "\n"


def _encode(value: Any, indent: str) -> str:
    if _is_int(value):
        return _int_to_decimal(value)
    if not value or not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)  # a string, bool, None, [] or {}
    inner = indent + "  "
    if isinstance(value, dict):
        parts = [f"{json.dumps(k)}: {_encode(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(parts) + indent + "}"
    parts = [_encode(v, inner) for v in value]
    return "[" + inner + ("," + inner).join(parts) + indent + "]"


def emit_instance(instance: Instance) -> str:
    """Serialize an instance; parse_instance(emit_instance(x)) == x."""
    doc = {
        "voters": instance.num_voters,
        "items": [
            {"name": name, "cost": cost}
            for name, cost in zip(instance.item_names, instance.costs)
        ],
        "utilities": [list(row) for row in instance.utilities],
        "budget": instance.budget,
    }
    return _dumps(doc)


def emit_solution(
    instance: Instance,
    solution: Solution,
    meets_threshold: Optional[bool] = None,
) -> str:
    """Serialize a solver result; the value is an exact decimal string."""
    doc: dict[str, Any] = {
        "method": solution.method,
        "objective": solution.value.kind.value,
        "selected": [instance.item_names[j] for j in solution.knapsack],
        "total_cost": solution.total_cost,
        "value": _int_to_decimal(solution.value.score),
        "per_voter_utility": list(solution.per_voter_utility),
    }
    if solution.method in _APPROXIMATE_METHODS:
        doc["approximate"] = True
    if meets_threshold is not None:
        doc["meets_threshold"] = meets_threshold
    return _dumps(doc)


def emit_evaluation(
    instance: Instance,
    kind_label: str,
    selected: Sequence[int],
    score: int,
    total_cost: int,
    per_voter: tuple[int, ...],
    feasible: bool,
) -> str:
    doc = {
        "objective": kind_label,
        "selected": [instance.item_names[j] for j in selected],
        "total_cost": total_cost,
        "value": _int_to_decimal(score),
        "per_voter_utility": list(per_voter),
        "feasible": feasible,
    }
    return _dumps(doc)


def emit_reduction_metadata(reduction: ReductionOutput) -> str:
    """Serialize everything about a generated instance except the instance
    itself (which the generate command writes separately): objective,
    exact decimal threshold, witness orders, and the item-to-source map."""
    doc = {
        "objective": reduction.kind.value,
        "threshold": _int_to_decimal(reduction.threshold),
        "sp_witness": list(reduction.sp_witness) if reduction.sp_witness else None,
        "sc_witness": list(reduction.sc_witness) if reduction.sc_witness else None,
        "back_map": {k: list(v) for k, v in reduction.back_map.items()},
    }
    return _dumps(doc)


def parse_order(text: str) -> tuple[int, ...]:
    """Parse a bare JSON array of integers (an item or voter order)."""
    doc = _load_json(text)
    if not isinstance(doc, list) or not all(_is_int(x) for x in doc):
        raise ValidationError("order file must be a JSON array of integers")
    return tuple(doc)
