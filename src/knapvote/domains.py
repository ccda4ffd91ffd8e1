"""Structured utility profiles: single-peaked and single-crossing.

A profile is single-peaked under an item order when every voter's utilities,
read along that order, never strictly rise again after a strict fall (a
nondecreasing run followed by a nonincreasing run; plateaus allowed).

A profile is single-crossing under a voter order when for every ordered pair
of items (a, b) the voters who weakly prefer b to a form one contiguous block.

Recognition reduces both questions to the consecutive-ones property: find a
column order making the ones in every row contiguous. That is solved with a
PQ-tree. The tree returned by the reduction represents all valid orders; we
extract a canonical one (the lexicographically smallest frontier) so that
recognition is deterministic.
"""

from __future__ import annotations

import sys
from typing import Iterable, Optional, Sequence

from .core import GuardrailError, Instance, ValidationError


# ---------------------------------------------------------------------------
# PQ-tree


class _Node:
    __slots__ = ("kind", "children", "col")

    def __init__(self, kind: str, children: Optional[list["_Node"]] = None, col: int = -1):
        self.kind = kind  # "leaf", "P", or "Q"
        self.children = children if children is not None else []
        self.col = col


class _ReduceFail(Exception):
    pass


def _leaf(col: int) -> _Node:
    return _Node("leaf", col=col)


def _group(nodes: list[_Node]) -> _Node:
    # never called with an empty list
    return nodes[0] if len(nodes) == 1 else _Node("P", children=nodes)


def _reduce_nonroot(node: _Node, counts: dict[int, int], sizes: dict[int, int]) -> tuple[str, _Node]:
    """Restructure the subtree so that its full leaves can sit at one end.

    Returns ("empty"|"full"|"partial", node). A partial node is always a Q
    whose children are each wholly empty or wholly full, empties first.
    """
    full = counts[id(node)]
    size = sizes[id(node)]
    if full == 0:
        return "empty", node
    if full == size:
        return "full", node

    processed = [_reduce_nonroot(ch, counts, sizes) for ch in node.children]

    if node.kind == "P":
        empties = [ch for lab, ch in processed if lab == "empty"]
        fulls = [ch for lab, ch in processed if lab == "full"]
        partials = [ch for lab, ch in processed if lab == "partial"]
        if len(partials) >= 2:
            raise _ReduceFail
        if not partials:
            # mixed empties and fulls; both groups nonempty here
            return "partial", _Node("Q", children=[_group(empties), _group(fulls)])
        q = partials[0]
        children = ([_group(empties)] if empties else []) + q.children
        if fulls:
            children = children + [_group(fulls)]
        return "partial", _Node("Q", children=children)

    # Q node: the child sequence must read empties, then at most one partial,
    # then fulls, in the stored direction or its reversal.
    out = _match_one_sided(processed)
    if out is None:
        out = _match_one_sided(list(reversed(processed)))
    if out is None:
        raise _ReduceFail
    node.children = out
    return "partial", node


def _match_one_sided(pairs: list[tuple[str, _Node]]) -> Optional[list[_Node]]:
    out: list[_Node] = []
    state = "e"
    for lab, ch in pairs:
        if lab == "empty":
            if state != "e":
                return None
            out.append(ch)
        elif lab == "full":
            out.append(ch)
            state = "f"
        else:
            if state != "e":
                return None
            out.extend(ch.children)
            state = "f"
    return out


def _reduce_root(node: _Node, counts: dict[int, int], sizes: dict[int, int]) -> _Node:
    full = counts[id(node)]
    size = sizes[id(node)]
    if full == size or node.kind == "leaf":
        return node

    processed = [_reduce_nonroot(ch, counts, sizes) for ch in node.children]

    if node.kind == "P":
        empties = [ch for lab, ch in processed if lab == "empty"]
        fulls = [ch for lab, ch in processed if lab == "full"]
        partials = [ch for lab, ch in processed if lab == "partial"]
        if len(partials) >= 3:
            raise _ReduceFail
        if not partials:
            node.children = empties + [_group(fulls)]
            return node
        if len(partials) == 1:
            q = partials[0]
            if fulls:
                q.children = q.children + [_group(fulls)]
            node.children = empties + [q]
            return node
        q1, q2 = partials
        merged = q1.children + ([_group(fulls)] if fulls else []) + list(reversed(q2.children))
        node.children = empties + [_Node("Q", children=merged)]
        return node

    # Q root: pattern empties*, partial?, fulls*, partial?, empties*.
    out: list[_Node] = []
    state = "pre"
    for lab, ch in processed:
        if lab == "empty":
            if state == "full":
                state = "post"
            out.append(ch)
        elif lab == "full":
            if state == "post":
                raise _ReduceFail
            out.append(ch)
            state = "full"
        else:
            if state == "pre":
                out.extend(ch.children)
                state = "full"
            elif state == "full":
                out.extend(reversed(ch.children))
                state = "post"
            else:
                raise _ReduceFail
    node.children = out
    return node


def _normalize(node: _Node) -> _Node:
    if node.kind == "leaf":
        return node
    node.children = [_normalize(ch) for ch in node.children]
    if len(node.children) == 1:
        return node.children[0]
    if node.kind == "Q" and len(node.children) == 2:
        node.kind = "P"
    return node


def _apply_row(root: _Node, full_cols: frozenset[int]) -> Optional[_Node]:
    counts: dict[int, int] = {}
    sizes: dict[int, int] = {}

    def fill(n: _Node) -> tuple[int, int]:
        if n.kind == "leaf":
            c, s = (1 if n.col in full_cols else 0), 1
        else:
            c = s = 0
            for ch in n.children:
                cc, ss = fill(ch)
                c += cc
                s += ss
        counts[id(n)] = c
        sizes[id(n)] = s
        return c, s

    total, _ = fill(root)
    # descend to the deepest node that still contains every full leaf
    node = root
    while node.kind != "leaf":
        nxt = None
        for ch in node.children:
            if counts[id(ch)] == total:
                nxt = ch
                break
        if nxt is None:
            break
        node = nxt
    try:
        _reduce_root(node, counts, sizes)
    except _ReduceFail:
        return None
    return _normalize(root)


def _frontier(node: _Node) -> tuple[int, ...]:
    if node.kind == "leaf":
        return (node.col,)
    blocks = [_frontier(ch) for ch in node.children]
    if node.kind == "P":
        # disjoint blocks: ordering by first element minimizes the concatenation
        blocks.sort(key=lambda b: b[0])
        return tuple(x for b in blocks for x in b)
    fw = tuple(x for b in blocks for x in b)
    bw = tuple(x for b in reversed(blocks) for x in b)
    return min(fw, bw)


def c1p_order(num_cols: int, rows: Iterable[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """Find a column order making every row's ones contiguous, or None.

    Rows are 0/1 sequences of length ``num_cols``. The returned order is the
    canonical (lexicographically smallest) one among all valid orders, so two
    calls with the same constraints agree.
    """
    if num_cols < 0:
        raise ValidationError("num_cols must be >= 0")
    col_sets: set[frozenset[int]] = set()
    for r, row in enumerate(rows):
        if len(row) != num_cols:
            raise ValidationError(f"row {r} has length {len(row)}, expected {num_cols}")
        ones = []
        for j, v in enumerate(row):
            if v == 1:
                ones.append(j)
            elif v != 0:
                raise ValidationError(f"row {r} has a non 0/1 entry at column {j}")
        if 1 < len(ones) < num_cols:
            col_sets.add(frozenset(ones))
    if num_cols == 0:
        return ()

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10_000 + 20 * num_cols))
    try:
        root: _Node = _leaf(0) if num_cols == 1 else _Node("P", children=[_leaf(j) for j in range(num_cols)])
        # larger rows first tends to keep the tree shallow; sort also makes
        # the reduction order, and hence intermediate trees, deterministic
        for fs in sorted(col_sets, key=lambda s: (-len(s), sorted(s))):
            new_root = _apply_row(root, fs)
            if new_root is None:
                return None
            root = new_root
        return _frontier(root)
    finally:
        sys.setrecursionlimit(old_limit)


# ---------------------------------------------------------------------------
# single-peaked


def _check_permutation(order: Sequence[int], k: int, what: str) -> tuple[int, ...]:
    order = tuple(order)
    if sorted(order) != list(range(k)):
        raise ValidationError(f"order must be a permutation of 0..{k - 1} ({what})")
    return order


def verify_single_peaked(instance: Instance, order: Sequence[int]) -> bool:
    """Check that every voter's utilities are unimodal along the item order."""
    order = _check_permutation(order, instance.num_items, "items")
    for row in instance.utilities:
        descending = False
        prev = row[order[0]]
        for j in order[1:]:
            cur = row[j]
            if cur > prev:
                if descending:
                    return False
            elif cur < prev:
                descending = True
            prev = cur
    return True


def recognize_single_peaked(
    instance: Instance, *, max_rows: int = 1_000_000
) -> Optional[tuple[int, ...]]:
    """Find an item order making the profile single-peaked, or None.

    A row is unimodal along an order exactly when each of its upper level sets
    {items with utility >= t} is contiguous, so recognition is a
    consecutive-ones problem with one row per voter per distinct positive
    utility value.
    """
    m = instance.num_items
    rows: list[list[int]] = []
    for urow in instance.utilities:
        for t in sorted(set(u for u in urow if u > 0)):
            row = [1 if u >= t else 0 for u in urow]
            ones = sum(row)
            if 1 < ones < m:
                rows.append(row)
                if len(rows) > max_rows:
                    raise GuardrailError(
                        f"single-peaked recognition needs more than {max_rows} constraint rows"
                    )
    return c1p_order(m, rows)


# ---------------------------------------------------------------------------
# single-crossing


def verify_single_crossing(instance: Instance, order: Sequence[int]) -> bool:
    """Check that under the voter order every weak-preference set over an
    ordered item pair is one contiguous block."""
    order = _check_permutation(order, instance.num_voters, "voters")
    m = instance.num_items
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            lo = hi = -1
            cnt = 0
            for pos, i in enumerate(order):
                if instance.utilities[i][b] >= instance.utilities[i][a]:
                    if lo < 0:
                        lo = pos
                    hi = pos
                    cnt += 1
            if cnt and hi - lo + 1 != cnt:
                return False
    return True


def recognize_single_crossing(
    instance: Instance, *, max_rows: int = 1_000_000
) -> Optional[tuple[int, ...]]:
    """Find a voter order under which the profile is single-crossing, or None.

    One consecutive-ones row per ordered item pair (a, b), marking the voters
    who weakly prefer b to a; columns are voters.
    """
    n = instance.num_voters
    m = instance.num_items
    if m * (m - 1) > max_rows:
        raise GuardrailError(
            f"single-crossing recognition needs more than {max_rows} constraint rows"
        )
    rows = []
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            rows.append(
                [1 if row[b] >= row[a] else 0 for row in instance.utilities]
            )
    return c1p_order(n, rows)
