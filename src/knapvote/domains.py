"""Structured utility profiles: single-peaked and single-crossing.

A profile is single-peaked under an item order when every voter's utilities,
read along that order, never strictly rise again after a strict fall (a
nondecreasing run followed by a nonincreasing run; plateaus allowed).

A profile is single-crossing under a voter order when for every ordered pair
of items (a, b) the voters who weakly prefer b to a form one contiguous block.

Recognition reduces both questions to the consecutive-ones property: find a
column order making the ones in every row contiguous. That is solved with a
PQ-tree (Booth & Lueker 1976). Each node carries the bitmask of the columns
below it, so a row is applied by walking down to the deepest node holding all
of its ones and restructuring only the chains of partly covered nodes below
it. Every pass is a loop, never a recursion, so a tree as deep as the number
of columns needs no change to the interpreter's recursion limit. The tree
represents all valid orders; we extract a canonical one (the
lexicographically smallest frontier) so that recognition is deterministic.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .core import GuardrailError, Instance, ValidationError, _is_int


# ---------------------------------------------------------------------------
# PQ-tree


class _Node:
    __slots__ = ("kind", "children", "leaves")

    def __init__(self, kind: str, children: list["_Node"], leaves: int):
        self.kind = kind  # "leaf", "P", or "Q"
        self.children = children
        self.leaves = leaves  # bitmask of the columns below this node


class _ReduceFail(Exception):
    pass


def _make(kind: str, children: list[_Node]) -> _Node:
    # never called with an empty list; a two-child Q allows both of its
    # orders, which is what a P node means
    if len(children) == 1:
        return children[0]
    leaves = 0
    for ch in children:
        leaves |= ch.leaves
    return _Node("P" if len(children) == 2 else kind, children, leaves)


def _block(nodes: list[_Node]) -> list[_Node]:
    return [_make("P", nodes)] if nodes else []


def _label(node: _Node, full: int) -> int:
    """0 if the node holds no full leaf, 2 if it holds only full leaves, else 1."""
    hit = node.leaves & full
    return 0 if hit == 0 else 2 if hit == node.leaves else 1


def _reduce_partial(node: _Node, full: int) -> list[_Node]:
    """Restructure a partial non-root subtree so that its full leaves can sit
    at one end.

    Returns the sequence of subtrees that replaces it inside a Q node, each
    wholly empty or wholly full, empties first. Below the reduced root a
    partial node has at most one partial child, so the partial nodes form one
    chain, reduced here from the bottom up.
    """
    chain = []
    while True:
        labels = [_label(ch, full) for ch in node.children]
        chain.append((node, labels))
        if 1 not in labels:
            break
        if labels.count(1) > 1:
            raise _ReduceFail
        node = node.children[labels.index(1)]

    out: list[_Node] = []
    for node, labels in reversed(chain):
        if node.kind == "P":
            empties = [ch for ch, lab in zip(node.children, labels) if lab == 0]
            fulls = [ch for ch, lab in zip(node.children, labels) if lab == 2]
            out = _block(empties) + out + _block(fulls)
            continue
        # Q node: the children must read empties, then at most one partial,
        # then fulls, in the stored direction or its reversal
        seq = list(zip(node.children, labels))
        if labels == sorted(labels, reverse=True):
            seq.reverse()
        elif labels != sorted(labels):
            raise _ReduceFail
        out = [x for ch, lab in seq for x in (out if lab == 1 else [ch])]
    return out


def _apply_row(root: _Node, full: int) -> None:
    """Restructure the tree in place so that the columns in ``full`` can sit
    consecutively, or raise _ReduceFail."""
    # descend to the deepest node that still contains every full leaf
    node = root
    while True:
        for ch in node.children:
            if ch.leaves & full == full:
                node = ch
                break
        else:
            break
    if node.leaves == full:
        return
    labels = [_label(ch, full) for ch in node.children]
    if node.kind == "P":
        # up to two partial children meet at the fulls under one Q; copying
        # the result into the node spares updating its parent
        if labels.count(1) > 2:
            raise _ReduceFail
        empties = [ch for ch, lab in zip(node.children, labels) if lab == 0]
        fulls = [ch for ch, lab in zip(node.children, labels) if lab == 2]
        inner = [_reduce_partial(ch, full) for ch, lab in zip(node.children, labels) if lab == 1]
        first, second = (inner + [[], []])[:2]
        new = _make("P", empties + [_make("Q", first + _block(fulls) + second[::-1])])
        node.kind, node.children = new.kind, new.children
        return

    # Q root: pattern empties*, partial?, fulls*, partial?, empties*.
    out: list[_Node] = []
    state = "pre"
    for ch, lab in zip(node.children, labels):
        if lab == 0:
            if state == "full":
                state = "post"
            out.append(ch)
        elif lab == 2:
            if state == "post":
                raise _ReduceFail
            out.append(ch)
            state = "full"
        elif state == "pre":
            out.extend(_reduce_partial(ch, full))
            state = "full"
        elif state == "full":
            out.extend(reversed(_reduce_partial(ch, full)))
            state = "post"
        else:
            raise _ReduceFail
    node.children = out


def _frontier(root: _Node) -> tuple[int, ...]:
    # Preorder, with each node's children pushed left to right, read backwards
    # lists every subtree whole and after the subtrees of its left siblings,
    # so a node finds its children's blocks, in order, on top of the stack.
    preorder = []
    stack = [root]
    while stack:
        node = stack.pop()
        preorder.append(node)
        stack.extend(node.children)
    blocks: list[tuple[int, ...]] = []
    for node in reversed(preorder):
        if node.kind == "leaf":
            blocks.append((node.leaves.bit_length() - 1,))
            continue
        k = len(node.children)
        kids = blocks[-k:]
        del blocks[-k:]
        if node.kind == "P":
            # disjoint blocks: ordering by first element minimizes the concatenation
            kids.sort()
            blocks.append(tuple(x for b in kids for x in b))
        else:
            fw = tuple(x for b in kids for x in b)
            bw = tuple(x for b in reversed(kids) for x in b)
            blocks.append(min(fw, bw))
    return blocks[0]


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

    root = _make("P", [_Node("leaf", [], 1 << j) for j in range(num_cols)])
    # larger rows first tends to keep the tree shallow; sort also makes
    # the reduction order, and hence intermediate trees, deterministic
    try:
        for fs in sorted(col_sets, key=lambda s: (-len(s), sorted(s))):
            _apply_row(root, sum(1 << j for j in fs))
    except _ReduceFail:
        return None
    return _frontier(root)


# ---------------------------------------------------------------------------
# single-peaked


def _check_permutation(order: Sequence[int], k: int, what: str) -> tuple[int, ...]:
    order = tuple(order)
    if not all(_is_int(j) for j in order) or sorted(order) != list(range(k)):
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


def _weak_preference_rows(
    utilities: Sequence[Sequence[int]], m: int
) -> Iterator[list[int]]:
    """For each ordered pair (a, b) of the m items, a 0/1 row over the given
    voter rows marking those who weakly prefer b to a."""
    for a in range(m):
        for b in range(m):
            if a != b:
                yield [1 if row[b] >= row[a] else 0 for row in utilities]


def verify_single_crossing(instance: Instance, order: Sequence[int]) -> bool:
    """Check that under the voter order every weak-preference set over an
    ordered item pair is one contiguous block."""
    order = _check_permutation(order, instance.num_voters, "voters")
    ordered = [instance.utilities[i] for i in order]
    for prefers in _weak_preference_rows(ordered, instance.num_items):
        # the k marked voters are one block iff the k from the first are marked
        k = sum(prefers)
        first = prefers.index(1) if k else 0
        if 0 in prefers[first : first + k]:
            return False
    return True


def recognize_single_crossing(
    instance: Instance, *, max_rows: int = 1_000_000
) -> Optional[tuple[int, ...]]:
    """Find a voter order under which the profile is single-crossing, or None.

    One consecutive-ones row per ordered item pair (a, b), marking the voters
    who weakly prefer b to a; columns are voters.
    """
    m = instance.num_items
    if m * (m - 1) > max_rows:
        raise GuardrailError(
            f"single-crossing recognition needs more than {max_rows} constraint rows"
        )
    rows = _weak_preference_rows(instance.utilities, m)
    return c1p_order(instance.num_voters, rows)
