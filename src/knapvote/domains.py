"""Structured utility profiles: single-peaked and single-crossing.

A profile is single-peaked under an item order when every voter's utilities,
read along that order, never strictly rise again after a strict fall (a
nondecreasing run followed by a nonincreasing run; plateaus allowed).

A profile is single-crossing under a voter order when for every ordered pair
of items (a, b) the voters who weakly prefer b to a form one contiguous block.

Recognition reduces both questions to the consecutive-ones property: find a
column order making the ones in every row contiguous. That is solved with a
PQ-tree (Booth & Lueker 1976). A row is an ``int`` bitmask of its columns, and
each node carries the bitmask of the columns below it, so a row is applied by
walking down to the deepest node holding all of its ones and restructuring
only the chains of partly covered nodes below it. Every pass is a loop, never
a recursion, so a tree as deep as the number of columns needs no change to
the interpreter's recursion limit. The tree represents all valid orders; we
extract a canonical one (the lexicographically smallest frontier) so that
recognition is deterministic.

The recognizers build their rows as bitmasks directly: single-peaked as the
nested upper level sets of each voter, single-crossing as the weak-preference
sets of one numpy comparison, packed along the voter axis. Each drops
duplicates before the tree sees them. :func:`c1p_order` checks 0/1 rows given
from outside and hands them, as bitmasks, to the same core,
:func:`_c1p_masks`.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import GuardrailError, Instance, ValidationError, _int_dtype, _is_int

# the most consecutive-ones rows either recognizer counts before it refuses
_MAX_ROWS = 1_000_000


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


def _frontier(root: _Node, num_cols: int) -> tuple[int, ...]:
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
            blocks.append((num_cols - node.leaves.bit_length(),))
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


def _c1p_masks(num_cols: int, masks: Iterable[int]) -> Optional[tuple[int, ...]]:
    """The canonical column order for rows given as bitmasks, or None.

    Column j is bit ``num_cols - 1 - j`` of a mask, so that of two rows with
    as many ones, the one whose columns come first lexicographically is the
    larger number. Each mask must have between 2 and ``num_cols - 1`` ones;
    a row given twice is applied once.
    """
    if num_cols == 0:
        return ()
    # larger rows first tends to keep the tree shallow; the order among rows
    # of one size (lexicographic by columns) makes the reduction order, and
    # hence intermediate trees, deterministic
    full = (1 << num_cols) - 1
    keys = sorted({mask.bit_count() << num_cols | mask for mask in masks}, reverse=True)
    root = _make("P", [_Node("leaf", [], 1 << (num_cols - 1 - j)) for j in range(num_cols)])
    try:
        for key in keys:
            _apply_row(root, key & full)
    except _ReduceFail:
        return None
    return _frontier(root, num_cols)


def c1p_order(num_cols: int, rows: Iterable[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """Find a column order making every row's ones contiguous, or None.

    Rows are 0/1 sequences of length ``num_cols``. The returned order is the
    canonical (lexicographically smallest) one among all valid orders, so two
    calls with the same constraints agree.
    """
    if num_cols < 0:
        raise ValidationError("num_cols must be >= 0")
    masks = []
    for r, row in enumerate(rows):
        if len(row) != num_cols:
            raise ValidationError(f"row {r} has length {len(row)}, expected {num_cols}")
        mask = 0
        for j, v in enumerate(row):
            if v == 1:
                mask |= 1 << (num_cols - 1 - j)
            elif v != 0:
                raise ValidationError(f"row {r} has a non 0/1 entry at column {j}")
        if 1 < mask.bit_count() < num_cols:
            masks.append(mask)
    return _c1p_masks(num_cols, masks)


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


def recognize_single_peaked(instance: Instance) -> Optional[tuple[int, ...]]:
    """Find an item order making the profile single-peaked, or None.

    A row is unimodal along an order exactly when each of its upper level sets
    {items with utility >= t} is contiguous, so recognition is a
    consecutive-ones problem with one row per voter per distinct positive
    utility value. Read in falling utility order, a voter's items build those
    sets as a nested chain of masks, once per distinct row. The guardrail
    refuses more than ``_MAX_ROWS`` (10^6) sets of 2 to m - 1 items over
    every voter, counted before duplicates are dropped.
    """
    m = instance.num_items
    bits = [1 << (m - 1 - j) for j in range(m)]
    masks = []
    count = 0
    for urow, voters in Counter(instance.utilities).items():
        falling = sorted(range(m), key=urow.__getitem__, reverse=True)
        mask = 0
        sets = 0
        # the first k items are an upper level set when the next one is
        # worth less; the set of all m items is never a constraint
        for k, j in enumerate(falling[:-1], 1):
            if urow[j] == 0:
                break
            mask |= bits[j]
            if k > 1 and urow[falling[k]] < urow[j]:
                masks.append(mask)
                sets += 1
        count += voters * sets
        if count > _MAX_ROWS:
            raise GuardrailError(
                f"single-peaked recognition needs more than {_MAX_ROWS} constraint rows"
            )
    return _c1p_masks(m, masks)


# ---------------------------------------------------------------------------
# single-crossing


def _weak_preference_masks(utilities: Sequence[Sequence[int]]) -> list[int]:
    """The distinct sets, over the given voter rows, of the voters who weakly
    prefer b to a for an ordered item pair (a, b), as bitmasks with the first
    row at the highest bit. Sets of fewer than 2 voters or of all of them are
    left out: they are contiguous under every order.

    The items a are compared a block at a time, each block about 2^18
    pair-by-voter cells, so the m(m - 1) x n comparison never exists whole;
    a profile of up to 16 items and 1,024 voters takes one block.
    """
    n = len(utilities)
    # never let numpy infer the dtype: it reads a row holding 2^63 as float64
    cols = np.array(utilities, dtype=_int_dtype(max(map(max, utilities)))).T
    m = len(cols)
    step = max(1, 2**18 // (m * n))
    rows: set[bytes] = set()
    for lo in range(0, m, step):
        prefers = (cols[None, :, :] >= cols[lo : lo + step, None, :]).reshape(-1, n)
        sizes = prefers.sum(axis=1)
        # eight voters to a byte, the first at the top bit; only distinct byte
        # strings become ints
        packed = np.packbits(prefers[(sizes > 1) & (sizes < n)], axis=1)
        width = packed.shape[1]
        buf = packed.tobytes()
        rows.update(buf[i : i + width] for i in range(0, len(buf), width))
    pad = -n % 8
    return [int.from_bytes(row, "big") >> pad for row in rows]


def verify_single_crossing(instance: Instance, order: Sequence[int]) -> bool:
    """Check that under the voter order every weak-preference set over an
    ordered item pair is one contiguous block."""
    order = _check_permutation(order, instance.num_voters, "voters")
    for mask in _weak_preference_masks([instance.utilities[i] for i in order]):
        # one block of ones, shifted down to bit 0, is one less than a power of 2
        mask //= mask & -mask
        if mask & (mask + 1):
            return False
    return True


def recognize_single_crossing(instance: Instance) -> Optional[tuple[int, ...]]:
    """Find a voter order under which the profile is single-crossing, or None.

    One consecutive-ones row per ordered item pair (a, b), marking the voters
    who weakly prefer b to a; columns are voters. The guardrail refuses more
    than ``_MAX_ROWS`` (10^6) rows, counting all m(m - 1) pairs before
    duplicates are dropped.
    """
    m = instance.num_items
    if m * (m - 1) > _MAX_ROWS:
        raise GuardrailError(
            f"single-crossing recognition needs more than {_MAX_ROWS} constraint rows"
        )
    return _c1p_masks(instance.num_voters, _weak_preference_masks(instance.utilities))
