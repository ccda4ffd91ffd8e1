"""Generators turning classic decision problems into knapsack instances.

Each generator returns a :class:`ReductionOutput` bundling the produced
instance, the objective it targets, and an exact integer threshold such that
the source instance is a yes-instance if and only if the optimal objective
value reaches the threshold. ``back_map`` ties every produced item name to the
source entity it stands for, and the optional witness orders record structure
the construction is designed to have. :func:`verify_reduction` checks the
equivalence on small inputs with the exhaustive solver.

The source objects and the generators' parameters are valid by construction:
:class:`SourceGraph`, :class:`SetSystem` and every ``from_*`` function refuse
a non-int, a bool, a str or a non-sequence where they take integers or
arrays, and every range violation, with :class:`ValidationError`. Its message
names the parameter as the ``generate`` command's parameter file spells it
("k must be an integer", "sets[2] must be an array of integers").
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

from .core import Instance, Objective, ValidationError, _is_int
from .solvers import SolveOptions, brute_force


def _is_seq(value: object) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def _int(value: object, label: str) -> int:
    if not _is_int(value):
        raise ValidationError(f"{label} must be an integer")
    return value


def _ints(value: object, label: str) -> tuple[int, ...]:
    if not _is_seq(value) or not all(_is_int(x) for x in value):
        raise ValidationError(f"{label} must be an array of integers")
    return tuple(value)


@dataclass(frozen=True)
class SourceGraph:
    """An undirected graph on vertices 0..num_vertices-1, optionally colored."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    coloring: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if _int(self.num_vertices, "num_vertices") < 1:
            raise ValidationError("graph needs at least one vertex")
        if not _is_seq(self.edges):
            raise ValidationError("edges must be an array of two-element arrays")
        norm = []
        seen = set()
        for i, e in enumerate(self.edges):
            if len(_ints(e, f"edges[{i}]")) != 2:
                raise ValidationError(f"edge {e!r} must have two endpoints")
            u, v = e
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            for w in (u, v):
                if not 0 <= w < self.num_vertices:
                    raise ValidationError(f"edge endpoint {w} out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValidationError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(norm))
        if self.coloring is not None:
            coloring = _ints(self.coloring, "coloring")
            if len(coloring) != self.num_vertices:
                raise ValidationError("coloring must assign a color to every vertex")
            object.__setattr__(self, "coloring", coloring)


@dataclass(frozen=True)
class SetSystem:
    """Sets over a universe 0..universe_size-1 (repeated sets are allowed)."""

    universe_size: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if _int(self.universe_size, "universe_size") < 1:
            raise ValidationError("universe must have at least one element")
        if not _is_seq(self.sets):
            raise ValidationError("sets must be an array of arrays")
        norm = []
        for idx, s in enumerate(self.sets):
            elems = sorted(_ints(s, f"sets[{idx}]"))
            for e in elems:
                if not 0 <= e < self.universe_size:
                    raise ValidationError(f"set {idx} has out-of-range element {e}")
            if len(set(elems)) != len(elems):
                raise ValidationError(f"set {idx} repeats an element")
            norm.append(tuple(elems))
        object.__setattr__(self, "sets", tuple(norm))


@dataclass
class ReductionOutput:
    """A produced instance with its decision threshold and bookkeeping.

    sp_witness is an item order the instance is built to be single-peaked
    under; sc_witness a voter order for single-crossing, or None when the
    generator has no verified crossing order; back_map ties each item name to
    the source-problem object it encodes.
    """

    instance: Instance
    kind: Objective
    threshold: int
    back_map: dict[str, tuple] = field(default_factory=dict)
    sp_witness: Optional[tuple[int, ...]] = None
    sc_witness: Optional[tuple[int, ...]] = None


# ---------------------------------------------------------------------------


def from_knapsack(
    values: Sequence[int],
    weights: Sequence[int],
    value_target: int,
    weight_budget: int,
) -> ReductionOutput:
    """Classic knapsack decision as a diverse-objective instance.

    One voter and one item per source item. Voter j adores item j (utility
    scaled far above everything else) and holds small structured utilities for
    the rest, keeping the profile single-peaked and single-crossing under the
    identity orders. Reaching the scaled target is then exactly a source
    packing of value >= value_target.
    """
    values, weights = _ints(values, "values"), _ints(weights, "weights")
    _int(value_target, "value_target")
    _int(weight_budget, "weight_budget")
    n = len(values)
    if n < 1:
        raise ValidationError("need at least one item")
    if len(weights) != n:
        raise ValidationError("values and weights must have equal length")
    for j, v in enumerate(values):
        if v < 1:
            raise ValidationError(f"value at index {j} must be >= 1")
    for j, w in enumerate(weights):
        if w < 1:
            raise ValidationError(f"weight at index {j} must be >= 1")
    if value_target < 0 or weight_budget < 0:
        raise ValidationError("targets must be nonnegative")
    scale = 3 * n * n
    utilities = tuple(
        tuple(
            scale * values[j] if i == j else (j + 1 if i > j else 2 * n - j)
            for j in range(n)
        )
        for i in range(n)
    )
    instance = Instance(
        item_names=tuple(f"item{j}" for j in range(n)),
        costs=weights,
        utilities=utilities,
        budget=weight_budget,
    )
    return ReductionOutput(
        instance=instance,
        kind=Objective.DIVERSE,
        threshold=scale * value_target,
        back_map={f"item{j}": ("item", j) for j in range(n)},
        sp_witness=tuple(range(n)),
        sc_witness=tuple(range(n)),
    )


def from_partition(entries: Sequence[int]) -> ReductionOutput:
    """Partition (split even positive entries into two equal-sum halves) as a
    fair-objective instance with a single voter."""
    entries = _ints(entries, "entries")
    if len(entries) < 1:
        raise ValidationError("need at least one entry")
    for i, s in enumerate(entries):
        if s < 2 or s % 2 != 0:
            raise ValidationError(f"entry at index {i} must be a positive even integer")
    total = sum(entries)
    instance = Instance(
        item_names=tuple(f"entry{i}" for i in range(len(entries))),
        costs=entries,
        utilities=(entries,),
        budget=total // 2,
    )
    return ReductionOutput(
        instance=instance,
        kind=Objective.FAIR,
        threshold=total // 2 + 1,
        back_map={f"entry{i}": ("entry", i) for i in range(len(entries))},
    )


def from_exact_partition(entries: Sequence[int], k: int) -> ReductionOutput:
    """Pick exactly k entries summing to half the total, as a two-voter
    fair-objective instance with unit costs and budget k.

    Entries must be divisible by 2 and by k so the construction's offsets stay
    integral. With j = k items chosen the two voter totals sum to a constant,
    so the product peaks exactly when the chosen entries sum to half.
    """
    entries = _ints(entries, "entries")
    if _int(k, "k") < 1:
        raise ValidationError("k must be >= 1")
    for i, s in enumerate(entries):
        if s < 1 or s % 2 != 0 or s % k != 0:
            raise ValidationError(
                f"entry at index {i} must be positive and divisible by 2 and by k"
            )
    total = sum(entries)
    per = total // k
    instance = Instance(
        item_names=tuple(f"entry{i}" for i in range(len(entries))),
        costs=tuple(1 for _ in entries),
        utilities=(
            tuple(total + s for s in entries),
            tuple(total + per - s for s in entries),
        ),
        budget=k,
    )
    return ReductionOutput(
        instance=instance,
        kind=Objective.FAIR,
        threshold=(1 + k * total + total // 2) ** 2,
        back_map={f"entry{i}": ("entry", i) for i in range(len(entries))},
    )


def from_ersp(universe_size: int, sets: SetSystem, d: int, k: int) -> ReductionOutput:
    """Packing k pairwise disjoint size-d sets, as a fair-objective instance:
    one item per set, one voter per element, 0/1 membership utilities, unit
    costs, budget k.

    (1 + c) <= 2**c for every coverage count c, with equality only at
    c in {0, 1}, so the product reaches 2**(d*k) exactly for k disjoint sets.
    For k past the m sets no k sets exist, and the threshold is
    2**(d*(m + 1)): the product is at most 2**(d*m), so it is out of reach,
    and its size follows the input, not k.
    """
    _int(universe_size, "universe_size")
    system = sets if isinstance(sets, SetSystem) else SetSystem(universe_size, sets)
    if system.universe_size != universe_size:
        raise ValidationError(
            f"universe_size {universe_size} does not match the set system's "
            f"{system.universe_size}"
        )
    if _int(d, "d") < 1:
        raise ValidationError("d must be >= 1")
    if _int(k, "k") < 1:
        raise ValidationError("k must be >= 1")
    if len(system.sets) < 1:
        raise ValidationError("need at least one set")
    for idx, s in enumerate(system.sets):
        if len(s) != d:
            raise ValidationError(f"set {idx} has size {len(s)}, expected {d}")
    m = len(system.sets)
    membership = [set(s) for s in system.sets]
    instance = Instance(
        item_names=tuple(f"set{i}" for i in range(m)),
        costs=tuple(1 for _ in range(m)),
        utilities=tuple(
            tuple(1 if e in membership[j] else 0 for j in range(m))
            for e in range(system.universe_size)
        ),
        budget=k,
    )
    return ReductionOutput(
        instance=instance,
        kind=Objective.FAIR,
        threshold=2 ** (d * min(k, m + 1)),
        back_map={f"set{i}": ("set", i) for i in range(m)},
    )


def from_dominating_set(graph: SourceGraph, k: int) -> ReductionOutput:
    """Dominating set of size at most k, as a diverse-objective instance: one
    item and one voter per vertex, closed-neighborhood 0/1 utilities, unit
    costs, budget k; value reaches the vertex count iff everyone is dominated.
    """
    if not isinstance(graph, SourceGraph):
        raise ValidationError("graph must be a SourceGraph")
    if _int(k, "k") < 1:
        raise ValidationError("k must be >= 1")
    n = graph.num_vertices
    closed = [{v} for v in range(n)]
    for u, v in graph.edges:
        closed[u].add(v)
        closed[v].add(u)
    instance = Instance(
        item_names=tuple(f"v{v}" for v in range(n)),
        costs=tuple(1 for _ in range(n)),
        utilities=tuple(
            tuple(1 if v in closed[i] else 0 for v in range(n)) for i in range(n)
        ),
        budget=k,
    )
    return ReductionOutput(
        instance=instance,
        kind=Objective.DIVERSE,
        threshold=n,
        back_map={f"v{v}": ("vertex", v) for v in range(n)},
    )


def from_multicolored_clique(graph: SourceGraph, k: int) -> ReductionOutput:
    """Multicolored clique (one vertex per color, all adjacent), as a
    fair-objective instance.

    Items are the vertices plus the edges whose endpoints have different
    colors (same-color edges can never join such a clique and are dropped).
    Voter groups force, at the threshold, exactly one vertex per color, one
    edge per color pair, and agreement between each chosen edge and the chosen
    endpoints; every voter then totals exactly the vertex count, so the
    product reaches its cap precisely on yes-instances.
    """
    if not isinstance(graph, SourceGraph):
        raise ValidationError("graph must be a SourceGraph")
    if _int(k, "k") < 2:
        raise ValidationError("k must be >= 2")
    if graph.coloring is None:
        raise ValidationError("a vertex coloring is required")
    n = graph.num_vertices
    colors = graph.coloring
    for v, c in enumerate(colors):
        if not 0 <= c < k:
            raise ValidationError(f"vertex {v} has color {c}, outside 0..{k - 1}")
    if set(colors) != set(range(k)):
        raise ValidationError("every color in 0..k-1 must appear on some vertex")
    t = n
    inter = sorted(e for e in graph.edges if colors[e[0]] != colors[e[1]])
    names = [f"v{v}" for v in range(n)] + [f"e{u}-{v}" for u, v in inter]
    back: dict[str, tuple] = {f"v{v}": ("vertex", v) for v in range(n)}
    back.update({f"e{u}-{v}": ("edge", (u, v)) for u, v in inter})
    num_items = len(names)
    by_color: dict[int, list[int]] = {c: [] for c in range(k)}
    for v in range(n):
        by_color[colors[v]].append(v)
    # rank of each vertex inside its color class, 1-based
    rank = {}
    for c in range(k):
        for i, v in enumerate(by_color[c], start=1):
            rank[v] = i

    rows: list[list[int]] = []
    for c in range(k):
        row = [0] * num_items
        for v in by_color[c]:
            row[v] = t
        rows.append(row)
    pairs = [(c1, c2) for c1 in range(k) for c2 in range(c1 + 1, k)]
    for c1, c2 in pairs:
        row = [0] * num_items
        for idx, (u, v) in enumerate(inter):
            if {colors[u], colors[v]} == {c1, c2}:
                row[n + idx] = t
        for _ in range(k - 2):
            rows.append(list(row))
    for c1 in range(k):
        for c2 in range(k):
            if c1 == c2:
                continue
            row_a = [0] * num_items
            row_b = [0] * num_items
            for v in by_color[c1]:
                row_a[v] = rank[v]
                row_b[v] = t - rank[v]
            for idx, (u, v) in enumerate(inter):
                end = None
                if colors[u] == c1 and colors[v] == c2:
                    end = u
                elif colors[v] == c1 and colors[u] == c2:
                    end = v
                if end is not None:
                    row_a[n + idx] = t - rank[end]
                    row_b[n + idx] = rank[end]
            rows.append(row_a)
            rows.append(row_b)

    budget = k + k * (k - 1) // 2
    instance = Instance(
        item_names=tuple(names),
        costs=tuple(1 for _ in range(num_items)),
        utilities=tuple(tuple(r) for r in rows),
        budget=budget,
    )
    return ReductionOutput(
        instance=instance,
        kind=Objective.FAIR,
        threshold=(t + 1) ** (k * budget),
        back_map=back,
    )


def from_x3c(system: SetSystem) -> ReductionOutput:
    """Exact cover by 3-sets, regular form (3k elements, every set has 3
    elements, every element lies in exactly 3 sets), as a fair-objective
    instance.

    Each set gets a mirrored pair of unit-cost items; budget 2k. Two global
    voters plus a mirrored voter pair per set and per element pin every
    voter's total at the threshold exactly when the chosen item pairs encode k
    disjoint covering sets. The identity item order is recorded as the order
    under which the profile is single-peaked. No voter order is recorded,
    because the profile admits none under which it is single-crossing: each
    set voter's row steps at its own cut points, so their preference sets
    over item pairs do not nest.
    """
    if not isinstance(system, SetSystem):
        raise ValidationError("system must be a SetSystem")
    n = system.universe_size
    if n % 3 != 0:
        raise ValidationError("universe size must be a multiple of 3")
    k = n // 3
    m = len(system.sets)
    if m != n:
        raise ValidationError(
            "regular form requires exactly as many sets as elements"
        )
    occ: list[list[int]] = [[] for _ in range(n)]
    for idx, s in enumerate(system.sets):
        if len(s) != 3:
            raise ValidationError(f"set {idx} must have exactly 3 elements")
        for e in s:
            occ[e].append(idx)
    for e in range(n):
        if len(occ[e]) != 3:
            raise ValidationError(
                f"element {e} appears in {len(occ[e])} sets, regular form needs 3"
            )

    names = [f"F{p}a" for p in range(m)] + [f"F{2 * m - p - 1}b" for p in range(m, 2 * m)]
    width = 2 * m

    def y1_row(i: int) -> list[int]:
        # 1-based thresholds around set index i
        big, mid = 2 * m - i, i + 1
        return [0 if p + 1 <= mid else (6 if p + 1 >= big else 3) for p in range(width)]

    def z1_row(e: int) -> list[int]:
        row = []
        for p in range(width):
            if p < m:
                row.append(sum(1 for l in occ[e] if l <= p))
            else:
                row.append(3 + sum(1 for l in occ[e] if l >= 2 * m - p - 1))
        return row

    def mirror(row: list[int]) -> list[int]:
        return [row[width - p - 1] for p in range(width)]

    x1 = [0 if p < m else 6 for p in range(width)]
    y1 = [y1_row(i) for i in range(m)]
    z1 = [z1_row(e) for e in range(n)]
    # voter layout: x1, x2, y1 block, y2 block, z1 block, z2 block
    rows = (
        [x1, mirror(x1)]
        + y1
        + [mirror(r) for r in y1]
        + z1
        + [mirror(r) for r in z1]
    )

    instance = Instance(
        item_names=tuple(names),
        costs=tuple(1 for _ in range(width)),
        utilities=tuple(tuple(r) for r in rows),
        budget=2 * k,
    )
    back: dict[str, tuple] = {}
    for p in range(m):
        back[f"F{p}a"] = ("set", p, "a")
        back[f"F{p}b"] = ("set", p, "b")
    return ReductionOutput(
        instance=instance,
        kind=Objective.FAIR,
        threshold=(6 * k + 1) ** (2 + 2 * m) * (6 * k + 2) ** (2 * n),
        back_map=back,
        sp_witness=tuple(range(width)),
    )


def verify_reduction(
    reduction: ReductionOutput,
    source_is_yes: bool,
    options: Optional[SolveOptions] = None,
) -> bool:
    """Exhaustively check the reduction's decision equivalence.

    Solves the produced instance with brute force and compares
    optimum >= threshold against the expected source answer.
    """
    sol = brute_force(reduction.instance, reduction.kind, options)
    return (sol.value.score >= reduction.threshold) == bool(source_is_yes)
