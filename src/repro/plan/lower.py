"""Lowering: SCL skeleton expressions → :class:`~repro.plan.ir.Plan`.

This is the front half of the SCL compiler (the back half is the plan
interpreter, :mod:`repro.machine.plan_exec`).  Lowering happens *once* per
``(expression, nprocs, grid)`` — every index function is evaluated over
the whole index space here (index functions are pure), producing the
static per-rank send/receive tables of :class:`~repro.plan.ir.Exchange` —
and the resulting plan is cached, so repeated runs (service requests,
chaos sweeps, an ``iterFor`` driver re-running an expression) skip both
the tree-walk and the table construction entirely.

Shape errors are raised at lowering time with the same messages the
tree-walking compiler raised during execution: applying a flat skeleton
to a split configuration, ``combine`` without ``split``, grid skeletons
on 1-D configurations (and vice versa), non-permutation ``send`` maps and
out-of-range ``fetch`` sources are all static properties of the
expression, so the plan either lowers completely or fails before any
virtual processor starts.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

from repro.errors import SkeletonError
from repro.plan import ir
from repro.scl import nodes as N

__all__ = ["lower", "lower_uncached", "tuned_lower", "TunedPlan",
           "clear_plan_cache", "plan_cache_reset", "plan_cache_stats"]

_CACHE: OrderedDict[tuple, ir.Plan] = OrderedDict()
_CACHE_CAP = 512
#: Tuned tier: memoised :func:`repro.tune.tune_expression` winners.  Far
#: smaller than the plan cache because each entry fronts an entire beam
#: search (hundreds of candidate lowerings), not one lowering.
_TUNED: OrderedDict[tuple, "TunedPlan"] = OrderedDict()
_TUNED_CAP = 128
_STATS = {"hits": 0, "misses": 0, "uncachable": 0, "optimized": 0,
          "tuned_hits": 0, "tuned_misses": 0}


def lower(expr: N.Node, nprocs: int,
          grid: tuple[int, int] | None = None,
          opt=None) -> ir.Plan:
    """Lower ``expr`` for ``nprocs`` ranks (row-major over ``grid`` if 2-D).

    ``opt`` is an :class:`~repro.plan.opt.OptConfig` to run the plan
    optimizer's passes over the lowered program, or ``None`` for the raw
    plan.  Cached per ``(expr, nprocs, grid, opt)`` — the config is part
    of the key, so a ``--no-opt`` run is never served an optimized entry
    (and vice versa), and plans optimized for different machine specs
    never alias.  Expressions whose nodes are not hashable (e.g. a
    ``Brdcast`` of a numpy array) are lowered fresh each time.
    """
    key = (expr, nprocs, grid, opt)
    try:
        cached = _CACHE.get(key)
    except TypeError:
        _STATS["uncachable"] += 1
        plan = _lower(expr, nprocs, grid)
        return plan if opt is None else _optimize(plan, opt)
    if cached is not None:
        _STATS["hits"] += 1
        _CACHE.move_to_end(key)
        return cached
    _STATS["misses"] += 1
    if opt is None:
        plan = _lower(expr, nprocs, grid)
    else:
        # build on the raw plan's cache entry, then run the passes once
        plan = _optimize(lower(expr, nprocs, grid), opt)
        _STATS["optimized"] += 1
    _CACHE[key] = plan
    while len(_CACHE) > _CACHE_CAP:
        _CACHE.popitem(last=False)
    return plan


def _optimize(plan: ir.Plan, opt, routes: dict | None = None) -> ir.Plan:
    from repro.plan.opt import _optimize_report

    return _optimize_report(plan, opt, routes)[0]


def lower_uncached(expr: N.Node, nprocs: int,
                   grid: tuple[int, int] | None = None,
                   opt=None) -> ir.Plan:
    """Like :func:`lower` but without touching the cache or its counters.

    For callers that lower *throwaway* expressions — the beam search
    scores hundreds of candidates that will never be lowered again, and
    routing them through the LRU would evict genuinely hot plans and
    drown the hit-rate metric the service reports.  (Nested
    ``map``-of-sub-expression lowerings still share the cache: group
    sub-plans recur across candidates.)
    """
    return _lower_scored(expr, nprocs, grid, opt, None)


class _ScoreMemo:
    """One beam search's scoring memo: what its candidates share.

    Candidates are one rewrite apart, so most of each candidate is an
    unchanged subtree of its parent.  ``lowered`` holds the instructions
    of each *closed* subtree (one that neither needs nor leaves an open
    ``split``, see :func:`_emit`); ``routes`` holds ``plan.opt``'s
    route-composition outcomes (see :func:`repro.plan.opt._compose_memo`).
    :func:`repro.tune.tune_expression` makes one per search and drops it
    on return — no table outlives or is shared between searches, so
    concurrent searches need no lock.
    """

    __slots__ = ("lowered", "routes")

    def __init__(self):
        self.lowered: dict[tuple, tuple[ir.Instr, ...]] = {}
        self.routes: dict[tuple, tuple] = {}


def _lower_scored(expr: N.Node, nprocs: int, grid, opt,
                  memo: _ScoreMemo | None) -> ir.Plan:
    """:func:`lower_uncached` sharing ``memo`` (``None``: no memo)."""
    lowered = routes = None
    if memo is not None:
        lowered, routes = memo.lowered, memo.routes
    plan = _lower(expr, nprocs, grid, lowered)
    return plan if opt is None else _optimize(plan, opt, routes)


@dataclasses.dataclass(frozen=True)
class TunedPlan:
    """A beam-searched expression and its lowered plan (tuned-cache value)."""

    #: The searched winner (``original`` when search found no improvement).
    expr: N.Node
    #: ``expr`` lowered under the search's :class:`~repro.plan.opt.OptConfig`.
    plan: ir.Plan
    #: Rule provenance from the original expression to the winner.
    steps: tuple
    #: Pipeline-predicted :class:`~repro.plan.cost.ExprCost` of the
    #: original expression and of the winner.
    cost_before: object
    cost_after: object
    #: Candidates the search scored to find this plan — what a cache hit
    #: on this entry avoids re-lowering.
    explored: int

    @property
    def improved(self) -> bool:
        return bool(self.steps)


def tuned_lower(expr: N.Node, nprocs: int,
                grid: tuple[int, int] | None = None,
                opt=None, *, beam: int = 4, fn_ops: float = 1.0,
                element_bytes: int | None = None) -> TunedPlan:
    """Beam-search ``expr``'s rewrite space and lower the winner — cached.

    The tuned tier sits above the plan cache: a hit returns the searched
    winner's plan without re-running :func:`repro.tune.tune_expression`
    (whose candidate scoring is hundreds of lowerings — too many distinct
    expressions for the plan cache's LRU to retain).  Keyed by
    ``(expr, nprocs, grid, opt, beam, fn_ops, element_bytes)``; ``opt``
    is the :class:`~repro.plan.opt.OptConfig` candidates are lowered and
    priced with, so the machine spec and topology signature are part of
    the key — a plan tuned for a single-port hypercube is never served
    to a ring.
    """
    from repro.plan.opt import OptConfig

    if opt is None:
        opt = OptConfig()
    key = (expr, nprocs, grid, opt, beam, fn_ops, element_bytes)
    try:
        cached = _TUNED.get(key)
    except TypeError:
        _STATS["uncachable"] += 1
        return _tune_and_lower(expr, nprocs, grid, opt, beam=beam,
                               fn_ops=fn_ops, element_bytes=element_bytes)
    if cached is not None:
        _STATS["tuned_hits"] += 1
        _TUNED.move_to_end(key)
        return cached
    _STATS["tuned_misses"] += 1
    tuned = _tune_and_lower(expr, nprocs, grid, opt, beam=beam,
                            fn_ops=fn_ops, element_bytes=element_bytes)
    _TUNED[key] = tuned
    while len(_TUNED) > _TUNED_CAP:
        _TUNED.popitem(last=False)
    return tuned


def _tune_and_lower(expr: N.Node, nprocs: int, grid, opt, *,
                    beam: int, fn_ops: float,
                    element_bytes: int | None) -> TunedPlan:
    from repro.machine.cost import PERFECT
    from repro.tune import tune_expression

    spec = opt.spec if opt.spec is not None else PERFECT
    res = tune_expression(expr, nprocs=nprocs, grid=grid, spec=spec,
                          topo=opt.topo, opt=opt, beam=beam,
                          fn_ops=fn_ops, element_bytes=element_bytes)
    winner = res.best if res.improved else res.original
    plan = lower(winner.expr, nprocs, grid, opt=opt)
    return TunedPlan(winner.expr, plan, winner.steps,
                     res.original.cost, winner.cost, res.explored)


def clear_plan_cache() -> None:
    """Drop all cached plans — both tiers — and reset the counters."""
    _CACHE.clear()
    _TUNED.clear()
    _STATS.update(hits=0, misses=0, uncachable=0, optimized=0,
                  tuned_hits=0, tuned_misses=0)


def plan_cache_reset() -> None:
    """Zero the traffic counters but *keep* the cached plans.

    The test helper for counter-delta assertions: a test that wants
    "this run produced N hits" can reset and count from zero without
    discarding warm plans another test (or an earlier phase of the same
    test) paid to build.  :func:`clear_plan_cache` remains the full
    reset for tests that need cold-cache behaviour.
    """
    _STATS.update(hits=0, misses=0, uncachable=0, optimized=0,
                  tuned_hits=0, tuned_misses=0)


def plan_cache_stats() -> dict[str, int]:
    """Cache metrics: ``{"size", "hits", "misses", "uncachable",
    "optimized", "tuned_size", "tuned_hits", "tuned_misses"}`` —
    ``optimized`` counts cache misses that ran the optimizer pipeline
    (raw lowerings they built on count separately); the ``tuned_*``
    counters track :func:`tuned_lower`'s search-result tier."""
    return {"size": len(_CACHE), "tuned_size": len(_TUNED), **_STATS}


def _lower(expr: N.Node, nprocs: int,
           grid: tuple[int, int] | None,
           lowered: dict | None = None) -> ir.Plan:
    out: list[ir.Instr] = []
    _emit(expr, nprocs, grid, out, [], lowered)
    returns_scalar = bool(out) and isinstance(out[-1], ir.Collective) \
        and out[-1].kind == "fold"
    return ir.Plan(tuple(out), nprocs, grid, returns_scalar)


def _emit(node: N.Node, p: int, grid: tuple[int, int] | None,
          out: list[ir.Instr],
          splits: list[ir.GroupSplit],
          lowered: dict | None = None) -> None:
    """Append the instructions of ``node`` to ``out``.

    ``splits`` is the static stack of open ``split``s — the lowering-time
    image of the tree-walker's ``_Grouped`` value wrapper, used to resolve
    nesting errors and to find the group shapes a ``map`` of a
    sub-expression runs over.

    ``lowered`` is a search's :attr:`_ScoreMemo.lowered`, or ``None``.
    With no ``split`` open, a non-``Compose`` node lowers to the same
    instructions wherever it appears: they are looked up by ``(node, p,
    grid)`` and stored if the node leaves no ``split`` open.  Unhashable
    nodes and subtrees that raise are lowered as without a memo.
    """
    if isinstance(node, N.Compose):
        for step in reversed(node.steps):
            _emit(step, p, grid, out, splits, lowered)
        return
    if lowered is None or splits:
        _emit_node(node, p, grid, out, splits, lowered)
        return
    key = (node, p, grid)
    try:
        hit = lowered.get(key)
    except TypeError:  # unhashable node (e.g. a numpy farm environment)
        _emit_node(node, p, grid, out, splits, lowered)
        return
    if hit is not None:
        out.extend(hit)
        return
    start = len(out)
    _emit_node(node, p, grid, out, splits, lowered)
    if not splits:
        lowered[key] = tuple(out[start:])


def _emit_node(node: N.Node, p: int, grid: tuple[int, int] | None,
               out: list[ir.Instr], splits: list[ir.GroupSplit],
               lowered: dict | None) -> None:
    """:func:`_emit` for one non-``Compose`` node, without the memo."""
    if isinstance(node, N.Id):
        return

    if isinstance(node, N.Map):
        if isinstance(node.f, N.Node):
            if not splits:
                raise SkeletonError(
                    "map of a sub-expression requires a split (nested) "
                    "configuration — compile `... . split P` first")
            top = splits[-1]
            plans = tuple(lower(node.f, len(members), None)
                          for members in top.groups)
            out.append(ir.SubPlan(plans))
            return
        _no_groups(splits, "map of a base fragment")
        out.append(ir.LocalApply(node.f, label="map"))
        return

    if isinstance(node, N.IMap):
        _no_groups(splits, "imap")
        out.append(ir.LocalApply(node.f, indexed=True, label="imap"))
        return

    if isinstance(node, N.Farm):
        _no_groups(splits, "farm")
        out.append(ir.LocalApply(node.f, farm_env=node.env, label="farm"))
        return

    if isinstance(node, N.RotateRow):
        _require_grid(grid, "rotate_row")
        rows, cols = grid
        sends, recvs = [], []
        for r in range(p):
            i, j = divmod(r, cols)
            k = node.df(i) % cols
            if k == 0:
                sends.append(())
                recvs.append((r,))
            else:
                sends.append((i * cols + (j - k) % cols,))
                recvs.append((i * cols + (j + k) % cols,))
        out.append(ir.Exchange("replace", tuple(sends), tuple(recvs),
                               label="rotate_row"))
        return

    if isinstance(node, N.RotateCol):
        _require_grid(grid, "rotate_col")
        rows, cols = grid
        sends, recvs = [], []
        for r in range(p):
            i, j = divmod(r, cols)
            k = node.df(j) % rows
            if k == 0:
                sends.append(())
                recvs.append((r,))
            else:
                sends.append((((i - k) % rows) * cols + j,))
                recvs.append((((i + k) % rows) * cols + j,))
        out.append(ir.Exchange("replace", tuple(sends), tuple(recvs),
                               label="rotate_col"))
        return

    if isinstance(node, N.Fold):
        out.append(ir.Collective("fold", op=node.op, label="fold"))
        return

    if isinstance(node, N.Scan):
        _no_grid(grid, "scan")
        out.append(ir.Collective("scan", op=node.op, label="scan"))
        return

    if isinstance(node, N.Rotate):
        _no_grid(grid, "rotate")
        k = node.k % p
        if k != 0:
            out.append(ir.Rotate(k))
        return

    if isinstance(node, N.Fetch):
        _no_grid(grid, "fetch")
        srcs = _rank_table(node.f, p, "fetch: source")
        out.append(ir.exchange_from_srcs("replace", srcs, "fetch"))
        return

    if isinstance(node, N.AlignFetch):
        _no_grid(grid, "align-fetch")
        srcs = _rank_table(node.f, p, "align-fetch: source")
        out.append(ir.exchange_from_srcs("pair", srcs, "align-fetch"))
        return

    if isinstance(node, N.PermSend):
        _no_grid(grid, "send")
        dsts = _rank_table(node.f, p, "send: destination")
        sources = _sources_by_dst(enumerate(dsts), p)
        for r in range(p):
            n = len(sources[r])
            if n != 1:
                raise SkeletonError(
                    f"send: index {r} receives {n} elements — "
                    f"the index map is not a permutation")
        sends = tuple((dsts[r],) if dsts[r] != r else () for r in range(p))
        recvs = tuple(map(tuple, sources))
        out.append(ir.Exchange("replace", sends, recvs, label="send"))
        return

    if isinstance(node, N.SendNode):
        _no_grid(grid, "send")
        dst_lists = []
        for r in range(p):
            dsts = tuple(node.f(r))
            for dst in dsts:
                if not (0 <= dst < p):
                    raise SkeletonError(
                        f"send: destination {dst} out of range 0..{p - 1}")
            dst_lists.append(dsts)
        sends = tuple(tuple(d for d in dst_lists[r] if d != r)
                      for r in range(p))
        sources = _sources_by_dst(((k, d) for k, dsts in enumerate(dst_lists)
                                   for d in dsts), p)
        recvs = tuple(map(tuple, sources))
        out.append(ir.Exchange("collect", sends, recvs, label="send*"))
        return

    if isinstance(node, N.Brdcast):
        out.append(ir.Collective("bcast", value=node.a, label="brdcast"))
        return

    if isinstance(node, N.ApplyBrdcast):
        if grid is not None and isinstance(node.i, tuple):
            root = node.i[0] * grid[1] + node.i[1]
        else:
            root = node.i if isinstance(node.i, int) else node.i[0]
        out.append(ir.Collective("apply_bcast", op=node.f, root=root,
                                 label="applybrdcast"))
        return

    if isinstance(node, N.Split):
        _no_grid(grid, "split")
        if splits:
            raise SkeletonError(
                "split cannot be applied to a split configuration — "
                "`combine` first")
        raw = node.pattern.split(list(range(p)))
        groups = [tuple(raw[idx]) for idx in raw.indices()]
        first_group: dict[int, int] = {}
        for gi, members in enumerate(groups):
            for r in members:
                first_group.setdefault(r, gi)
        group_of = []
        for r in range(p):
            if r not in first_group:
                raise SkeletonError(f"split pattern lost rank {r}")
            group_of.append(first_group[r])
        instr = ir.GroupSplit(tuple(groups), tuple(group_of))
        out.append(instr)
        splits.append(instr)
        return

    if isinstance(node, N.Combine):
        if not splits:
            raise SkeletonError("combine without a preceding split")
        splits.pop()
        out.append(ir.GroupCombine())
        return

    if isinstance(node, N.Spmd):
        _no_groups(splits, "SPMD")
        for stage in node.stages:
            if stage.local is not None:
                out.append(ir.LocalApply(stage.local, indexed=stage.indexed,
                                         label="spmd-local"))
            if stage.global_ is not None:
                _emit(stage.global_, p, grid, out, splits, lowered)
        return

    if isinstance(node, N.IterFor):
        bodies = []
        for i in range(node.n):
            body: list[ir.Instr] = []
            _emit(node.body(i), p, grid, body, splits, lowered)
            bodies.append(tuple(body))
        out.append(ir.Loop(tuple(bodies)))
        return

    raise SkeletonError(
        f"the SCL compiler does not support {type(node).__name__} nodes")


def _rank_table(f, p: int, what: str) -> list:
    """``[f(0), ..., f(p - 1)]``, each checked to be a rank; ``what``
    names the value in the out-of-range error."""
    table = []
    for r in range(p):
        x = f(r)
        if not (0 <= x < p):
            raise SkeletonError(f"{what} {x} out of range 0..{p - 1}")
        table.append(x)
    return table


def _sources_by_dst(edges, p: int) -> list[list[int]]:
    """Bucket ``(src, dst)`` edges by destination rank, keeping edge
    order — one pass over the edges, not one scan of all ranks per rank."""
    sources: list[list[int]] = [[] for _ in range(p)]
    for src, dst in edges:
        sources[dst].append(src)
    return sources


def _require_grid(grid, who: str) -> None:
    if grid is None:
        raise SkeletonError(
            f"{who} requires a 2-D processor grid — run the expression over "
            f"a 2-D ParArray")


def _no_grid(grid, who: str) -> None:
    if grid is not None:
        raise SkeletonError(f"{who} requires a 1-D configuration, got a grid")


def _no_groups(splits: list, who: str) -> None:
    if splits:
        raise SkeletonError(
            f"{who} cannot be applied to a split configuration: the flat "
            f"element semantics would diverge from the nested semantics — "
            f"use `map (<sub-expression>)` or `combine` first")
