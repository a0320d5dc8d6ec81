"""Beam search over SCL rewrite space, scored through the real pipeline.

The §4 rewrite engine and the PR-5 post-lowering pass pipeline used to be
two optimizers that never talked: :func:`repro.scl.optimize.optimize`
rewrote greedily to fixpoint and priced the *raw* lowering, while
:mod:`repro.plan.opt` ran unconditionally after lowering.  This module
puts one cost model in charge of both: every candidate expression is
scored by lowering it through the existing pipeline —
``lower(expr, nprocs, grid, opt=OptConfig(spec, topo))`` followed by
:func:`repro.plan.cost.plan_cost` — so a *pre-lowering* rewrite is
priced by what the *post-lowering* passes make of it on one machine
spec + topology.  That is what lets the search decline a symbolic law
that is locally plausible but globally bad (e.g. fusing two sparse
``fetch`` steps into one traffic-concentrating exchange) while still
taking the fusions that the plan optimizer cannot recover on its own.

The search itself is a plain beam search: the frontier is expanded with
:meth:`repro.scl.rewrite.RewriteEngine.applications` (every expression
one rule application away), candidates are deduplicated by expression
equality, ordered lexicographically by predicted
``(seconds, messages, barriers)``, and the best ``beam`` survive each
round.  The original expression always stays in the candidate pool, so
the winner is never predicted worse than doing nothing.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Any, Sequence

import numpy as np

from repro.machine.cost import MachineSpec, PERFECT
from repro.plan.cost import ExprCost, plan_cost
from repro.scl import nodes as N
from repro.scl.rewrite import RewriteEngine, RewriteStep, Rule

# sys.modules binding (see repro.scl.compile for why): survives both import
# orders of the repro.plan <-> repro.scl cycle and the package-attribute
# shadowing of the `lower` submodule by the `lower` function.
import repro.plan.lower  # noqa: F401  (registers the module in sys.modules)

_plan_lower = sys.modules["repro.plan.lower"]

__all__ = ["Candidate", "TuneResult", "tune_expression", "score_expression",
           "expr_size"]


def expr_size(node: N.Node) -> int:
    """Number of skeleton nodes in ``node``'s tree (tie-break metric)."""
    return 1 + sum(expr_size(k) for k in node.children())


@dataclasses.dataclass(frozen=True)
class Candidate:
    """One point in rewrite space, with its pipeline-predicted cost."""

    expr: N.Node
    cost: ExprCost
    #: False when the expression has no plan form (e.g. ``FoldrFused``)
    #: and was priced by the legacy expression-level model instead.
    lowerable: bool
    #: Rule provenance from the original expression to this candidate.
    steps: tuple[RewriteStep, ...]
    depth: int
    #: :func:`expr_size` of ``expr`` — full-cost ties go to the smaller
    #: expression, so simplifications the post-lowering passes make
    #: cost-invisible (e.g. map fusion, which ``plan.opt`` recovers
    #: anyway) are still taken, while cost-neutral *blow-ups* that the
    #: passes merely repair (e.g. un-fusing a rotation) are declined.
    size: int = 0

    @property
    def rules(self) -> tuple[str, ...]:
        """The rule names applied, in order."""
        return tuple(s.rule for s in self.steps)

    def order_key(self) -> tuple:
        """Lexicographic ranking: seconds, then messages, then barriers,
        then expression size; final ties go to fewer rewrites."""
        return (self.cost.seconds, self.cost.messages, self.cost.barriers,
                self.size, self.depth)


@dataclasses.dataclass(frozen=True)
class TuneResult:
    """Outcome of :func:`tune_expression`."""

    original: Candidate
    best: Candidate
    #: The most promising candidates explored (including ``original`` and
    #: ``best``), ranked by :meth:`Candidate.order_key`.
    frontier: tuple[Candidate, ...]
    #: Total candidates scored (the whole explored set, not just the
    #: reported frontier).
    explored: int
    beam: int
    rounds: int

    @property
    def improved(self) -> bool:
        """True when the winner is a real rewrite predicted to beat the
        original (strictly, on the lexicographic key)."""
        return self.best is not self.original and \
            self.best.order_key() < self.original.order_key()

    @property
    def predicted_speedup(self) -> float:
        """Predicted ratio of original to winner time."""
        if self.best.cost.seconds == 0:
            return float("inf") if self.original.cost.seconds > 0 else 1.0
        return self.original.cost.seconds / self.best.cost.seconds


def score_expression(expr: N.Node, *, nprocs: int,
                     grid: tuple[int, int] | None = None,
                     opt=None, spec: MachineSpec = PERFECT,
                     fn_ops: float = 1.0,
                     element_bytes: int | None = None) -> tuple[ExprCost, bool]:
    """Price ``expr`` through the real pipeline: lower with ``opt``, then
    :func:`plan_cost` on the optimized plan.

    Returns ``(cost, lowerable)``; expressions with no plan form fall
    back to :func:`repro.scl.optimize.estimate_cost`'s legacy model with
    ``lowerable=False``.  Lowering bypasses the plan cache
    (:func:`repro.plan.lower.lower_uncached`): search candidates are
    throwaway expressions that would otherwise evict hot entries and
    distort the service-level hit-rate metric.
    """
    return _score(expr, nprocs, grid, opt, spec, fn_ops, element_bytes, None)


def _score(expr: N.Node, nprocs: int, grid, opt, spec: MachineSpec,
           fn_ops: float, element_bytes: int | None,
           memo) -> tuple[ExprCost, bool]:
    """:func:`score_expression` sharing a search's
    :class:`~repro.plan.lower._ScoreMemo` (``None``: no memo)."""
    from repro.scl.optimize import estimate_cost

    try:
        plan = _plan_lower._lower_scored(expr, nprocs, grid, opt, memo)
    except Exception:
        return estimate_cost(expr, n=nprocs, spec=spec, fn_ops=fn_ops,
                             element_bytes=element_bytes), False
    return plan_cost(plan, spec=spec, fn_ops=fn_ops,
                     element_bytes=element_bytes), True


def _resolve_topo(topo) -> tuple | None:
    """Accept a Topology instance or a prebuilt signature tuple."""
    if topo is None or isinstance(topo, tuple):
        return topo
    from repro.plan.opt import topology_signature

    return topology_signature(topo)


def _structural_key(obj: Any) -> Any:
    """A hashable stand-in for ``obj`` that is equal exactly when the
    compared dataclass fields are: an ndarray becomes its dtype, shape
    and bytes, tuples and lists are keyed element by element."""
    if isinstance(obj, np.ndarray):
        return (np.ndarray, obj.dtype.str, obj.shape, obj.tobytes())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj),) + tuple(_structural_key(getattr(obj, f.name))
                                    for f in dataclasses.fields(obj)
                                    if f.compare)
    if isinstance(obj, (tuple, list)):
        return (type(obj),) + tuple(_structural_key(x) for x in obj)
    return obj


def tune_expression(expr: N.Node, *, nprocs: int,
                    grid: tuple[int, int] | None = None,
                    spec: MachineSpec = PERFECT, topo=None,
                    opt=None, rules: Sequence[Rule] | None = None,
                    beam: int = 4, max_rounds: int = 32,
                    frontier_size: int | None = None,
                    fn_ops: float = 1.0,
                    element_bytes: int | None = None) -> TuneResult:
    """Beam-search the rewrite space of ``expr`` for the cheapest plan.

    ``spec``/``topo`` name the machine the candidates are priced for
    (``topo`` is a :class:`~repro.machine.topology.Topology` or its
    :func:`~repro.plan.opt.topology_signature`); ``opt`` overrides the
    :class:`~repro.plan.opt.OptConfig` the candidates are lowered with
    (default: all passes on, priced on ``spec``/``topo`` — the same
    config ``scl.compile`` would build for that machine).  ``beam``
    candidates survive each expansion round; ``max_rounds`` bounds the
    search depth.  The result's ``best`` is the cheapest candidate seen
    anywhere — including the original, so search never *predicts* a
    regression — restricted to lowerable candidates whenever the
    original itself lowers (the winner must stay runnable).
    """
    from repro.plan.opt import OptConfig
    from repro.scl.rules import ALL_RULES

    if beam <= 0:
        raise ValueError(f"beam must be positive, got {beam}")
    topo_sig = _resolve_topo(topo)
    if opt is None:
        opt = OptConfig(spec=spec, topo=topo_sig)
    engine = RewriteEngine(ALL_RULES if rules is None else rules)
    # Candidates are one rewrite apart: score them all against one memo,
    # so each closed subtree is lowered and each route pair composed once
    # per search.  It is this call's alone and dies with it.
    memo = _plan_lower._ScoreMemo()

    def score(e: N.Node) -> tuple[ExprCost, bool]:
        return _score(e, nprocs, grid, opt, spec, fn_ops, element_bytes,
                      memo)

    seen: set = set()

    def remember(e: Any) -> bool:
        """True the first time ``e`` is seen.  An unhashable ``e`` (an
        ndarray farm environment, say) is keyed structurally."""
        try:
            fresh = e not in seen
        except TypeError:
            e = _structural_key(e)
            try:
                fresh = e not in seen
            except TypeError:
                return True  # no structural key either: always new
        if fresh:
            seen.add(e)
        return fresh

    cost, lowerable = score(expr)
    original = Candidate(expr, cost, lowerable, (), 0, expr_size(expr))
    remember(expr)
    pool = [original]
    frontier = [original]
    rounds = 0
    for _ in range(max_rounds):
        grown: list[Candidate] = []
        for cand in frontier:
            for new_expr, step in engine.applications(cand.expr):
                if not remember(new_expr):
                    continue
                c_cost, c_low = score(new_expr)
                grown.append(Candidate(new_expr, c_cost, c_low,
                                       cand.steps + (step,), cand.depth + 1,
                                       expr_size(new_expr)))
        if not grown:
            break
        rounds += 1
        grown.sort(key=Candidate.order_key)
        pool.extend(grown)
        frontier = grown[:beam]

    eligible = [c for c in pool if c.lowerable] if original.lowerable else pool
    best = min(eligible, key=Candidate.order_key)
    ranked = sorted(pool, key=Candidate.order_key)
    if frontier_size is None:
        frontier_size = max(4 * beam, 16)
    shown = ranked[:frontier_size]
    for must in (best, original):
        if must not in shown:
            shown.append(must)
    return TuneResult(original=original, best=best, frontier=tuple(shown),
                      explored=len(pool), beam=beam, rounds=rounds)
