"""Tunable benchmark workloads: where search and greedy rewriting diverge.

``tuned_sort_pipeline`` is hyperquicksort followed by a naively-written
per-group summary epilogue: each round stamps the local block three times
(three adjacent un-fused ``map`` s) after replicating two group leaders'
blocks with two sparse ``fetch`` steps — first every quarter-leader
(rank ``r - r%4``, fan-out 3), then every block-leader's quarter image
(rank ``16*(r//16) + r%4``, fan-out 3).

Both optimizers see the same §4 laws here, but they price them
differently:

* **greedy** (:func:`repro.scl.optimize.optimize` with
  ``strategy="greedy"``) rewrites to fixpoint and accepts the package
  all-or-nothing against the *raw* lowering: the map fusions save two
  predicted barriers per round, which more than covers the fetch
  fusion's penalty — so the fused ``fetch`` survives, composing the two
  fan-out-3 exchanges into one fan-out-15 funnel (every rank reads the
  block leader directly).
* **search** (:func:`repro.tune.tune_expression`) prices every candidate
  through ``plan.opt`` + ``plan.cost``: the post-lowering passes already
  fuse the adjacent maps for free, so the only thing the symbolic fetch
  fusion changes is the exchange degree — 15 serialized port
  transmissions at each block leader versus 3+3 — and the search
  declines it.

On a single-port machine (the contention model the ``msg × degree``
exchange pricing assumes) the declined funnel is a real simulated win:
``python -m repro plan hyperquicksort --search`` reports it as
``speedup_vs_greedy``.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.machine.cost import AP1000, MachineSpec
from repro.machine.simulator import Machine
from repro.machine.topology import Hypercube
from repro.scl import nodes as N

__all__ = ["tuned_sort_pipeline", "run_tuned_hyperquicksort",
           "TUNED_REPEATS", "QUARTER", "BLOCK"]

#: Epilogue rounds in the benchmark pipeline; each contributes three
#: fusible maps and one fusible (but traffic-concentrating) fetch pair.
TUNED_REPEATS = 6
#: Fan-in group sizes of the two sparse fetches (and their composition).
QUARTER = 4
BLOCK = QUARTER * QUARTER


def _quarter_leader(r: int) -> int:
    """Source map of the first fetch: every rank reads its quarter leader."""
    return r - r % QUARTER


def _block_pick(r: int) -> int:
    """Source map of the second fetch: the quarter image inside the block
    (composes with :func:`_quarter_leader` into the fan-out-15 funnel
    ``r -> BLOCK * (r // BLOCK)``)."""
    return BLOCK * (r // BLOCK) + r % QUARTER


def _stamp_shift(block):
    return block + 3


def _stamp_mark(block):
    return block ^ 1


def _stamp_settle(block):
    return block - 2


def _epilogue_round() -> tuple[N.Node, ...]:
    """One naive epilogue round, innermost (rightmost) step first."""
    return (
        N.Map(_stamp_settle),
        N.Map(_stamp_mark),
        N.Map(_stamp_shift),
        N.Fetch(_block_pick),
        N.Fetch(_quarter_leader),
    )


@functools.lru_cache(maxsize=None)
def tuned_sort_pipeline(d: int, repeats: int = TUNED_REPEATS) -> N.Node:
    """Hyperquicksort plus ``repeats`` naive epilogue rounds (see module
    docstring).  Memoised so every caller shares one expression object
    and the plan / tuned-plan caches key consistently."""
    from repro.apps.sort import hyperquicksort_expression

    if (1 << d) % BLOCK:
        raise ValueError(
            f"tuned pipeline needs {BLOCK} | nprocs, got p={1 << d}")
    steps: list[N.Node] = []
    for _ in range(repeats):
        steps.extend(_epilogue_round())
    steps.append(hyperquicksort_expression(d))
    return N.compose_nodes(*steps)


def run_tuned_hyperquicksort(values, d: int, *,
                             spec: MachineSpec = AP1000,
                             strategy: str = "search", beam: int = 4,
                             repeats: int = TUNED_REPEATS):
    """Optimize the tuned pipeline with ``strategy`` and run the winner.

    Returns ``(blocks_out, result, report)`` where ``report`` is the
    :class:`~repro.scl.optimize.OptimizeReport` of the chosen strategy.
    The machine is a single-port hypercube: the one-port contention
    model is what the exchange pricing (``msg × degree``) assumes, so
    predicted and simulated rankings describe the same machine.

    The search path goes through :func:`repro.plan.lower.tuned_lower`,
    so repeated runs pay the beam search once and then hit the
    tuned-plan cache tier.
    """
    from repro.apps.sort import seq_quicksort
    from repro.core import Block, parmap, partition
    from repro.scl.compile import run_expression
    from repro.scl.optimize import OptimizeReport, optimize

    values = np.asarray(values)
    p = 1 << d
    expr = tuned_sort_pipeline(d, repeats)
    machine = Machine(Hypercube(d), spec=spec, single_port=True)
    if strategy == "search":
        from repro.plan.lower import tuned_lower
        from repro.plan.opt import OptConfig

        tuned = tuned_lower(expr, p, opt=OptConfig.for_machine(machine),
                            beam=beam)
        report = OptimizeReport(expr, tuned.expr, tuned.cost_before,
                                tuned.cost_after, tuned.steps)
    else:
        report = optimize(expr, n=p, spec=spec, strategy=strategy,
                          beam=beam, topo=machine.topology)
    blocks = parmap(seq_quicksort, partition(Block(p), values))
    out, result = run_expression(report.optimized, blocks, machine,
                                 opt="auto")
    return out, result, report
