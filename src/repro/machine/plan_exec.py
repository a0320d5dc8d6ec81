"""The plan interpreter: one SPMD loop executing a lowered plan.

This is the back half of the SCL compiler.  Every virtual processor runs
the *same* :class:`~repro.plan.ir.Plan` through :func:`execute_plan`,
indexing the precomputed communication tables with its own rank — there
is no per-processor tree-walk and no index-function evaluation at run
time.  The interpreter is a generator (like every machine program):
``yield`` s are simulator requests, the return value is the processor's
final local value (a :class:`~repro.plan.ir.Scalar` for reductions).

There is exactly one instruction walk (:func:`run_plan`).  How an
``Exchange``, ``Rotate`` or ``Collective`` moves bytes is delegated to a
*transport* — an object with three generator methods, ``rotate``,
``exchange`` and ``collective`` — so the same walk runs over the raw
network (:data:`RAW`, this module), over the acked, retransmitting
channel of :mod:`repro.faults.plan_exec`, and, for collectives, inside
the request scripter of :mod:`repro.plan.vexec`.  This is the paper's
separation of a skeleton program from the communication mechanism
underneath it.

Group instructions maintain the same value discipline as the old
tree-walking compiler: ``GroupSplit`` wraps the local value in a
:class:`Grouped` frame carrying the subgroup communicator, ``SubPlan``
runs a nested plan inside that frame, and ``GroupCombine`` unwraps.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.machine import collectives as C
from repro.machine import collectives_ext as CX
from repro.machine import tags
from repro.machine.api import Comm
from repro.machine.cost import estimate_nbytes
from repro.machine.simulator import ProcEnv
from repro.plan import ir

__all__ = ["execute_plan", "run_plan", "RawTransport", "RAW", "Grouped",
           "EXCHANGE_TAG"]

#: Tag of all point-to-point plan traffic (rotate / exchange tables).
EXCHANGE_TAG = tags.reserve("plan", "exchange", 0)


@dataclasses.dataclass
class Grouped:
    """Marker value: this processor's slice of a split (nested) array."""

    comm: Comm
    parent: Comm
    local: Any
    gid: int


def execute_plan(plan: ir.Plan, env: ProcEnv, comm: Comm, local: Any,
                 default: float = ir.DEFAULT_FRAGMENT_OPS,
                 label: str = "plan"):
    """Run ``plan`` on this processor over the raw network; the
    generator returns the new local value (see :func:`run_plan`)."""
    return run_plan(plan, env, comm, RAW, local, default, label)


def run_plan(plan: ir.Plan, env: ProcEnv, comm: Comm, transport: Any,
             local: Any, default: float = ir.DEFAULT_FRAGMENT_OPS,
             label: str = "plan"):
    """The generator running ``plan`` on this processor with traffic on
    ``transport``; drive it with ``yield from``.

    On a traced machine every simulator request executes inside a span
    stack ``label → [i] instruction → iter k → …`` (see
    :mod:`repro.machine.trace`), so each trace event is attributed to the
    plan instruction that produced it.  Untraced runs never build a span
    title or enter a span scope — tracing off costs nothing.  (Returning
    the walk's generator, rather than delegating to it, keeps one frame
    off every request's resume path.)
    """
    if env.tracing:
        return _run_labelled(plan, env, comm, transport, local, default,
                             label)
    return _run_seq(plan.instrs, plan, env, comm, transport, local, default)


def _run_labelled(plan: ir.Plan, env: ProcEnv, comm: Comm, tp: Any,
                  local: Any, default: float, label: str):
    with env.span(label):
        return (yield from _run_seq(plan.instrs, plan, env, comm, tp, local,
                                    default))


def _run_seq(instrs, plan: ir.Plan, env: ProcEnv, comm: Comm, tp: Any,
             local: Any, default: float):
    if not env.tracing:
        for instr in instrs:
            local = yield from _step(instr, plan, env, comm, tp, local,
                                     default)
        return local
    for i, instr in enumerate(instrs):
        with env.span(ir.instr_title(instr), instr=i):
            local = yield from _step(instr, plan, env, comm, tp, local,
                                     default)
    return local


def _step(instr: ir.Instr, plan: ir.Plan, env: ProcEnv, comm: Comm, tp: Any,
          local: Any, default: float):
    if isinstance(instr, ir.LocalApply):
        if isinstance(instr.fn, ir.FusedKernel):
            # each constituent charges on its actual input, so the single
            # Compute below equals the sum the unfused run would charge
            idx = (divmod(comm.rank, plan.grid[1])
                   if plan.grid is not None else comm.rank)
            result, ops = ir.apply_fused(instr.fn, idx, local, default)
            yield env.work(ops)
            return result
        yield env.work(ir.fragment_ops(instr.fn, local, default))
        if instr.indexed:
            idx = (divmod(comm.rank, plan.grid[1])
                   if plan.grid is not None else comm.rank)
            return instr.fn(idx, local)
        if instr.farm_env is not ir.NO_ENV:
            return instr.fn(instr.farm_env, local)
        return instr.fn(local)

    if isinstance(instr, ir.Rotate):
        return (yield from tp.rotate(env, comm, local, instr.k))

    if isinstance(instr, ir.Exchange):
        return (yield from tp.exchange(env, comm, instr, local))

    if isinstance(instr, ir.Collective):
        return (yield from tp.collective(env, comm, instr, local, default))

    if isinstance(instr, ir.GroupSplit):
        gid = instr.group_of[comm.rank]
        sub = comm.subgroup(list(instr.groups[gid]))
        return Grouped(sub, comm, local, gid)

    if isinstance(instr, ir.SubPlan):
        subplan = instr.plans[local.gid]
        inner = yield from _run_seq(subplan.instrs, subplan, env, local.comm,
                                    tp, local.local, default)
        return Grouped(local.comm, local.parent, inner, local.gid)

    if isinstance(instr, ir.GroupCombine):
        return local.local

    if isinstance(instr, ir.Loop):
        if not env.tracing:
            for body in instr.bodies:
                local = yield from _run_seq(body, plan, env, comm, tp, local,
                                            default)
            return local
        for it, body in enumerate(instr.bodies):
            with env.span(f"iter {it}", iteration=it):
                local = yield from _run_seq(body, plan, env, comm, tp, local,
                                            default)
        return local

    raise AssertionError(f"unknown plan instruction {instr!r}")


class RawTransport:
    """Plan traffic straight onto :class:`~repro.machine.api.Comm` — the
    fault-free network.  Stateless; use the :data:`RAW` instance."""

    def rotate(self, env: ProcEnv, comm: Comm, local: Any, k: int):
        """Send ``local`` k ranks down, receive from k ranks up."""
        p = comm.size
        yield comm.send((comm.rank - k) % p, local, tag=EXCHANGE_TAG,
                        nbytes=estimate_nbytes(local, env.spec.word_bytes))
        msg = yield comm.recv((comm.rank + k) % p, tag=EXCHANGE_TAG)
        return msg.payload

    def exchange(self, env: ProcEnv, comm: Comm, instr: ir.Exchange,
                 local: Any):
        """Replay this rank's row of the exchange tables: all sends, then
        the receives in table order."""
        r = comm.rank
        for dst in instr.sends[r]:
            yield comm.send(dst, local, tag=EXCHANGE_TAG,
                            nbytes=estimate_nbytes(local,
                                                   env.spec.word_bytes))
        if instr.mode == "collect":
            arrivals = []
            for src in instr.recvs[r]:
                if src == r:
                    arrivals.append(local)
                else:
                    msg = yield comm.recv(src, tag=EXCHANGE_TAG)
                    arrivals.append(msg.payload)
            return arrivals
        (src,) = instr.recvs[r]
        if src == r:
            fetched = local
        else:
            msg = yield comm.recv(src, tag=EXCHANGE_TAG)
            fetched = msg.payload
        if instr.mode == "pair":
            return (local, fetched)
        return fetched

    def collective(self, env: Any, comm: Any, instr: ir.Collective,
                   local: Any, default: float):
        """Run the collective with the schedule ``instr.algo`` names.

        Reduction operators run synchronously inside the collectives'
        generator frames, so their CPU cost cannot be yielded from here;
        the message rounds carry the synchronisation cost (plan_cost
        prices the combines analytically).  Only ``env.work`` and the
        ``comm`` request factories are touched, which is what lets
        :mod:`repro.plan.vexec` script this generator directly.
        """
        algo = instr.algo
        if instr.kind == "fold":
            if algo == "flat":
                acc = yield from CX.flat_reduce(comm, local, instr.op)
                acc = yield from CX.flat_bcast(comm, acc, root=0)
            else:
                acc = yield from C.reduce(comm, local, instr.op)
                acc = yield from C.bcast(comm, acc, root=0)
            return ir.Scalar(acc)
        if instr.kind == "scan":
            if algo == "ring":
                return (yield from CX.chain_scan(comm, local, instr.op))
            return (yield from C.scan(comm, local, instr.op))
        if instr.kind == "bcast":
            value = yield from _bcast_algo(
                algo, comm, instr.value if comm.rank == 0 else None)
            return (value, local)
        if instr.kind == "apply_bcast":
            if comm.rank == instr.root:
                yield env.work(ir.fragment_ops(instr.op, local, default))
                piece = instr.op(local)
            else:
                piece = None
            piece = yield from _bcast_algo(algo, comm, piece,
                                           root=instr.root)
            return (piece, local)
        raise AssertionError(f"unknown collective kind {instr.kind!r}")


#: The shared raw-network transport.
RAW = RawTransport()


def _bcast_algo(algo: str, comm: Comm, value: Any, root: int = 0):
    """The broadcast generator for a :class:`~repro.plan.ir.Collective`
    ``algo`` — binomial tree by default, flat/chain when the optimizer's
    collective selection rewrote the schedule."""
    if algo == "flat":
        return CX.flat_bcast(comm, value, root=root)
    if algo == "ring":
        return CX.chain_bcast(comm, value, root=root)
    return C.bcast(comm, value, root=root)
