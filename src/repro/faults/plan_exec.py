"""Fault-tolerant plan execution: the same Plan IR over a reliable channel.

The raw transport of :mod:`repro.machine.plan_exec` assumes a perfect
network.  This module runs the *identical* :class:`~repro.plan.ir.Plan`
through the *identical* instruction walk
(:func:`~repro.machine.plan_exec.run_plan`), handing it a
:class:`ReliableTransport` that moves every instruction's traffic onto
the resilience layer — so any compiled SCL expression gets
fault-tolerant execution without being hand-ported, and this module
holds no instruction dispatch of its own:

* ``Exchange``/``Rotate`` tables replay as acked, retransmitted
  :class:`~repro.machine.reliable.ReliableChannel` transfers.  A
  symmetric pairwise pattern (hyperquicksort's partner exchange) is
  detected from the tables and uses :meth:`ReliableChannel.exchange`,
  which services the partner's data while awaiting its own ack; all
  other patterns send first and then receive — safe for arbitrary cycles
  because every channel wait *pumps* (acks and stashes incoming frames),
* collectives become the linear, crash-aware patterns of
  :mod:`repro.machine.collectives_ft` (``fold`` → ``ft_reduce`` +
  ``ft_bcast``; broadcasts → ``ft_bcast``; ``scan`` → a reliable linear
  chain),
* local compute and group instructions never touch the transport — the
  channel addresses peers by *pid*, so one channel serves every subgroup.

The message pattern (and therefore the virtual cost) differs from the
raw transport's; the computed values do not.
"""

from __future__ import annotations

from typing import Any

from repro.core.pararray import ParArray
from repro.errors import SkeletonError
from repro.machine import tags
from repro.machine.api import Comm
from repro.machine.collectives_ft import ft_bcast, ft_reduce
from repro.machine.plan_exec import EXCHANGE_TAG, run_plan
from repro.machine.reliable import ReliableChannel
from repro.machine.simulator import Machine, RunResult
from repro.plan import ir
from repro.plan.lower import lower

__all__ = ["execute_plan_ft", "run_expression_ft", "ReliableTransport",
           "SCAN_TAG"]

#: Tag of the reliable scan chain (exchange traffic reuses EXCHANGE_TAG).
SCAN_TAG = tags.reserve("plan", "scan-chain", 1)


def execute_plan_ft(plan: ir.Plan, env, comm: Comm, chan: ReliableChannel,
                    local: Any, default: float = ir.DEFAULT_FRAGMENT_OPS,
                    label: str = "plan"):
    """Run ``plan`` on this processor with all traffic on ``chan``; the
    generator returns the new local value.

    On a traced machine the same span stack as the raw interpreter is
    pushed (``label → [i] instruction → iter k``), so chaos-run traces
    attribute retransmits/drops/timeouts to plan instructions too.
    """
    return run_plan(plan, env, comm, ReliableTransport(chan), local,
                    default, label)


def _is_pair_swap(instr: ir.Exchange, r: int) -> bool:
    """True when rank ``r``'s row of the tables is a mutual 1:1 swap."""
    if len(instr.sends[r]) != 1 or len(instr.recvs[r]) != 1:
        return False
    (peer,) = instr.sends[r]
    if peer == r or instr.recvs[r] != (peer,):
        return False
    return instr.sends[peer] == (r,) and instr.recvs[peer] == (r,)


class ReliableTransport:
    """Plan traffic on a :class:`ReliableChannel`: the transport
    :func:`~repro.machine.plan_exec.run_plan` walks with under faults."""

    __slots__ = ("chan",)

    def __init__(self, chan: ReliableChannel):
        self.chan = chan

    def rotate(self, env, comm: Comm, local: Any, k: int):
        """Cyclic shift by ``k``; a two-rank cycle is one acked swap."""
        chan = self.chan
        p = comm.size
        dst, src = (comm.rank - k) % p, (comm.rank + k) % p
        if dst == src and dst != comm.rank:
            return (yield from chan.exchange(comm.pid_of(dst), local,
                                             tag=EXCHANGE_TAG))
        yield from chan.send(comm.pid_of(dst), local, tag=EXCHANGE_TAG)
        return (yield from chan.recv(comm.pid_of(src), tag=EXCHANGE_TAG))

    def exchange(self, env, comm: Comm, instr: ir.Exchange, local: Any):
        """Replay this rank's table row: a mutual pair swap through
        :meth:`ReliableChannel.exchange`, anything else as all sends then
        the receives in table order."""
        chan = self.chan
        r = comm.rank
        if _is_pair_swap(instr, r):
            (peer,) = instr.sends[r]
            theirs = yield from chan.exchange(comm.pid_of(peer), local,
                                              tag=EXCHANGE_TAG)
            return (local, theirs) if instr.mode == "pair" else theirs
        for dst in instr.sends[r]:
            yield from chan.send(comm.pid_of(dst), local, tag=EXCHANGE_TAG)
        if instr.mode == "collect":
            arrivals = []
            for src in instr.recvs[r]:
                if src == r:
                    arrivals.append(local)
                else:
                    arrivals.append((yield from chan.recv(
                        comm.pid_of(src), tag=EXCHANGE_TAG)))
            return arrivals
        (src,) = instr.recvs[r]
        fetched = local if src == r else (yield from chan.recv(
            comm.pid_of(src), tag=EXCHANGE_TAG))
        return (local, fetched) if instr.mode == "pair" else fetched

    def collective(self, env, comm: Comm, instr: ir.Collective, local: Any,
                   default: float):
        """The crash-aware linear pattern for ``instr.kind``.

        ``instr.algo`` is deliberately ignored: the resilient collectives
        of :mod:`repro.machine.collectives_ft` have their own message
        schedules — an optimizer algo choice priced for the fault-free
        network has no meaning on this channel.  Optimized plans still
        run correctly (fusion and coalescing apply unchanged); only the
        schedule hint is dropped.
        """
        chan = self.chan
        if instr.kind == "fold":
            acc = yield from ft_reduce(chan, comm, local, instr.op, root=0)
            acc = yield from ft_bcast(chan, comm, acc, root=0)
            return ir.Scalar(acc)
        if instr.kind == "scan":
            # inclusive prefix as a reliable linear chain in rank order
            r, p = comm.rank, comm.size
            out = local
            if r > 0:
                prefix = yield from chan.recv(comm.pid_of(r - 1),
                                              tag=SCAN_TAG)
                out = instr.op(prefix, local)
            if r < p - 1:
                yield from chan.send(comm.pid_of(r + 1), out, tag=SCAN_TAG)
            return out
        if instr.kind == "bcast":
            value = yield from ft_bcast(
                chan, comm, instr.value if comm.rank == 0 else None)
            return (value, local)
        if instr.kind == "apply_bcast":
            if comm.rank == instr.root:
                yield env.work(ir.fragment_ops(instr.op, local, default))
                piece = instr.op(local)
            else:
                piece = None
            piece = yield from ft_bcast(chan, comm, piece, root=instr.root)
            return (piece, local)
        raise AssertionError(f"unknown collective kind {instr.kind!r}")


def run_expression_ft(expr, pa: ParArray, machine: Machine, *,
                      fragment_default_ops: float = ir.DEFAULT_FRAGMENT_OPS,
                      channel_timeout: float | None = None,
                      max_retries: int = 8,
                      label: str = "program",
                      opt: Any = "auto") -> tuple[Any, RunResult]:
    """Compile ``expr`` and run it fault-tolerantly on ``machine``.

    The plan-level counterpart of
    :func:`repro.scl.compile.run_expression`: the same lowering, cache
    and plan optimizer (``opt`` as in
    :class:`~repro.scl.compile.CompiledProgram` — fusion and coalescing
    apply to the resilient run too; collective ``algo`` hints and the
    scripted data plane do not, since traffic here is retransmitted and
    timing-dependent), but execution over a :class:`ReliableChannel` per
    processor — use with a machine constructed with a fault injector.
    """
    from repro.scl.compile import resolve_opt

    if not isinstance(pa, ParArray) or pa.ndim not in (1, 2):
        raise SkeletonError("compiled programs take a 1-D or 2-D ParArray input")
    if pa.size != machine.nprocs:
        raise SkeletonError(
            f"expression input has {pa.size} components but the machine "
            f"has {machine.nprocs} processors")
    values = pa.to_list()
    shape = pa.shape
    plan = lower(expr, machine.nprocs, shape if len(shape) == 2 else None,
                 opt=resolve_opt(opt, machine))

    def program(env):
        chan = ReliableChannel(env, timeout=channel_timeout,
                               max_retries=max_retries)
        result = yield from execute_plan_ft(plan, env, Comm.world(env), chan,
                                            values[env.pid],
                                            fragment_default_ops, label)
        # Stay on the line until peers stop retransmitting: our last acks
        # may have been lost, and an exited program can't re-ack.
        with env.span("drain"):
            yield from chan.drain()
        return result

    res = machine.run(program)
    res.plane = "ft"
    if res.values and isinstance(res.values[0], ir.Scalar):
        return res.values[0].value, res
    if len(shape) == 2:
        rows, cols = shape
        return ParArray(
            {(i, j): res.values[i * cols + j]
             for i in range(rows) for j in range(cols)}, shape), res
    return ParArray(res.values), res
