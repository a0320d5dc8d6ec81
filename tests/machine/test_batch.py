"""Batch-engine edge conditions: epochs, wildcards, fallback, faults.

The batched drive-order engine (:mod:`repro.machine.batch`) must be
observationally identical to the per-event engine it accelerates —
``Machine(..., batch=False)`` runs the same program through the retained
per-event core, so every test here is a paired run.  The cases target
exactly the places where batching could diverge: ANY-wildcard arrival
ordering *inside one flush epoch*, zero-latency machines (the PERFECT
spec collapses all arrivals onto the send clock), timeouts racing
hand-offs at quiescence, and the transparent per-event fallback for
crash-fault runs and desynchronised (non-yielding) programs.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import DeadlockError, MachineError
from repro.faults import FaultInjector, FaultSpec
from repro.machine import AP1000, Machine
from repro.machine.cost import PERFECT
from repro.machine.events import ANY
from repro.machine.topology import FullyConnected, Hypercube, Ring


def _paired(program, topo_factory, *, spec=AP1000, **kw):
    """Run ``program`` on the batched and the per-event engine; both must
    agree on values, stats (bit-exact virtual times included), makespan
    and event count."""
    res_b = Machine(topo_factory(), spec=spec, **kw).run(program)
    res_e = Machine(topo_factory(), spec=spec, batch=False, **kw).run(program)
    assert res_e.engine == "event"
    assert res_b.makespan == res_e.makespan
    assert res_b.values == res_e.values
    assert res_b.stats == res_e.stats
    assert res_b.events == res_e.events
    assert res_b.crashed == res_e.crashed
    return res_b


class TestWildcardEpochOrdering:
    def test_any_ordering_inside_one_epoch(self):
        """All senders flush in one epoch; the drain's ANY picks must
        follow arrival order (with send-key tie-breaks), not flush order.

        ``msg.seq`` is deliberately not compared across engines: it is an
        engine-internal ordering token (per-event core: global send order;
        batched core: delivery order — see DESIGN.md), so the contract is
        its *invariants* — unique, 1..n, consistent with arrival order —
        checked separately below."""

        def program(env):
            p = env.nprocs
            if env.pid == 0:
                out = []
                for _ in range(3 * (p - 1)):
                    msg = yield env.recv(ANY, tag=ANY)
                    out.append((msg.src, msg.tag, msg.arrival))
                return out
            # Big first, small later: the later sends overtake on the wire,
            # so arrival order inverts program order inside the epoch.
            yield env.send(0, "big", tag=1, nbytes=200_000)
            yield env.send(0, "mid", tag=2, nbytes=5_000)
            yield env.send(0, "small", tag=3, nbytes=1)
            return None

        res = _paired(program, lambda: FullyConnected(9))
        got = res.values[0]
        # Every send is drained exactly once.  (Pick *order* is the
        # engines' business — the first pick is a direct hand-off of the
        # earliest *delivered* message, which the later small sends
        # overtake on the wire — and _paired above proved both engines
        # agree on it bit-exactly, arrivals included.)
        assert len(got) == 24 == len(set(got))
        assert {tag for (_, tag, _) in got} == {1, 2, 3}
        assert {src for (src, _, _) in got} == set(range(1, 9))

        def seq_program(env):
            p = env.nprocs
            if env.pid == 0:
                seqs = []
                for _ in range(3 * (p - 1)):
                    msg = yield env.recv(ANY, tag=ANY)
                    seqs.append(msg.seq)
                return seqs
            yield env.send(0, "big", tag=1, nbytes=200_000)
            yield env.send(0, "mid", tag=2, nbytes=5_000)
            yield env.send(0, "small", tag=3, nbytes=1)
            return None

        for batch in (True, False):
            seqs = Machine(FullyConnected(9), spec=AP1000,
                           batch=batch).run(seq_program).values[0]
            # Every send got exactly one token and the drain saw each once.
            assert sorted(seqs) == list(range(1, len(seqs) + 1))

    def test_mixed_patterns_after_wildcard_takes(self):
        """Concrete receives interleaved with ANY takes exercise the
        taken-row skipping of both stream heads and solo views."""

        def program(env):
            p = env.nprocs
            if env.pid == 0:
                out = []
                for _ in range(p - 1):
                    msg = yield env.recv(ANY, tag=0)
                    out.append((msg.src, msg.payload))
                for src in range(1, p):
                    msg = yield env.recv(src, tag=ANY)
                    out.append((msg.src, msg.payload))
                return out
            yield env.work(ops=50 * env.pid)
            yield env.send(0, ("a", env.pid), tag=0, nbytes=50_000)
            yield env.send(0, ("b", env.pid), tag=env.pid % 2 + 1, nbytes=4)
            return None

        _paired(program, lambda: FullyConnected(7))


class TestPerfectMachine:
    def test_zero_latency_wildcards(self):
        """PERFECT spec: every arrival equals its send time, so the epoch
        is one big virtual instant and ordering rests entirely on the
        (time, pid, ordinal) send-key tie-breaks."""

        def program(env):
            p = env.nprocs
            if env.pid == 0:
                out = []
                for _ in range(2 * (p - 1)):
                    msg = yield env.recv(ANY, tag=ANY)
                    out.append((msg.src, msg.tag, msg.payload))
                return out
            yield env.send(0, env.pid, tag=0, nbytes=1_000)
            yield env.send(0, -env.pid, tag=1, nbytes=1)
            return None

        res = _paired(program, lambda: FullyConnected(8), spec=PERFECT)
        # PERFECT has zero latency/overhead but finite (1e30) bandwidth,
        # so the makespan is epsilon-sized, not exactly zero.
        assert res.makespan < 1e-20

    def test_zero_latency_ring(self):
        def program(env):
            right = (env.pid + 1) % env.nprocs
            left = (env.pid - 1) % env.nprocs
            for r in range(5):
                yield env.send(right, r, tag=1)
                msg = yield env.recv(left, tag=1)
                assert msg.payload == r
            return env.pid

        _paired(program, lambda: Ring(6), spec=PERFECT)


class TestTimeouts:
    def test_timeout_vs_late_message_race(self):
        """A timeout deadline racing a hand-off: the later sender's message
        arrives after the receiver's deadline, so the receive times out
        and the message must be drained by the follow-up receive."""

        def program(env):
            if env.pid == 0:
                first = yield env.recv(ANY, tag=ANY, timeout=1e-6)
                second = yield env.recv(ANY, tag=ANY, timeout=None)
                return (first is None, second.src)
            yield env.work(ops=10_000_000)  # 4 virtual seconds on AP1000
            yield env.send(0, "late", tag=0)
            return None

        res = _paired(program, lambda: FullyConnected(2))
        assert res.values[0] == (True, 1)

    def test_timeout_never_fires_when_message_beats_it(self):
        def program(env):
            if env.pid == 0:
                msg = yield env.recv(1, tag=7, timeout=100.0)
                return msg.payload
            yield env.send(0, "quick", tag=7)
            return None

        res = _paired(program, lambda: FullyConnected(2))
        assert res.values[0] == "quick"
        assert res.stats[0].timeouts == 0


class TestQuiescenceDecisions:
    def test_non_solo_wildcard_decided_by_bounds(self):
        """Two receivers block at once on wildcards (neither is the last
        live processor, so the solo snapshot path cannot apply).  The
        conservative lookahead bounds cannot decide this race, so the
        batched run restarts on the per-event engine."""

        def program(env):
            p = env.nprocs
            if env.pid < 2:
                got = []
                for _ in range((p - 2) // 2):
                    msg = yield env.recv(ANY, tag=env.pid)
                    got.append(msg.src)
                return got
            yield env.work(ops=99 * env.pid)
            yield env.send(env.pid % 2, env.pid, tag=env.pid % 2, nbytes=16)
            return None

        res = _paired(program, lambda: FullyConnected(10))
        assert res.engine == "batch→event"


class TestFallbacks:
    def test_crash_faults_take_per_event_path(self):
        """Seeded crash faults force the per-event engine; the batched
        default must transparently produce the identical faulted run."""

        def program(env):
            if env.pid == 0:
                first = yield env.recv(1, tag=0, timeout=5.0)
                second = yield env.recv(1, tag=1, timeout=0.5)
                return (first and first.payload, second and second.payload)
            yield env.send(0, "pre-crash", tag=0)
            yield env.work(ops=50_000_000)  # dies mid-compute
            yield env.send(0, "post-crash", tag=1)
            return None

        def run(batch):
            return Machine(
                FullyConnected(2), spec=AP1000, batch=batch,
                faults=FaultInjector(FaultSpec(seed=3, crash_at={1: 1.0})),
            ).run(program)

        res_b, res_e = run(True), run(False)
        assert res_b.engine == res_e.engine == "event"
        assert res_b.crashed == res_e.crashed == [1]
        assert res_b.values == res_e.values
        assert res_b.values[0] == ("pre-crash", None)
        assert res_b.makespan == res_e.makespan
        assert res_b.stats == res_e.stats

    def test_desync_program_falls_back_to_per_event_semantics(self):
        """A program that calls ``env.send`` without yielding the request
        desynchronises the batch engine's immediate effects; the run must
        restart on the per-event engine, where an unyielded request is
        simply discarded (no message is ever sent)."""

        def program(env):
            if env.pid == 0:
                env.send(1, "never-yielded", tag=0)  # deliberately not yielded
                yield env.work(ops=10)
                return "sender-done"
            msg = yield env.recv(0, tag=0, timeout=1.0)
            return "got" if msg is not None else "timed-out"

        res = _paired(program, lambda: FullyConnected(2))
        assert res.values == ["sender-done", "timed-out"]
        assert res.engine == "batch→event"

    def test_error_parity_self_send(self):
        def program(env):
            yield env.send(env.pid, "x")

        for batch in (True, False):
            with pytest.raises(MachineError, match="itself"):
                Machine(FullyConnected(2), spec=AP1000, batch=batch).run(program)

    def test_error_parity_deadlock(self):
        def program(env):
            yield env.recv(src=(env.pid + 1) % env.nprocs, tag=9)

        for batch in (True, False):
            with pytest.raises(DeadlockError):
                Machine(FullyConnected(3), spec=AP1000, batch=batch).run(program)


class TestBatchedFlushPaths:
    def test_multi_destination_vectorised_flush(self):
        """A fan-out bigger than the vectorisation threshold with many
        distinct destinations exercises the hop-array gather path."""

        def program(env):
            p = env.nprocs
            for d in range(p):
                if d != env.pid:
                    yield env.send(d, (env.pid, d), tag=2, nbytes=24)
            total = 0
            for d in range(p):
                if d != env.pid:
                    msg = yield env.recv(d, tag=2)
                    total += msg.payload[0]
            return total

        _paired(program, lambda: Hypercube(5))

    def test_single_stream_bulk_flush(self):
        """All sends of an epoch target one (dst, tag): the whole-batch
        C-level append path."""

        def program(env):
            if env.pid == 0:
                acc = 0
                for _ in range(40 * (env.nprocs - 1)):
                    msg = yield env.recv(ANY, tag=5)
                    acc += msg.payload
                return acc
            for i in range(40):
                yield env.send(0, i, tag=5, nbytes=8)
            return None

        res = _paired(program, lambda: FullyConnected(4))
        assert res.values[0] == 3 * sum(range(40))
        assert res.engine == "batch"


class TestLargeRingScaling:
    def test_ring_sweep_at_p4096_stays_on_the_batched_engine(self):
        """Every rank computes, sends right and receives left, 30 times.
        A silent restart on the per-event engine (~13 s) shows as
        ``engine``; a complexity regression inside the batched engine
        trips the generous ceiling (the run takes ~0.7 s on a 2-CPU
        host)."""
        p, rounds = 4096, 30

        def program(env):
            right = (env.pid + 1) % env.nprocs
            left = (env.pid - 1) % env.nprocs
            for r in range(rounds):
                yield env.work(ops=50)
                yield env.send(right, r, tag=1, nbytes=64)
                yield env.recv(left, tag=1)
            return None

        machine = Machine(Ring(p), spec=AP1000)
        start = time.perf_counter()
        res = machine.run(program)
        elapsed = time.perf_counter() - start
        assert res.engine == "batch"
        assert res.total_messages + sum(s.msgs_received
                                        for s in res.stats) == 2 * p * rounds
        assert res.events == 3 * p * rounds  # computes, sends, receives
        assert elapsed < 5.0
