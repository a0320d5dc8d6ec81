"""Span attribution: every traced event names the plan instruction behind it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.sort import hyperquicksort_expression, seq_quicksort
from repro.core import parmap, partition
from repro.core.partition import Block
from repro.machine import AP1000, Hypercube, Machine
from repro.machine.trace import Span
from repro.obs.analyze import top_instruction_frame
from repro.scl.compile import run_expression


def traced_hyperquicksort(d=2, n=256, **machine_kw):
    p = 1 << d
    expr = hyperquicksort_expression(d)
    rng = np.random.default_rng(7)
    values = rng.integers(0, 2**31, size=n).astype(np.int32)
    blocks = parmap(seq_quicksort, partition(Block(p), values))
    machine = Machine(Hypercube(d), spec=AP1000, record_trace=True,
                      **machine_kw)
    out, res = run_expression(expr, blocks, machine, label="hyperquicksort")
    merged = np.concatenate([np.asarray(b) for b in out])
    assert np.array_equal(merged, np.sort(values))
    return res


class TestSpan:
    def test_frames_root_first(self):
        root = Span("prog")
        mid = Span("loop", instr=0, parent=root)
        leaf = Span("iter 1", iteration=1, parent=mid)
        assert [f.label for f in leaf.frames()] == ["prog", "loop", "iter 1"]
        assert leaf.root is root
        assert leaf.path() == "prog/loop/iter 1"
        assert str(leaf) == "prog/loop/iter 1"

    def test_single_frame(self):
        s = Span("only")
        assert s.frames() == (s,)
        assert s.root is s


class TestCompiledAttribution:
    def test_every_event_carries_an_instruction_span(self):
        res = traced_hyperquicksort()
        events = res.trace.events()
        assert events, "traced run recorded no events"
        for e in events:
            assert e.span is not None, f"unattributed event {e}"
            assert e.span.root.label == "hyperquicksort"
            frame = top_instruction_frame(e.span)
            assert frame is not None, f"no instruction frame on {e}"
            assert frame.instr is not None

    def test_loop_iterations_attributed(self):
        res = traced_hyperquicksort(d=2)
        iters = {f.iteration
                 for e in res.trace.events()
                 for f in e.span.frames() if f.iteration is not None}
        assert iters == {0, 1}  # d=2 -> two merge-split rounds

    def test_untraced_run_has_no_span_machinery(self):
        p = 4
        machine = Machine(Hypercube(2), spec=AP1000)

        def prog(env):
            assert not env.tracing
            with env.span("ignored"):  # no-op scope on untraced machines
                yield env.work(ops=10)
            return env.pid

        res = machine.run(prog)
        assert res.values == list(range(p))
        assert res.trace is None

    def test_env_span_on_raw_program(self):
        machine = Machine(2, spec=AP1000, record_trace=True)

        def prog(env):
            assert env.tracing
            with env.span("phase-a"):
                yield env.work(ops=10)
            with env.span("phase-b", instr=7):
                yield env.work(ops=10)
            return None

        res = machine.run(prog)
        for pid in (0, 1):
            computes = res.trace.events(pid=pid, kind="compute")
            assert [e.span.label for e in computes] == ["phase-a", "phase-b"]
            assert computes[1].span.instr == 7

    def test_span_restored_after_scope(self):
        machine = Machine(1, spec=AP1000, record_trace=True)

        def prog(env):
            with env.span("outer"):
                with env.span("inner"):
                    yield env.work(ops=1)
                yield env.work(ops=1)
            yield env.work(ops=1)
            return None

        res = machine.run(prog)
        paths = [e.span.path() if e.span else None
                 for e in res.trace.events(kind="compute")]
        assert paths == ["outer/inner", "outer", None]

    def test_untraced_walk_builds_no_spans(self, monkeypatch):
        # Tracing off must cost nothing: the plan walk may neither build
        # an instruction title nor open a span scope, on either transport.
        from repro.faults.models import FaultInjector, FaultSpec
        from repro.faults.plan_exec import execute_plan_ft
        from repro.machine.api import Comm
        from repro.machine.reliable import ReliableChannel
        from repro.machine.simulator import ProcEnv
        from repro.plan import ir
        from repro.plan.lower import lower

        def boom(*args, **kwargs):
            raise AssertionError("span machinery touched on an untraced run")

        monkeypatch.setattr(ir, "instr_title", boom)
        monkeypatch.setattr(ProcEnv, "span", boom)
        d = 2
        expr = hyperquicksort_expression(d)
        values = np.random.default_rng(7).integers(0, 2**31, size=256)
        blocks = parmap(seq_quicksort, partition(Block(1 << d), values))
        out, _ = run_expression(expr, blocks,
                                Machine(Hypercube(d), spec=AP1000), opt="off")
        assert np.array_equal(np.concatenate(list(out)), np.sort(values))

        plan = lower(expr, 1 << d)
        locals_ = blocks.to_list()

        def program(env):
            chan = ReliableChannel(env)
            result = yield from execute_plan_ft(plan, env, Comm.world(env),
                                                chan, locals_[env.pid])
            yield from chan.drain()
            return result

        lossy = Machine(Hypercube(d), spec=AP1000,
                        faults=FaultInjector(FaultSpec(seed=5,
                                                       drop_rate=0.05)))
        res = lossy.run(program)
        assert np.array_equal(np.concatenate(res.values), np.sort(values))

    def test_untraced_scripted_run_builds_no_spans(self, monkeypatch):
        # The production path, a compiled run scripted by vexec and timed
        # by the script timer, must not build titles, spans or events.
        from repro.apps.sort import hyperquicksort_compiled
        from repro.machine.simulator import ProcEnv
        from repro.machine.trace import TraceEvent
        from repro.plan import ir

        def boom(*args, **kwargs):
            raise AssertionError("trace machinery touched on an untraced run")

        monkeypatch.setattr(ir, "instr_title", boom)
        monkeypatch.setattr(ProcEnv, "span", boom)
        monkeypatch.setattr(TraceEvent, "__post_init__", boom)
        values = np.random.default_rng(7).integers(0, 2**31, size=4096)
        out, res = hyperquicksort_compiled(values, 4)
        assert np.array_equal(out, np.sort(values))
        assert res.engine == "script"
        assert res.plane == "vexec"

    @pytest.mark.parametrize("interp", ["raw", "ft"])
    def test_tracing_identical_virtual_results(self, interp):
        # Tracing is a branch inside the one plan walk: span bookkeeping
        # must not perturb the simulation — bit for bit, on both the raw
        # and the reliable (lossy, seeded) transport.
        from repro.faults.models import FaultInjector, FaultSpec
        from repro.faults.plan_exec import run_expression_ft

        d = 3
        expr = hyperquicksort_expression(d)
        rng = np.random.default_rng(7)
        values = rng.integers(0, 2**31, size=512).astype(np.int32)
        blocks = parmap(seq_quicksort, partition(Block(1 << d), values))

        def run(traced):
            if interp == "raw":
                machine = Machine(Hypercube(d), spec=AP1000,
                                  record_trace=traced)
                return run_expression(expr, blocks, machine,
                                      label="hyperquicksort")
            machine = Machine(Hypercube(d), spec=AP1000, record_trace=traced,
                              faults=FaultInjector(FaultSpec(seed=5,
                                                             drop_rate=0.02)))
            return run_expression_ft(expr, blocks, machine,
                                     label="hyperquicksort")

        out_plain, res_plain = run(False)
        out_traced, res_traced = run(True)
        assert res_traced.trace is not None and res_plain.trace is None
        assert out_plain == out_traced
        assert res_plain.makespan == res_traced.makespan
        assert res_plain.total_messages == res_traced.total_messages
        assert res_plain.stats == res_traced.stats
        if interp == "ft":
            assert res_plain.total_retransmits > 0


class TestFaultTolerantAttribution:
    def test_ft_execution_tags_drain_and_instructions(self):
        from repro.faults.models import FaultInjector, FaultSpec
        from repro.faults.plan_exec import run_expression_ft

        d, n = 2, 256
        p = 1 << d
        expr = hyperquicksort_expression(d)
        rng = np.random.default_rng(7)
        values = rng.integers(0, 2**31, size=n).astype(np.int32)
        blocks = parmap(seq_quicksort, partition(Block(p), values))
        machine = Machine(Hypercube(d), spec=AP1000, record_trace=True,
                          faults=FaultInjector(FaultSpec(seed=5,
                                                         drop_rate=0.05)))
        out, res = run_expression_ft(expr, blocks, machine,
                                     label="hyperquicksort")
        merged = np.concatenate([np.asarray(b) for b in out])
        assert np.array_equal(merged, np.sort(values))
        roots = {e.span.root.label for e in res.trace.events()
                 if e.span is not None}
        assert roots <= {"hyperquicksort", "drain"}
        assert "hyperquicksort" in roots
        # fault-layer events (retransmit/timeout/drop) are attributed too
        for e in res.trace.events():
            if e.kind in ("retransmit", "timeout"):
                assert e.span is not None
