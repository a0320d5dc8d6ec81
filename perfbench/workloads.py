"""The closed-loop workloads: ``sort_warm``, ``compile_cold``, ``sort_interp``.

Each workload offers the same five hooks to the harness in ``run.py``:

* ``setup()`` — one set-up (timed, repeated; the last one stays in use);
* ``inputs(i)`` — the generated inputs of iteration ``i`` (untimed);
* ``run(inp)`` — one iteration through the user-facing entry points,
  tracing off; returns ``(outputs, run_results)``;
* ``check(inp, outputs)`` — independent references (raise on mismatch);
* ``traced(tr, c, inp)`` — the same iteration, calling each layer's
  public function in the entry points' order, one span per call; must
  reproduce ``run`` bit for bit.

A workload's ``ops`` is the number of program runs in one iteration.
"""

from __future__ import annotations

import numpy as np

from harness import CheckFailed, require

from repro.apps.linalg import gauss_jordan_compiled, gauss_jordan_expression
from repro.apps.sort import (
    hyperquicksort_compiled,
    hyperquicksort_expression,
    seq_quicksort,
)
from repro.core import Block, ParArray, parmap, partition
from repro.core import gather as cfg_gather
from repro.core.partition import ColBlock
from repro.faults.models import FaultInjector, FaultSpec
from repro.faults.plan_exec import execute_plan_ft, run_expression_ft
from repro.machine import AP1000, Hypercube, Machine
from repro.machine.api import Comm
from repro.machine.batch import BatchFallback, run_batched
from repro.machine.plan_exec import execute_plan
from repro.machine.reliable import ReliableChannel
from repro.machine.topology import FullyConnected
from repro.plan import ir, vexec
from repro.plan.lower import (
    clear_plan_cache,
    lower,
    lower_uncached,
    plan_cache_stats,
    tuned_lower,
)
from repro.plan.opt import optimize_plan_report
from repro.scl.compile import resolve_opt, run_expression
from repro.scl.interp import evaluate
from repro.tune.workloads import run_tuned_hyperquicksort, tuned_sort_pipeline

INT32_MAX = 2**31 - 1


def uniform_keys(rng, n: int) -> np.ndarray:
    return rng.integers(0, INT32_MAX, size=n, dtype=np.int32)


def zipf_keys(rng, n: int, a: float = 1.5) -> np.ndarray:
    """Duplicate-heavy keys: a Zipf draw, so a few values dominate."""
    return (rng.zipf(a, size=n) % INT32_MAX).astype(np.int32)


def presort(keys: np.ndarray, p: int) -> ParArray:
    """``map SEQ_QUICKSORT . partition (block p)`` — the apps layer."""
    return parmap(seq_quicksort, partition(Block(p), keys))


def cold_lower_sort(d: int) -> None:
    """Empty the plan cache, then lower the §5 sort for a 2^d hypercube
    the way its first compiled run does."""
    clear_plan_cache()
    machine = Machine(Hypercube(d), spec=AP1000)
    lower(hyperquicksort_expression(d), machine.nprocs, None,
          opt=resolve_opt("auto", machine))


def concat(out) -> np.ndarray:
    return np.concatenate([np.asarray(b) for b in out])


def count_instrs(instrs) -> int:
    """Instructions in a plan body, loop bodies included."""
    return sum(1 + (sum(count_instrs(b) for b in instr.bodies)
                    if isinstance(instr, ir.Loop) else 0)
               for instr in instrs)


# ------------------------------------------------------------ comparison

def same_value(a, b) -> bool:
    """Bit-for-bit equality of program outputs."""
    if isinstance(a, ParArray):
        a = a.to_list()
    if isinstance(b, ParArray):
        b = b.to_list()
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape \
            and bool(np.array_equal(a, b))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(same_value, a, b))
    return type(a) is type(b) and a == b


def same_run(a, b) -> bool:
    """Same makespan, messages, events and per-processor stats."""
    return (a.makespan == b.makespan
            and a.total_messages == b.total_messages
            and a.events == b.events
            and a.stats == b.stats)


# --------------------------------------------------- traced layer calls

def batch_eligible(machine: Machine) -> bool:
    """Would :meth:`Machine.run` try the batched engine on ``machine``?"""
    return (machine.batch and machine.faults is None
            and not machine.record_trace and not machine.single_port)


def run_machine(tr, c, machine: Machine, program):
    """The ``machine`` layer: the batched engine driven directly through
    :func:`run_batched` where ``Machine.run`` would use it — a
    :class:`BatchFallback` restart fails the run instead of hiding as a
    slow number — else the per-event engine."""
    n = machine.nprocs
    with tr.span("machine"):
        if batch_eligible(machine):
            try:
                res = run_batched(machine, [program] * n, [()] * n)
            except BatchFallback:
                c.add("machine.batch_fallbacks")
                raise CheckFailed("batched engine fell back to per-event "
                                  "engine") from None
            c.add("machine.batch_runs")
        else:
            res = machine.run(program)
            c.add("machine.event_runs")
    c.add("machine.events", res.events)
    c.add("machine.messages", res.total_messages)
    c.add("machine.bytes", res.total_bytes)
    return res


def plan_for(tr, c, expr, machine: Machine, config, *, cold: bool):
    """The ``lower`` (and, cold, ``opt``) layer of one compiled run.

    Warm runs call the cached :func:`lower` the entry points call; cold
    runs split the miss into :func:`lower_uncached` and
    :func:`optimize_plan_report` so the two layers are timed apart.
    """
    n = machine.nprocs
    if cold:
        with tr.span("lower"):
            raw = lower_uncached(expr, n, None)
        c.add("lower.misses")
        c.add("lower.instrs", count_instrs(raw.instrs))
        with tr.span("opt"):
            plan, notes = optimize_plan_report(raw, config)
        c.add("opt.rewrites", len(notes))
        c.add("opt.instrs", count_instrs(plan.instrs))
        return plan
    before = plan_cache_stats()
    with tr.span("lower"):
        plan = lower(expr, n, None, opt=config)
    after = plan_cache_stats()
    c.add("lower.hits", after["hits"] - before["hits"])
    c.add("lower.misses", after["misses"] - before["misses"])
    return plan


def compiled_layers(tr, c, expr, values, machine: Machine, *,
                    cold: bool = False, default=ir.DEFAULT_FRAGMENT_OPS,
                    label: str = "program"):
    """:meth:`CompiledProgram.run` as separate layer calls.

    Returns ``(output, run_result)`` shaped like ``run_expression``'s
    (1-D configurations only).
    """
    config = resolve_opt("auto", machine)
    plan = plan_for(tr, c, expr, machine, config, cold=cold)
    program = None
    if machine.faults is None and not machine.record_trace:
        with tr.span("vexec"):
            pre = vexec.precompute(plan, values, machine.spec, default)
        c.add("vexec.calls")
        if pre is None:
            c.add("vexec.declined")
        else:
            c.add("vexec.requests", sum(len(s) for s in pre[0]))
            program = vexec.replay_program(*pre)
    if program is None:
        def program(env):
            result = yield from execute_plan(plan, env, Comm.world(env),
                                             values[env.pid], default, label)
            return result
    res = run_machine(tr, c, machine, program)
    if res.values and isinstance(res.values[0], ir.Scalar):
        return res.values[0].value, res
    return ParArray(res.values), res


# ------------------------------------------------------------ workloads

class SortWarm:
    """Warm compiled §5 hyperquicksort at p=1024: the production profile.

    Each iteration sorts one uniform and one Zipf (duplicate-heavy) set
    of 2^20 int32 keys through ``hyperquicksort_compiled`` with its
    defaults (``opt="auto"``, ``parallel=False``); the cold lowering is
    paid in set-up, so iterations are plan-cache hits.
    """

    name = "sort_warm"
    ops = 2
    D = 10
    N = 1 << 20

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        cold_lower_sort(self.D)

    def inputs(self, i: int):
        rng = np.random.default_rng([self.seed, 1, i])
        return uniform_keys(rng, self.N), zipf_keys(rng, self.N)

    def run(self, inp):
        outs, results = [], []
        for keys in inp:
            out, res = hyperquicksort_compiled(keys, self.D)
            outs.append(out)
            results.append(res)
        return outs, results

    def check(self, inp, outs) -> None:
        for keys, out in zip(inp, outs):
            require(same_value(out, np.sort(keys)), "sort != np.sort")

    def traced(self, tr, c, inp):
        outs, results = [], []
        expr = hyperquicksort_expression(self.D)
        for keys in inp:
            with tr.span("apps"):
                blocks = presort(keys, 1 << self.D)
            machine = Machine(Hypercube(self.D), spec=AP1000)
            out, res = compiled_layers(tr, c, expr, blocks.to_list(), machine)
            with tr.span("apps"):
                outs.append(concat(out))
            results.append(res)
        return outs, results

    def paths(self, c) -> None:
        require(c.totals["machine.batch_runs"] == c.totals["vexec.calls"]
                > 0 and c.totals["vexec.declined"] == 0,
                "sort_warm must be vexec-scripted and batch-replayed")


class CompileCold:
    """Cold compilation of the three compiled programs the repo ships.

    Every iteration starts from an empty plan cache, then compiles and
    first-runs the tuned sort pipeline (d=5, beam search, single-port
    hypercube), the §5 hyperquicksort expression at p=1024 and
    Gauss–Jordan at n=96 on 16 processors.
    """

    name = "compile_cold"
    ops = 3
    TUNED_D = 5
    TUNED_N = 1 << 12
    HQ_D = 10
    HQ_N = 1 << 14
    GJ_N = 96
    GJ_P = 16

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        clear_plan_cache()

    def inputs(self, i: int):
        rng = np.random.default_rng([self.seed, 2, i])
        tuned_keys = uniform_keys(rng, self.TUNED_N)
        hq_keys = uniform_keys(rng, self.HQ_N)
        A = rng.standard_normal((self.GJ_N, self.GJ_N)) \
            + self.GJ_N * np.eye(self.GJ_N)
        b = rng.standard_normal(self.GJ_N)
        return tuned_keys, hq_keys, A, b

    def run(self, inp):
        tuned_keys, hq_keys, A, b = inp
        clear_plan_cache()
        t_out, t_res, _report = run_tuned_hyperquicksort(
            tuned_keys, self.TUNED_D, strategy="search")
        h_out, h_res = hyperquicksort_compiled(hq_keys, self.HQ_D)
        x, g_res = gauss_jordan_compiled(A, b, self.GJ_P)
        return [t_out, h_out, x], [t_res, h_res, g_res]

    def check(self, inp, outs) -> None:
        tuned_keys, hq_keys, A, b = inp
        t_out, h_out, x = outs
        blocks = presort(tuned_keys, 1 << self.TUNED_D)
        want = evaluate(tuned_sort_pipeline(self.TUNED_D), blocks)
        require(same_value(t_out, want),
                "tuned pipeline != interpreter on the unoptimized expression")
        require(same_value(h_out, np.sort(hq_keys)), "sort != np.sort")
        require(bool(np.allclose(A @ x, b, rtol=1e-9, atol=1e-9)),
                "Gauss-Jordan: A @ x != b")

    def traced(self, tr, c, inp):
        tuned_keys, hq_keys, A, b = inp
        clear_plan_cache()
        # tuned pipeline: run_tuned_hyperquicksort(strategy="search")
        d = self.TUNED_D
        machine = Machine(Hypercube(d), spec=AP1000, single_port=True)
        config = resolve_opt("auto", machine)
        before = plan_cache_stats()
        with tr.span("tune"):
            tuned = tuned_lower(tuned_sort_pipeline(d), machine.nprocs,
                                opt=config)
        c.add("tune.calls")
        if plan_cache_stats()["tuned_misses"] > before["tuned_misses"]:
            c.add("tune.candidates", tuned.explored)
        with tr.span("apps"):
            blocks = presort(tuned_keys, 1 << d)
        t_out, t_res = compiled_layers(tr, c, tuned.expr, blocks.to_list(),
                                       machine)
        # hyperquicksort_compiled at p=1024, cold
        machine = Machine(Hypercube(self.HQ_D), spec=AP1000)
        with tr.span("apps"):
            blocks = presort(hq_keys, 1 << self.HQ_D)
        out, h_res = compiled_layers(tr, c,
                                     hyperquicksort_expression(self.HQ_D),
                                     blocks.to_list(), machine, cold=True)
        with tr.span("apps"):
            h_out = concat(out)
        # gauss_jordan_compiled, cold
        with tr.span("apps"):
            n, p = self.GJ_N, self.GJ_P
            aug = np.hstack([np.asarray(A, dtype=float),
                             np.asarray(b, dtype=float).reshape(n, -1)])
            pattern = ColBlock(p)
            gj_blocks = partition(pattern, aug)
        machine = Machine(FullyConnected(p), spec=AP1000)
        out, g_res = compiled_layers(
            tr, c, gauss_jordan_expression(n, p, aug.shape),
            gj_blocks.to_list(), machine, cold=True)
        with tr.span("apps"):
            solved = np.asarray(cfg_gather(ParArray(out.to_list(),
                                                    dist=pattern)))
            x = solved[:, n:].reshape(b.shape)
        return [t_out, h_out, x], [t_res, h_res, g_res]

    def paths(self, c) -> None:
        require(c.totals["tune.calls"] > 0 and c.totals["opt.instrs"] > 0,
                "compile_cold must run the search and the optimizer")


class SortInterp:
    """The user paths that bypass the scripted data plane, at p=256.

    Per iteration: the compiled sort on a ``record_trace=True`` machine
    (plan interpreter, per-event engine, span events) and
    ``run_expression_ft`` on a lossy hypercube (1% drops, fault seed
    from the workload seed).
    """

    name = "sort_interp"
    ops = 2
    D = 8
    N = 1 << 18
    DROP = 0.01

    def __init__(self, seed: int):
        self.seed = seed

    def _machines(self, i: int):
        traced = Machine(Hypercube(self.D), spec=AP1000, record_trace=True)
        faults = FaultInjector(FaultSpec(seed=self.seed * 100003 + i,
                                         drop_rate=self.DROP))
        lossy = Machine(Hypercube(self.D), spec=AP1000, faults=faults)
        return traced, lossy

    def setup(self) -> None:
        cold_lower_sort(self.D)

    def inputs(self, i: int):
        rng = np.random.default_rng([self.seed, 3, i])
        return i, uniform_keys(rng, self.N)

    def run(self, inp):
        i, keys = inp
        expr = hyperquicksort_expression(self.D)
        traced, lossy = self._machines(i)
        blocks = presort(keys, 1 << self.D)
        out_t, res_t = run_expression(expr, blocks, traced)
        out_f, res_f = run_expression_ft(expr, blocks, lossy)
        return [concat(out_t), concat(out_f)], [res_t, res_f]

    def check(self, inp, outs) -> None:
        want = np.sort(inp[1])
        for out in outs:
            require(same_value(out, want), "sort != np.sort")

    def traced(self, tr, c, inp):
        i, keys = inp
        expr = hyperquicksort_expression(self.D)
        traced, lossy = self._machines(i)
        with tr.span("apps"):
            blocks = presort(keys, 1 << self.D)
        values = blocks.to_list()
        out_t, res_t = compiled_layers(tr, c, expr, values, traced)
        require(res_t.trace is not None
                and len(res_t.trace.events()) == res_t.events,
                "traced run must take the per-event engine")
        # run_expression_ft: same lowering, reliable-channel interpreter
        config = resolve_opt("auto", lossy)
        plan = plan_for(tr, c, expr, lossy, config, cold=False)

        def program(env):
            chan = ReliableChannel(env, max_retries=8)  # as run_expression_ft
            result = yield from execute_plan_ft(
                plan, env, Comm.world(env), chan, values[env.pid],
                ir.DEFAULT_FRAGMENT_OPS, "program")
            with env.span("drain"):
                yield from chan.drain()
            return result

        res_f = run_machine(tr, c, lossy, program)
        require(res_f.total_dropped > 0,
                "lossy run must go through the fault injector")
        with tr.span("apps"):
            outs = [concat(out_t), concat(res_f.values)]
        return outs, [res_t, res_f]

    def paths(self, c) -> None:
        require(c.totals["machine.event_runs"] > 0
                and c.totals["machine.batch_runs"] == 0
                and c.totals["vexec.calls"] == 0,
                "sort_interp must run interpreted on the per-event engine")


CLOSED_LOOP = {w.name: w for w in (SortWarm, CompileCold, SortInterp)}
