"""The static-script timer against its two oracles.

:meth:`Machine.run_scripts` times precomputed request scripts directly
(:func:`repro.machine.batch.time_scripts`).  Every case here runs the
*same* scripts three ways — the timer, the batched engine replaying them
through generators, and the per-event engine — and asserts the same
value objects, per-processor stats (bit-exact virtual times), event
count and makespan.  The second half hands the timer scripts outside its
model and checks that each one is declined to the engine, which then
gives its own result or its own error, word for word.
"""

from __future__ import annotations

import operator

import numpy as np
import pytest

from repro.apps.linalg import gauss_jordan_expression
from repro.apps.sort import (hyperquicksort_compiled,
                             hyperquicksort_expression, seq_quicksort)
from repro.core import parmap, partition
from repro.core.partition import Block, ColBlock
from repro.errors import DeadlockError, MachineError, TopologyError
from repro.machine import AP1000, PERFECT, Machine, replay_program
from repro.machine import batch as batch_mod
from repro.machine.events import ANY, Compute, Recv, Send
from repro.machine.topology import FullyConnected, Hypercube, Ring
from repro.plan import ir, vexec
from repro.plan.lower import lower
from repro.scl.compile import resolve_opt


def _three_ways(make, scripts, finals):
    """Run ``scripts`` through the timer, the batched replay and the
    per-event replay (``make(batch=...)`` builds a fresh machine)."""
    direct = make(batch=True).run_scripts(scripts, finals)
    batched = make(batch=True).run(replay_program(scripts, finals))
    event = make(batch=False).run(replay_program(scripts, finals))
    assert (direct.engine, batched.engine, event.engine) \
        == ("script", "batch", "event")
    for other in (batched, event):
        assert len(direct.values) == len(other.values)
        assert all(a is b for a, b in zip(direct.values, other.values))
        assert direct.stats == other.stats
        assert direct.events == other.events
        assert direct.makespan == other.makespan
    return direct


def _scripted(plan, values, make):
    pre = vexec.precompute(plan, values, make(batch=True).spec)
    assert pre is not None
    return _three_ways(make, *pre)


# ------------------------------------------------------ differential matrix

def _keys(kind: str, p: int, rng) -> np.ndarray:
    n = 64 * p
    if kind == "uniform":
        return rng.integers(0, 2**31, size=n).astype(np.int32)
    if kind == "zipf":
        return np.minimum(rng.zipf(1.5, size=n), 2**31 - 1).astype(np.int32)
    if kind == "equal":
        return np.full(n, 7, dtype=np.int32)
    # tiny: half the blocks start empty
    return rng.integers(0, 100, size=p // 2).astype(np.int32)


@pytest.mark.parametrize("kind", ["uniform", "zipf", "equal", "tiny"])
@pytest.mark.parametrize("d", range(1, 7))
def test_hyperquicksort(d, kind):
    p = 1 << d
    rng = np.random.default_rng([d, len(kind)])
    keys = _keys(kind, p, rng)
    blocks = parmap(seq_quicksort, partition(Block(p), keys)).to_list()
    if kind == "tiny":
        assert any(len(b) == 0 for b in blocks)

    def make(batch):
        return Machine(Hypercube(d), spec=AP1000, batch=batch)

    plan = lower(hyperquicksort_expression(d), p, None,
                 opt=resolve_opt("auto", make(True)))
    res = _scripted(plan, blocks, make)
    assert np.array_equal(np.concatenate(res.values), np.sort(keys))


def test_gauss_jordan():
    n, p = 12, 4
    rng = np.random.default_rng(3)
    aug = np.hstack([rng.normal(size=(n, n)) + n * np.eye(n),
                     rng.normal(size=(n, 1))])

    def make(batch):
        return Machine(FullyConnected(p), spec=AP1000, batch=batch)

    plan = lower(gauss_jordan_expression(n, p, aug.shape), p, None,
                 opt=resolve_opt("auto", make(True)))
    _scripted(plan, partition(ColBlock(p), aug).to_list(), make)


def test_looped_rotate():
    p = 6
    plan = ir.Plan((ir.Loop(tuple((ir.Rotate(1),) for _ in range(5))),), p)
    values = [np.arange(4 * (r + 1), dtype=np.float64) for r in range(p)]
    _scripted(plan, values,
              lambda batch: Machine(Ring(p), spec=AP1000, batch=batch))


@pytest.mark.parametrize("mode", ["collect", "pair"])
def test_exchange(mode):
    p = 5
    if mode == "collect":
        sends = tuple(tuple(d for d in range(p) if d != r) for r in range(p))
        recvs = tuple(tuple(range(p)) for _ in range(p))
    else:  # everyone fetches rank 0's value; rank 0 keeps its own
        sends = ((1, 2, 3, 4),) + ((),) * (p - 1)
        recvs = tuple((0,) for _ in range(p))
    plan = ir.Plan((ir.Exchange(mode, sends, recvs),), p)
    values = [np.arange(8) + r for r in range(p)]
    _scripted(plan, values,
              lambda batch: Machine(FullyConnected(p), spec=AP1000,
                                    batch=batch))


class _Bus(FullyConnected):
    """Reports zero hops between distinct ranks; the engines clamp every
    message to one hop, and so must the timer."""

    def hops(self, src, dst):
        return 0

    _hops_nocheck = hops

    def _hop_row_build(self, src):
        return [0] * self.size


def test_zero_hop_topology_is_clamped():
    p = 4
    plan = ir.Plan((ir.Rotate(1), ir.Rotate(2)), p)
    _scripted(plan, [np.arange(6) * r for r in range(p)],
              lambda batch: Machine(_Bus(p), spec=AP1000, batch=batch))


_ALGOS = [("scan", "tree"), ("scan", "ring"), ("fold", "tree"),
          ("fold", "flat")]
_TOPOS = {"ring": lambda: Ring(8), "full": lambda: FullyConnected(8),
          "hypercube": lambda: Hypercube(3)}


@pytest.mark.parametrize("spec", [AP1000, PERFECT], ids=lambda s: s.name)
@pytest.mark.parametrize("topo", sorted(_TOPOS))
@pytest.mark.parametrize("kind,algo", _ALGOS)
def test_collectives(kind, algo, topo, spec):
    plan = ir.Plan((ir.Collective(kind, op=operator.add, algo=algo),), 8)
    values = [np.full(3, float(r)) for r in range(8)]
    _scripted(plan, values,
              lambda batch: Machine(_TOPOS[topo](), spec=spec, batch=batch))


def test_optimizer_picks_are_covered():
    """``_ALGOS`` is every schedule the optimizer can choose for scan and
    fold (``tree`` plus its candidates)."""
    from repro.plan.opt import _CANDIDATES

    for kind in ("scan", "fold"):
        assert {a for k, a in _ALGOS if k == kind} \
            == {"tree", *_CANDIDATES[kind]}


# ------------------------------------------------------- forced fallbacks

@pytest.fixture
def declines(monkeypatch):
    """Record what every ``time_scripts`` call returned (None = declined)."""
    seen = []
    real = batch_mod.time_scripts

    def spy(*args):
        res = real(*args)
        seen.append(res)
        return res

    monkeypatch.setattr(batch_mod, "time_scripts", spy)
    return seen


def _machine(p=2, **kw):
    return Machine(FullyConnected(p), spec=AP1000, **kw)


def _same_error(scripts, finals, exc_type):
    with pytest.raises(exc_type) as direct:
        _machine(len(scripts)).run_scripts(scripts, finals)
    with pytest.raises(exc_type) as replayed:
        _machine(len(scripts)).run(replay_program(scripts, finals))
    assert type(direct.value) is type(replayed.value)
    assert str(direct.value) == str(replayed.value)


def _same_result(scripts, finals, engine):
    direct = _machine(len(scripts)).run_scripts(scripts, finals)
    replayed = _machine(len(scripts)).run(replay_program(scripts, finals))
    assert direct == replayed
    assert direct.engine == replayed.engine == engine
    return direct


def test_unmatched_recv_is_a_deadlock(declines):
    _same_error([[Recv(1, 0)], [Compute(1.0)]], [None, None], DeadlockError)
    assert declines == [None]


def test_leftover_message(declines):
    scripts = [[Send(1, "a", 0, 8), Send(1, "b", 0, 8)], [Recv(0, 0)]]
    _same_error(scripts, [None, None], MachineError)
    assert declines == [None]


def test_send_to_finished_rank(declines):
    scripts = [[Compute(5.0), Send(1, "late", 0, 8)], []]
    _same_error(scripts, [None, None], MachineError)
    assert declines == [None]


@pytest.mark.parametrize("recv", [Recv(ANY, 0), Recv(1, ANY),
                                  Recv(1, 0, timeout=1.0)],
                         ids=["any-src", "any-tag", "timed"])
def test_wildcard_and_timed_recvs_take_the_engine(recv, declines):
    scripts = [[recv], [Compute(0.5), Send(0, "x", 0, 16)]]
    res = _same_result(scripts, ["r0", "r1"], "batch")
    assert res.stats[0].msgs_received == 1
    assert declines == [None]


def test_timeout_that_fires_takes_the_engine(declines):
    scripts = [[Recv(1, 0, timeout=1e-6), Recv(1, 0)],
               [Compute(0.5), Send(0, "x", 0, 16)]]
    res = _same_result(scripts, ["r0", "r1"], "batch")
    assert res.stats[0].timeouts == 1
    assert declines == [None]


class _Work(Compute):
    __slots__ = ()


@pytest.mark.parametrize("scripts", [
    [[_Work(1.0)], []],
    [[Send(1, "x", 0, 8, is_retransmit=True)], [Recv(0, 0)]],
], ids=["subclass", "retransmit"])
def test_other_requests_take_the_engine(scripts, declines):
    _same_result(scripts, [None, None], "batch")
    assert declines == [None]


@pytest.mark.parametrize("send,exc", [
    (Send(0, "x", 0, 8), MachineError),        # to itself
    (Send(5, "x", 0, 8), TopologyError),       # no such rank
    (Send(1, "x", 0, -1), MachineError),       # negative size
], ids=["self", "bad-dst", "negative-size"])
def test_malformed_sends_take_the_engine(send, exc, declines):
    _same_error([[send], [Recv(0, 0)]], [None, None], exc)
    assert declines == [None]


def test_wrong_script_count_takes_the_engine(declines):
    with pytest.raises(IndexError):
        _machine(3).run_scripts([[Compute(1.0)]] * 2, [None] * 2)
    with pytest.raises(IndexError):
        _machine(3).run(replay_program([[Compute(1.0)]] * 2, [None] * 2))
    assert declines == [None]


@pytest.mark.parametrize("payload", [
    (np.zeros(5), np.arange(3, dtype=np.int32)),
    ((np.zeros(2), (1, 2)), [np.ones(4)]),
    [np.zeros(3), np.zeros(0)],
    (1, 2, 3),
    ("hdr", 7, None),
    {"k": np.zeros(2)},
    (),
    [],
    np.zeros((2, 3)),
    3.5,
], ids=lambda p: type(p).__name__)
def test_unsized_sends_are_sized_like_the_engine(payload, declines):
    scripts = [[Send(1, payload, 0, None), Send(1, payload, 3, None)],
               [Recv(0, 3), Recv(0, 0)]]
    finals = [object(), object()]
    direct = _three_ways(lambda batch: _machine(batch=batch), scripts, finals)
    assert direct.stats[0].bytes_sent == direct.stats[1].bytes_received > 0
    assert all(res is not None for res in declines)


# --------------------------------------------------------- path provenance

def test_compiled_sort_takes_the_timer():
    keys = np.random.default_rng(5).integers(0, 1000, 4096).astype(np.int32)
    out, res = hyperquicksort_compiled(keys, 10)
    assert res.engine == "script"
    assert np.array_equal(out, np.sort(keys))


@pytest.mark.parametrize("kw", [{"single_port": True}, {"record_trace": True},
                                {"batch": False}],
                         ids=["single-port", "traced", "batch-off"])
def test_engine_machines_report_event(kw):
    scripts = [[Send(1, "x", 0, 8)], [Recv(0, 0)]]
    assert _machine(**kw).run_scripts(scripts, [0, 1]).engine == "event"
    assert _machine(**kw).run(replay_program(scripts, [0, 1])).engine \
        == "event"
