"""Lowering: expression trees become flat, statically-resolved plans.

The structural half of the Plan IR contract — index functions evaluated
once into per-rank tables, shape errors raised before anything runs, one
cached plan per ``(expr, nprocs, grid)``.  The behavioural half (lowered
plans compute what the interpreter computes) lives in
``test_crosscheck.py``.
"""

from __future__ import annotations

import pickle
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.pararray import ParArray
from repro.core.partition import Block
from repro.errors import SkeletonError
from repro.machine.cost import AP1000
from repro.plan import ir
from repro.plan.cost import ZERO, ExprCost, plan_cost
from repro.plan.lower import (
    clear_plan_cache,
    lower,
    lower_uncached,
    plan_cache_reset,
    plan_cache_stats,
    tuned_lower,
)
from repro.plan.opt import OptConfig, optimize_plan
from repro.scl import (
    AlignFetch,
    Brdcast,
    Combine,
    Fetch,
    Fold,
    Gather,
    Id,
    IMap,
    IterFor,
    Map,
    PermSend,
    Rotate,
    RotateRow,
    Scan,
    SendNode,
    Split,
    compose_nodes,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestStructure:
    def test_identity_lowers_to_the_empty_plan(self):
        plan = lower(Id(), 8)
        assert plan.instrs == ()
        assert plan.nprocs == 8

    def test_composition_reverses_into_execution_order(self):
        f, g = (lambda x: x + 1), (lambda x: x * 2)
        plan = lower(compose_nodes(Map(f), Map(g)), 4)
        # `map f . map g` applies g first
        assert [i.fn for i in plan.instrs] == [g, f]

    def test_rotate_index_arithmetic_is_pre_reduced(self):
        plan = lower(Rotate(-3), 8)
        (instr,) = plan.instrs
        assert isinstance(instr, ir.Rotate) and instr.k == 5

    def test_full_turn_rotation_is_elided(self):
        assert lower(Rotate(8), 8).instrs == ()
        assert lower(Rotate(0), 8).instrs == ()

    def test_fetch_tables_are_static(self):
        plan = lower(Fetch(lambda r: 0), 4)
        (instr,) = plan.instrs
        assert isinstance(instr, ir.Exchange) and instr.mode == "replace"
        assert instr.sends == ((1, 2, 3), (), (), ())
        assert instr.recvs == ((0,), (0,), (0,), (0,))

    def test_align_fetch_keeps_both_halves(self):
        plan = lower(AlignFetch(lambda r: r ^ 1), 4)
        (instr,) = plan.instrs
        assert instr.mode == "pair"
        assert instr.sends == ((1,), (0,), (3,), (2,))

    def test_send_multicast_collects_in_source_order(self):
        plan = lower(SendNode(lambda r: (0,)), 4)
        (instr,) = plan.instrs
        assert instr.mode == "collect"
        assert instr.recvs[0] == (0, 1, 2, 3)

    def test_fold_marks_the_plan_scalar(self):
        plan = lower(Fold(lambda a, b: a + b), 8)
        assert plan.returns_scalar

    def test_iterfor_expands_each_iteration(self):
        plan = lower(IterFor(3, lambda i: Rotate(i)), 8)
        (loop,) = plan.instrs
        assert isinstance(loop, ir.Loop) and len(loop.bodies) == 3
        assert loop.bodies[0] == ()  # rotate 0 elided
        assert loop.bodies[1][0].k == 1

    def test_split_groups_and_subplans(self):
        inner = compose_nodes(Rotate(1), Map(lambda x: -x))
        plan = lower(compose_nodes(Combine(), Map(inner), Split(Block(2))), 8)
        split, sub, comb = plan.instrs
        assert isinstance(split, ir.GroupSplit)
        assert split.groups == ((0, 1, 2, 3), (4, 5, 6, 7))
        assert split.group_of == (0, 0, 0, 0, 1, 1, 1, 1)
        assert isinstance(sub, ir.SubPlan) and len(sub.plans) == 2
        assert all(p.nprocs == 4 for p in sub.plans)
        assert isinstance(comb, ir.GroupCombine)


class TestLoweringErrors:
    def test_fetch_source_out_of_range(self):
        with pytest.raises(SkeletonError, match="source 9 out of range 0..7"):
            lower(Fetch(lambda r: 9), 8)

    def test_send_must_be_a_permutation(self):
        with pytest.raises(SkeletonError, match="not a permutation"):
            lower(PermSend(lambda r: 0), 4)

    def test_flat_skeleton_inside_split(self):
        expr = compose_nodes(Combine(), Map(lambda x: x), Split(Block(2)))
        with pytest.raises(SkeletonError,
                           match="cannot be applied to a split configuration"):
            lower(expr, 8)

    def test_nested_split_rejected(self):
        expr = compose_nodes(Combine(), Split(Block(2)), Split(Block(2)))
        with pytest.raises(SkeletonError, match="`combine` first"):
            lower(expr, 8)

    def test_combine_without_split(self):
        with pytest.raises(SkeletonError, match="without a preceding split"):
            lower(Combine(), 8)

    def test_map_of_subexpression_needs_a_split(self):
        with pytest.raises(SkeletonError, match="requires a split"):
            lower(Map(Rotate(1)), 8)

    def test_grid_skeleton_without_a_grid(self):
        with pytest.raises(SkeletonError, match="2-D processor grid"):
            lower(RotateRow(lambda i: 1), 8)

    def test_flat_skeleton_on_a_grid(self):
        with pytest.raises(SkeletonError, match="1-D configuration"):
            lower(Rotate(1), 8, (2, 4))

    def test_unsupported_node(self):
        with pytest.raises(SkeletonError, match="does not support Gather"):
            lower(Gather(), 8)

    def test_errors_are_raised_at_lowering_time_not_cached(self):
        # A failing lowering must not poison the cache.
        expr = Fetch(lambda r: 99)
        for _ in range(2):
            with pytest.raises(SkeletonError):
                lower(expr, 8)
        assert plan_cache_stats()["size"] == 0


class TestPlanCache:
    def test_same_key_returns_the_same_object(self):
        expr = compose_nodes(Map(lambda x: x), Rotate(1))
        assert lower(expr, 8) is lower(expr, 8)
        stats = plan_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_different_nprocs_are_different_plans(self):
        expr = Rotate(1)
        assert lower(expr, 8) is not lower(expr, 16)
        assert plan_cache_stats()["misses"] == 2

    def test_grid_is_part_of_the_key(self):
        expr = IMap(lambda i, x: (i, x))
        assert lower(expr, 8, None) is not lower(expr, 8, (2, 4))

    def test_clear_resets_everything(self):
        lower(Rotate(1), 8)
        clear_plan_cache()
        assert plan_cache_stats() == {
            "size": 0, "tuned_size": 0, "hits": 0, "misses": 0,
            "uncachable": 0, "optimized": 0,
            "tuned_hits": 0, "tuned_misses": 0}

    def test_unhashable_expressions_still_lower(self):
        # Brdcast of an unhashable value can't key the cache but must work.
        plan = lower(Brdcast([1, 2, 3]), 4)
        assert plan.instrs[0].value == [1, 2, 3]
        stats = plan_cache_stats()
        assert stats["uncachable"] == 1 and stats["size"] == 0

    def test_scan_and_fold_cache_separately(self):
        op = lambda a, b: a + b  # noqa: E731
        assert lower(Scan(op), 8) is not lower(Fold(op), 8)

    def test_reset_zeroes_counters_but_keeps_plans(self):
        expr = Rotate(1)
        plan = lower(expr, 8)
        plan_cache_reset()
        stats = plan_cache_stats()
        assert stats["hits"] == stats["misses"] == 0
        assert stats["size"] == 1, "reset must keep the warm plans"
        # The kept plan serves the next lowering: a pure counter delta.
        assert lower(expr, 8) is plan
        assert plan_cache_stats()["hits"] == 1
        assert plan_cache_stats()["misses"] == 0


def _inc(x):
    return x + 1


def _dbl(x):
    return x * 2


class TestTunedCache:
    """The tuned tier: beam-search winners memoised above the plan cache."""

    def test_hit_returns_the_same_tuned_plan(self):
        expr = compose_nodes(Map(_inc), Map(_dbl), Rotate(1), Rotate(-1))
        first = tuned_lower(expr, 8)
        stats = plan_cache_stats()
        assert stats["tuned_misses"] == 1 and stats["tuned_hits"] == 0
        assert tuned_lower(expr, 8) is first
        stats = plan_cache_stats()
        assert stats["tuned_hits"] == 1 and stats["tuned_size"] == 1

    def test_search_found_the_rewrites(self):
        expr = compose_nodes(Map(_inc), Map(_dbl), Rotate(1), Rotate(-1))
        tuned = tuned_lower(expr, 8)
        assert tuned.improved
        rules = {s.rule for s in tuned.steps}
        assert "rotate-fusion" in rules
        assert tuned.cost_after.seconds <= tuned.cost_before.seconds

    def test_beam_is_part_of_the_key(self):
        expr = compose_nodes(Map(_inc), Rotate(1), Rotate(-1))
        tuned_lower(expr, 8, beam=1)
        tuned_lower(expr, 8, beam=2)
        assert plan_cache_stats()["tuned_misses"] == 2

    def test_opt_config_is_part_of_the_key(self):
        from repro.machine.cost import AP1000
        from repro.plan.opt import OptConfig

        expr = compose_nodes(Map(_inc), Rotate(1), Rotate(-1))
        tuned_lower(expr, 8, opt=OptConfig())
        tuned_lower(expr, 8, opt=OptConfig(spec=AP1000,
                                           topo=("Ring", 8)))
        assert plan_cache_stats()["tuned_misses"] == 2

    def test_search_decisions_are_pinned(self):
        """The d=5 tuned sort search explores, picks and prices exactly
        what the quadratic table builders did."""
        from repro.machine import Machine
        from repro.machine.topology import Hypercube
        from repro.scl.compile import resolve_opt
        from repro.tune.workloads import tuned_sort_pipeline

        machine = Machine(Hypercube(5), spec=AP1000, single_port=True)
        tuned = tuned_lower(tuned_sort_pipeline(5), 32,
                            opt=resolve_opt("auto", machine))
        assert tuned.explored == 539
        assert [s.rule for s in tuned.steps] == ["map-fusion"] * 12
        pinned = ExprCost(seconds=0.02672888, messages=577, barriers=38)
        assert tuned.cost_before == pinned
        assert tuned.cost_after == pinned

    def test_clear_drops_the_tuned_tier(self):
        expr = compose_nodes(Map(_inc), Rotate(1), Rotate(-1))
        tuned_lower(expr, 8)
        clear_plan_cache()
        stats = plan_cache_stats()
        assert stats["tuned_size"] == 0 and stats["tuned_misses"] == 0


# ------------------------------------------------ communication tables
#
# The oracles below are the plain all-ranks-per-rank comprehensions
# (O(p^2)); lowering builds every table in one bucket pass, and these
# tests pin the two to identical tuples in identical order.

def _oracle_fetch(srcs):
    p = len(srcs)
    sends = tuple(tuple(j for j in range(p) if srcs[j] == r and j != r)
                  for r in range(p))
    recvs = tuple((srcs[r],) for r in range(p))
    return sends, recvs


def _oracle_perm(dsts):
    p = len(dsts)
    for r in range(p):
        sources = [k for k in range(p) if dsts[k] == r]
        if len(sources) != 1:
            raise SkeletonError(
                f"send: index {r} receives {len(sources)} elements — "
                f"the index map is not a permutation")
    sends = tuple((dsts[r],) if dsts[r] != r else () for r in range(p))
    recvs = tuple(tuple(k for k in range(p) if dsts[k] == r)
                  for r in range(p))
    return sends, recvs


def _oracle_multicast(dst_lists):
    p = len(dst_lists)
    sends = tuple(tuple(d for d in dst_lists[r] if d != r)
                  for r in range(p))
    recvs = tuple(tuple(k for k in range(p) for d in dst_lists[k]
                        if d == r)
                  for r in range(p))
    return sends, recvs


def _oracle_group_of(groups, p):
    group_of = []
    for r in range(p):
        for gi, members in enumerate(groups):
            if r in members:
                group_of.append(gi)
                break
        else:
            raise SkeletonError(f"split pattern lost rank {r}")
    return tuple(group_of)


def _check_traffic(instr: ir.Exchange) -> None:
    """``Exchange.traffic`` and ``plan_cost`` against the original
    per-call formula (and the plan dumper's original fan-in)."""
    total = sum(len(s) for s in instr.sends)
    fan_in = max((sum(1 for s in r if s != i)
                  for i, r in enumerate(instr.recvs)), default=0)
    assert instr.traffic.messages == total
    assert instr.traffic.fan_in == fan_in
    p = len(instr.sends)
    expected = ZERO
    if total:
        degree = max(max(len(instr.sends[r]),
                         sum(1 for s in instr.recvs[r] if s != r))
                     for r in range(p))
        msg = AP1000.transfer_time(AP1000.word_bytes) \
            + AP1000.send_overhead + AP1000.recv_overhead
        expected = ExprCost(msg * degree, total, 1)
    assert plan_cost(ir.Plan((instr,), p), spec=AP1000) == expected


def _partner(p, m):
    return tuple(r ^ m if r ^ m < p else r for r in range(p))


@st.composite
def _src_maps(draw):
    """Fetch source maps: identity, hot-spot, random and partner."""
    p = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(("identity", "hotspot", "random",
                                 "partner")))
    if kind == "identity":
        return tuple(range(p))
    if kind == "hotspot":
        hot = draw(st.integers(0, p - 1))
        return tuple(hot if draw(st.booleans()) else r for r in range(p))
    if kind == "partner":
        return _partner(p, draw(st.integers(1, 63)))
    return tuple(draw(st.lists(st.integers(0, p - 1),
                               min_size=p, max_size=p)))


@st.composite
def _multicasts(draw):
    """Multicast destination lists, self and duplicate entries included."""
    p = draw(st.integers(1, 64))
    lists = []
    for r in range(p):
        dsts = draw(st.lists(st.integers(0, p - 1), max_size=4))
        if draw(st.booleans()):
            dsts.append(r)
        if dsts and draw(st.booleans()):
            dsts.append(dsts[0])
        lists.append(tuple(dsts))
    return tuple(lists)


def _random_maps(p, seed):
    rng = random.Random(seed)
    perm = list(range(p))
    rng.shuffle(perm)
    return {
        "identity": tuple(range(p)),
        "hotspot": (p // 3,) * p,
        "random": tuple(rng.randrange(p) for _ in range(p)),
        "partner": _partner(p, 5),
        "perm": tuple(perm),
    }


def _lowered_exchange(node, p) -> ir.Exchange:
    (instr,) = lower_uncached(node, p).instrs
    return instr


def _net_srcs(instrs, p):
    """Where each rank's final value came from, through routing instrs."""
    srcs = tuple(range(p))
    for instr in instrs:
        step = (tuple((r + instr.k) % p for r in range(p))
                if isinstance(instr, ir.Rotate)
                else tuple(rs[0] for rs in instr.recvs))
        srcs = tuple(srcs[step[r]] for r in range(p))
    return srcs


class TestTableDifferential:
    """One-pass table builders vs the original quadratic comprehensions."""

    @given(srcs=_src_maps())
    def test_fetch_and_align_fetch(self, srcs):
        self._check_fetch(srcs)

    @pytest.mark.parametrize("kind", ["identity", "hotspot", "random",
                                      "partner", "perm"])
    def test_fetch_and_align_fetch_p1024(self, kind):
        self._check_fetch(_random_maps(1024, 7)[kind])

    def _check_fetch(self, srcs):
        p = len(srcs)
        for node, mode in ((Fetch(srcs.__getitem__), "replace"),
                           (AlignFetch(srcs.__getitem__), "pair")):
            instr = _lowered_exchange(node, p)
            assert instr.mode == mode
            assert (instr.sends, instr.recvs) == _oracle_fetch(srcs)
            _check_traffic(instr)
        built = ir.exchange_from_srcs("replace", srcs, "fetch")
        assert built == _lowered_exchange(Fetch(srcs.__getitem__), p)

    @given(perm=st.integers(1, 64).flatmap(
        lambda p: st.permutations(range(p))))
    def test_perm_send(self, perm):
        self._check_perm(tuple(perm))

    def test_perm_send_p1024(self):
        self._check_perm(_random_maps(1024, 11)["perm"])

    def _check_perm(self, dsts):
        instr = _lowered_exchange(PermSend(dsts.__getitem__), len(dsts))
        assert (instr.sends, instr.recvs) == _oracle_perm(dsts)
        _check_traffic(instr)

    @given(lists=_multicasts())
    def test_multicast_send(self, lists):
        self._check_multicast(lists)

    def test_multicast_send_p1024(self):
        rng = random.Random(13)
        p = 1024
        lists = tuple(
            tuple(rng.randrange(p) for _ in range(rng.randrange(4)))
            + ((r,) if r % 3 == 0 else ()) + ((0, 0) if r % 5 == 0 else ())
            for r in range(p))
        self._check_multicast(lists)

    def _check_multicast(self, lists):
        instr = _lowered_exchange(SendNode(lists.__getitem__), len(lists))
        assert (instr.sends, instr.recvs) == _oracle_multicast(lists)
        _check_traffic(instr)

    @given(first=_src_maps(), data=st.data())
    def test_route_compositions(self, first, data):
        p = len(first)
        second = data.draw(st.one_of(
            st.permutations(range(p)).map(tuple),
            st.lists(st.integers(0, p - 1), min_size=p,
                     max_size=p).map(tuple)))
        k = data.draw(st.integers(0, p))
        self._check_composition(first, second, k)

    def test_route_compositions_p1024(self):
        maps = _random_maps(1024, 17)
        self._check_composition(maps["perm"], maps["random"], 3)
        self._check_composition(maps["random"], maps["perm"], 0)
        self._check_composition(maps["partner"], maps["hotspot"], 1)

    def _check_composition(self, first, second, k):
        p = len(first)
        expr = compose_nodes(Fetch(second.__getitem__), Rotate(k),
                             Fetch(first.__getitem__))
        raw = lower_uncached(expr, p)
        opt = optimize_plan(raw, OptConfig(fuse=False,
                                           select_collectives=False))
        assert _net_srcs(opt.instrs, p) == _net_srcs(raw.instrs, p)
        for instr in opt.instrs:
            if isinstance(instr, ir.Exchange):
                srcs = tuple(rs[0] for rs in instr.recvs)
                assert (instr.sends, instr.recvs) == _oracle_fetch(srcs)
                _check_traffic(instr)

    def test_permutation_compositions_merge(self):
        rng = random.Random(19)
        a, b = list(range(64)), list(range(64))
        rng.shuffle(a)
        rng.shuffle(b)
        expr = compose_nodes(Fetch(tuple(b).__getitem__),
                             Fetch(tuple(a).__getitem__))
        (merged,) = optimize_plan(lower_uncached(expr, 64),
                                  OptConfig(fuse=False)).instrs
        assert merged.label == "fetch+fetch"
        assert merged.recvs == tuple((a[b[r]],) for r in range(64))
        assert (merged.sends, merged.recvs) == \
            _oracle_fetch(tuple(a[b[r]] for r in range(64)))

    @given(p=st.integers(1, 64), data=st.data())
    def test_split_group_of(self, p, data):
        groups = data.draw(st.lists(
            st.lists(st.integers(0, p - 1), max_size=p).map(tuple),
            min_size=1, max_size=6))
        try:
            expected = _oracle_group_of(groups, p)
        except SkeletonError as exc:
            with pytest.raises(SkeletonError) as got:
                lower_uncached(Split(_Groups(groups)), p)
            assert str(got.value) == str(exc)
            return
        (split,) = lower_uncached(Split(_Groups(groups)), p).instrs
        assert split.groups == tuple(groups)
        assert split.group_of == expected

    def test_traffic_is_not_part_of_the_value(self):
        built = ir.exchange_from_srcs("replace", (0, 0, 1, 3), "fetch")
        twin = ir.exchange_from_srcs("replace", (0, 0, 1, 3), "fetch")
        before = (repr(built), pickle.dumps(built))
        assert built.traffic == ir.Traffic(messages=2, fan_out=1, fan_in=1)
        assert (repr(built), pickle.dumps(built)) == before
        assert built == twin and hash(built) == hash(twin)
        assert pickle.loads(pickle.dumps(built)).traffic == built.traffic

    def test_cold_lowering_scales_linearly(self):
        """A cold p=4096 sort lowering is a fraction of a second; the
        quadratic table builders took ~16 s (2-CPU host)."""
        from repro.apps.sort import hyperquicksort_expression

        opt = OptConfig(spec=AP1000, topo=("Hypercube", 4096))
        start = time.perf_counter()
        plan = lower(hyperquicksort_expression(12), 4096, opt=opt)
        assert time.perf_counter() - start < 3.0
        assert plan.nprocs == 4096


class _Groups(Block):
    """A split pattern with explicit (possibly overlapping or lossy)
    groups of ranks."""

    def __init__(self, groups):
        super().__init__(len(groups))
        self.groups = groups

    def split(self, seq):
        return ParArray([[seq[r] for r in g] for g in self.groups],
                        dist=self)


class TestTableErrors:
    """Error-message parity with the original quadratic builders."""

    @pytest.mark.parametrize("node, message", [
        (Fetch(lambda r: r - 1), "fetch: source -1 out of range 0..7"),
        (AlignFetch(lambda r: 7 + r), "align-fetch: source 8 out of range"
                                      " 0..7"),
        (PermSend(lambda r: 2 * r), "send: destination 8 out of range"
                                    " 0..7"),
        (SendNode(lambda r: (r, 9 - r)), "send: destination 9 out of range"
                                         " 0..7"),
    ])
    def test_first_out_of_range_rank_is_named(self, node, message):
        with pytest.raises(SkeletonError) as got:
            lower_uncached(node, 8)
        assert str(got.value) == message

    @given(dsts=st.integers(1, 32).flatmap(
        lambda p: st.lists(st.integers(0, p - 1), min_size=p, max_size=p)))
    def test_non_permutation_names_the_first_bad_index(self, dsts):
        dsts = tuple(dsts)
        try:
            expected = _oracle_perm(dsts)
        except SkeletonError as exc:
            with pytest.raises(SkeletonError) as got:
                lower_uncached(PermSend(dsts.__getitem__), len(dsts))
            assert str(got.value) == str(exc)
        else:
            instr = _lowered_exchange(PermSend(dsts.__getitem__), len(dsts))
            assert (instr.sends, instr.recvs) == expected

    @pytest.mark.parametrize("dsts, message", [
        ((1, 1, 2, 3), "send: index 0 receives 0 elements"),
        ((0, 2, 2, 3), "send: index 1 receives 0 elements"),
        ((0, 1, 3, 3), "send: index 2 receives 0 elements"),
        ((0, 0, 0, 0), "send: index 0 receives 4 elements"),
    ])
    def test_non_permutation_message(self, dsts, message):
        with pytest.raises(SkeletonError) as got:
            lower_uncached(PermSend(dsts.__getitem__), 4)
        assert str(got.value) == (message + " — the index map is not a "
                                            "permutation")

    def test_lost_rank_is_the_first_one(self):
        pattern = _Groups(((0, 1), (1, 4), (5,)))
        with pytest.raises(SkeletonError) as got:
            lower_uncached(Split(pattern), 6)
        assert str(got.value) == "split pattern lost rank 2"

    def test_overlapping_groups_take_the_first(self):
        (split,) = lower_uncached(Split(_Groups(((0, 1), (1, 2), (2, 0)))),
                                  3).instrs
        assert split.group_of == (0, 0, 1)
