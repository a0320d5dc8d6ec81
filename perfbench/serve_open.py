"""The ``serve_open`` workload: the default skeleton service,
``repro.serve.cli.build_service(workers=2)`` with its 10-request
``default_mix``.

A run is cut into ``ROUNDS`` rounds, so every phase samples the whole
run rather than one stretch of host time.

Each round starts closed loop: pairs of an untraced
``endpoint.execute`` — the call a serve worker makes — and the same
request as traced layer calls, on requests drawn from the mix by the
seed.  Ten requests, the length of the mix, are one operation of
``run_p50_s``: the per-call cost, free of the thread wake-ups that make
open-loop latency swing with host load.

The rest of the round is open loop: Poisson arrivals at two fixed
rates (``LO_RPS``, ``HI_RPS``) give the latency rows, and a rising rate
ladder gives the highest rate whose p99 meets ``P99_LIMIT_MS`` with no
refusals and no backlog left at the end.  Arrivals come from a generator owned by the
benchmark; every latency is measured from the request's *scheduled*
send time, so a stall delays every request due during it, and the
generator's own lateness is reported as ``bench.gen_lag_p99_ms``.
Refused and failed requests count as over the limit.
"""

from __future__ import annotations

import math
import time
from statistics import fmean, median

import numpy as np

from harness import (
    CALIB_SHARE,
    Counters,
    HostSpeed,
    Tracer,
    percentile,
    require,
    tail,
)
from workloads import compiled_layers, same_value

from repro.core import ParArray
from repro.machine import Machine
from repro.machine.topology import FullyConnected, Ring
from repro.plan.lower import plan_cache_stats, tuned_lower
from repro.scl.compile import resolve_opt
from repro.scl.interp import evaluate
from repro.serve.cli import build_service, default_mix
from repro.serve.service import AdmissionError, PlanEndpoint, StreamEndpoint
from repro.stream.plan import Chunk, MapPlan

#: Fixed open-loop rates (requests per second).
LO_RPS = 200.0
HI_RPS = 500.0
#: Latency limit on the p99, and the ladder's rates.
P99_LIMIT_MS = 25.0
LADDER_START_RPS = 400.0
LADDER_STEP = 1.3
#: Rounds of (paired requests, low rate, high rate, one ladder step);
#: every round runs its ladder step, passing or not.
ROUNDS = 8
WORKERS = 2
#: Ten-request operations in the closed-loop paired pass, over all
#: rounds.  Fixed counts here and fixed open-loop schedules keep the
#: memory a run takes (spans, service records) the same on every host.
PAIRED_PERIODS = 320
#: Share of ``--seconds`` given to the open-loop schedules; the paired
#: pass takes about the rest.
OPEN_LOOP_SHARE = 0.8
#: Calibration samples follow each of this many slices of a round's
#: paired requests, so they track the host as closely as the requests.
CALIB_SLICES = 4
#: Share of the fixed-rate requests re-checked against the interpreter.
SAMPLE = 0.05
#: Stream requests carry a seeded number of items in this range.
STREAM_ITEMS = (16, 48)
#: How a percentile that lands on a refused or failed request reads.
OVER_LIMIT_MS = 10 * P99_LIMIT_MS


def _ms(q_s: float) -> float:
    return q_s * 1e3 if math.isfinite(q_s) else OVER_LIMIT_MS


def _machine(nprocs: int, topology: str, spec) -> Machine:
    """The machine a serve worker builds for ``nprocs`` ranks."""
    if nprocs == 1:
        return Machine(1, spec=spec)
    topo = Ring(nprocs) if topology == "ring" else FullyConnected(nprocs)
    return Machine(topo, spec=spec)


def _chunks(items, n: int):
    return [tuple(items[k:k + n]) for k in range(0, len(items), n)]


def _stream_shape(endpoint: StreamEndpoint) -> tuple[int, MapPlan]:
    ops = endpoint.ops
    require(len(ops) == 2 and isinstance(ops[0], Chunk)
            and isinstance(ops[1], MapPlan),
            f"stream endpoint {endpoint.name!r} is not Chunk → MapPlan")
    return ops[0].n, ops[1]


def _merge(runs: list[dict]) -> dict:
    """One phase's results from its per-round pieces."""
    out = {k: [] for k in ("lat", "lags", "sent", "records")}
    out.update(failed=0, refused=0, duration=0.0)
    for got in runs:
        for k in ("lat", "lags", "sent", "records"):
            out[k] += got[k]
        for k in ("failed", "refused", "duration"):
            out[k] += got[k]
    return out


def _max_rps(ladder: list[tuple[float, bool]]) -> float:
    """The highest passing ladder rate below which at most one step
    missed (so one host stall does not end the ladder); 0.0 if none."""
    best, missed = 0.0, 0
    for rate, ok in ladder:
        if ok:
            best = rate
        else:
            missed += 1
            if missed > 1:
                break
    return best


def _as_floats(value) -> np.ndarray:
    if isinstance(value, ParArray):
        value = value.to_list()
    return np.asarray(value, dtype=float)


class ServeOpen:
    name = "serve_open"

    def __init__(self, seed: int):
        self.seed = seed
        self.mix = default_mix()
        self.service = None

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        """Build, start and warm one service (first requests lower and
        tune); a repeated set-up replaces the previous service."""
        self.close()
        self.service = build_service(workers=WORKERS).start()
        rng = np.random.default_rng([self.seed, 4, 0])
        for name in self.service.endpoints:
            self.service.submit(name, self.payload(rng, name)).result(
                timeout=60)

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None

    def payload(self, rng, name: str):
        endpoint = self.service.endpoint(name)
        if isinstance(endpoint, StreamEndpoint):
            lo, hi = STREAM_ITEMS
            return endpoint.default_payload(
                rng, items=int(rng.integers(lo, hi + 1)))
        return endpoint.default_payload(rng)

    # -- open-loop generator ---------------------------------------------

    def schedule(self, phase: tuple, rate: float, seconds: float):
        """Seeded Poisson arrivals: ``(due offset, endpoint, tenant,
        payload)`` for ``seconds`` of traffic at ``rate``."""
        rng = np.random.default_rng([self.seed, 5, *phase])
        out, t, i = [], 0.0, 0
        while True:
            t += rng.exponential(1.0 / rate)
            if t > seconds:
                return out
            name, tenant = self.mix[i % len(self.mix)]
            out.append((t, name, tenant, self.payload(rng, name)))
            i += 1

    def drive(self, schedule) -> dict:
        """Send ``schedule`` open-loop from this thread, then collect.

        Returns latencies from due time (``inf`` for refused or failed
        requests), generator lags, the requests sent and whether the
        service drained within the limit after the last arrival.
        """
        service = self.service
        sent, refused = [], 0
        t0 = time.perf_counter() + 0.002
        for offset, name, tenant, payload in schedule:
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            t_send = time.perf_counter()
            try:
                ticket = service.submit(name, payload, tenant=tenant)
            except AdmissionError:
                ticket = None
                refused += 1
            sent.append((due, t_send, ticket, name, payload))
        drained = service.wait_idle(timeout=P99_LIMIT_MS / 1e3)
        service.wait_idle(timeout=60)
        lat, lags, records, failed = [], [], [], 0
        for due, t_send, ticket, _name, _payload in sent:
            lags.append(t_send - due)
            if ticket is not None:
                try:
                    ticket.result(timeout=60)
                except Exception:
                    ticket = None
            if ticket is None:
                failed += 1
                lat.append(math.inf)
            else:
                lat.append(t_send - due + ticket.record["latency_s"])
                records.append(ticket.record)
        return {"lat": lat, "lags": lags, "failed": failed,
                "refused": refused, "sent": sent, "records": records,
                "drained": drained,
                "duration": schedule[-1][0] if schedule else 0.0}

    @staticmethod
    def meets_limit(got: dict) -> bool:
        """A ladder step passes: p99 within the limit, nothing refused or
        failed, and no backlog left 25 ms after the last arrival."""
        return (got["failed"] == 0 and got["drained"]
                and percentile(got["lat"], 99) * 1e3 <= P99_LIMIT_MS)

    # -- references and traced layer calls --------------------------------

    def reference(self, name: str, payload):
        endpoint = self.service.endpoint(name)
        if isinstance(endpoint, StreamEndpoint):
            n, mp = _stream_shape(endpoint)
            return [tuple(evaluate(mp.expr, ParArray(list(ch))).to_list())
                    for ch in _chunks(list(payload), n)]
        require(isinstance(endpoint, PlanEndpoint),
                f"unexpected endpoint kind {type(endpoint).__name__}")
        return evaluate(endpoint.expr, ParArray(list(payload)))

    def check_sample(self, phases) -> int:
        """Re-check a seeded sample of served requests; returns how many."""
        rng = np.random.default_rng([self.seed, 6])
        checked = 0
        for got in phases:
            for _due, _ts, ticket, name, payload in got["sent"]:
                if ticket is None or rng.random() >= SAMPLE:
                    continue
                served = ticket.result(timeout=60)
                want = self.reference(name, payload)
                if isinstance(served, list) and served \
                        and isinstance(served[0], tuple):
                    ok = len(served) == len(want) and all(
                        np.array_equal(_as_floats(a), _as_floats(b))
                        for a, b in zip(served, want))
                else:
                    ok = np.array_equal(_as_floats(served), _as_floats(want))
                require(ok, f"{name}: served result != interpreter")
                checked += 1
        return checked

    def traced_request(self, tr, c, name: str, payload, machines):
        """One request as separate layer calls; returns (value, virtual s)."""
        endpoint = self.service.endpoint(name)
        if isinstance(endpoint, StreamEndpoint):
            n, mp = _stream_shape(endpoint)
            out, virtual = [], 0.0
            with tr.span("stream"):
                for chunk in _chunks(list(payload), n):
                    key = (name, len(chunk))
                    if key not in machines:
                        machines[key] = _machine(len(chunk), mp.topology,
                                                 mp.spec)
                    val, res = compiled_layers(
                        tr, c, mp.expr, list(chunk), machines[key],
                        default=mp.fragment_ops, label=mp.label)
                    out.append(tuple(val.to_list()))
                    virtual += res.makespan
            return out, virtual
        key = (name, endpoint.nprocs)
        if key not in machines:
            machines[key] = _machine(endpoint.nprocs, endpoint.topology,
                                     endpoint.spec)
        machine = machines[key]
        expr = endpoint.expr
        if endpoint.tune:
            before = plan_cache_stats()["tuned_misses"]
            with tr.span("tune"):
                tuned = tuned_lower(expr, endpoint.nprocs,
                                    opt=resolve_opt(endpoint.opt, machine),
                                    beam=endpoint.beam)
            c.add("tune.calls")
            if plan_cache_stats()["tuned_misses"] > before:
                c.add("tune.candidates", tuned.explored)
            expr = tuned.expr
        val, res = compiled_layers(tr, c, expr, list(payload), machine,
                                   default=endpoint.fragment_ops,
                                   label=endpoint.name)
        if isinstance(val, ParArray):
            val = val.to_list()
        return val, res.makespan

    # -- the run ----------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """``ROUNDS`` rounds of (paired requests, low rate, high rate, one
        ladder step), then the reference checks; returns raw results."""
        pairs = _Pairs(self)
        seg = OPEN_LOOP_SHARE * seconds / ROUNDS
        lo, hi, ladder = [], [], []
        for r in range(ROUNDS):
            for _ in range(CALIB_SLICES):
                t = time.perf_counter()
                pairs.run(PAIRED_PERIODS // ROUNDS // CALIB_SLICES
                          * len(self.mix))
                pairs.speed.sample(CALIB_SHARE * (time.perf_counter() - t))
            lo.append(self.drive(self.schedule((1, r), LO_RPS, 0.25 * seg)))
            hi.append(self.drive(self.schedule((2, r), HI_RPS, 0.25 * seg)))
            rate = LADDER_START_RPS * LADDER_STEP ** r
            ladder.append((rate, self.meets_limit(self.drive(
                self.schedule((3, r), rate, 0.5 * seg)))))
        pairs.check_paths()
        lo, hi = _merge(lo), _merge(hi)
        return {"lo": lo, "hi": hi, "max_rps": _max_rps(ladder),
                "cache": self.service.cache_stats(),
                "checked": self.check_sample([lo, hi]),
                "tracer": pairs.tr, "counters": pairs.c, "speed": pairs.speed,
                "untraced": pairs.untraced, "virtuals": pairs.virtuals,
                "stream_endpoints": {
                    name for name in self.service.endpoints
                    if isinstance(self.service.endpoint(name),
                                  StreamEndpoint)}}

    def metrics(self, m: dict) -> tuple[dict, dict, int, int]:
        """(end-to-end, serve/bench per-layer, attempted, failed)."""
        lo, hi = m["lo"], m["hi"]
        records = lo["records"] + hi["records"]
        attempted = len(lo["sent"]) + len(hi["sent"]) + len(m["untraced"])
        failed = lo["failed"] + hi["failed"]
        ok = [r for r in records if r["status"] == "ok"]
        # one operation is ten requests, the length of the mix
        k = len(self.mix)
        starts = range(0, len(m["untraced"]) - k + 1, k)
        periods = [sum(m["untraced"][j:j + k]) for j in starts]
        e2e = {
            "run_p50_s": median(periods),
            # deterministic per seed; the mean keeps every request's share
            "virtual_makespan_s": k * fmean(m["virtuals"]),
        }
        t = tail(periods)
        extra = {
            "run_tail_s": t[1] if t else 0.0,
            "run_tail_pct": t[0] if t else 0.0,
            "run_samples": len(periods),
            "served_checked": m["checked"],
            "fail_frac": failed / attempted if attempted else 0.0,
            "serve_p50_ms_lo": _ms(percentile(lo["lat"], 50)),
            "serve_p99_ms_lo": _ms(percentile(lo["lat"], 99)),
            "serve_p50_ms_hi": _ms(percentile(hi["lat"], 50)),
            "serve_p99_ms_hi": _ms(percentile(hi["lat"], 99)),
            "serve_max_rps": m["max_rps"],
            "bench.gen_lag_p99_ms":
                percentile(lo["lags"] + hi["lags"], 99) * 1e3,
        }
        queue = [r["queue_s"] * 1e3 for r in ok]
        service = [r["service_s"] * 1e3 for r in ok]
        extra.update({
            "serve.queue_p50_ms": percentile(queue, 50),
            "serve.queue_p99_ms": percentile(queue, 99),
            "serve.service_p50_ms": percentile(service, 50),
            "serve.service_p99_ms": percentile(service, 99),
            "serve.busy_frac": sum(r["service_s"] for r in ok)
            / (WORKERS * (lo["duration"] + hi["duration"])),
            "serve.rejected": float(lo["refused"] + hi["refused"]),
            "serve.plan_cache_hit_ratio": m["cache"]["hit_rate"] or 0.0,
        })
        for name in sorted({n for n, _t in self.mix}):
            mine = [r["service_s"] * 1e3 for r in ok if r["endpoint"] == name]
            extra[f"serve.service_ms.{name}"] = median(mine) if mine else 0.0
        stream = [r["service_s"] * 1e3 for r in ok
                  if r["endpoint"] in m["stream_endpoints"]]
        extra["stream.service_p50_ms"] = percentile(stream, 50) if stream \
            else 0.0
        extra["stream.service_p99_ms"] = percentile(stream, 99) if stream \
            else 0.0
        return e2e, extra, attempted, failed


class _Pairs:
    """The closed-loop paired pass: an untraced ``endpoint.execute`` (the
    call a serve worker makes) and the same request as traced layer
    calls, on seeded requests drawn from the mix; each pair must agree
    bit for bit."""

    def __init__(self, wl: ServeOpen):
        self.wl = wl
        self.tr, self.c, self.speed = Tracer(), Counters(), HostSpeed()
        self.rng = np.random.default_rng([wl.seed, 7])
        self.untraced, self.virtuals = [], []
        self.exec_machines, self.layer_machines = {}, {}

    def run(self, requests: int) -> None:
        wl, tr, c = self.wl, self.tr, self.c
        for _ in range(requests):
            # seeded draws from the mix, so the simulated seconds of a
            # run depend on its seed (they do not depend on payloads)
            name, _tenant = wl.mix[int(self.rng.integers(len(wl.mix)))]
            payload = wl.payload(self.rng, name)
            endpoint = wl.service.endpoint(name)
            t = time.perf_counter()
            value, _events, virtual = endpoint.execute(payload,
                                                       self.exec_machines)
            self.untraced.append(time.perf_counter() - t)
            self.virtuals.append(virtual)
            with tr.op():
                got, got_virtual = wl.traced_request(
                    tr, c, name, payload, self.layer_machines)
            c.ops += 1
            require(same_value(value, got) and virtual == got_virtual,
                    f"{name}: traced layers != untraced request")

    def check_paths(self) -> None:
        t = self.c.totals
        require(t["vexec.declined"] == 0 and t["machine.event_runs"] == 0
                and t["machine.batch_runs"] == t["vexec.calls"] > 0,
                "serve_open must be vexec-scripted and batch-replayed")
