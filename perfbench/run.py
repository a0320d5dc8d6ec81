"""The repository benchmark: one command, four workloads, end-to-end and
per-layer metrics.  See ``perfbench/README.md``.

Run every workload (each in a fresh process, untraced then traced) and
print every metric::

    python3 perfbench/run.py --seed 1

Run one workload in this process, printing one result line::

    python3 perfbench/run.py --workload sort_warm --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the ``end_to_end`` metrics of ``BENCHMARK.json``, with ``--trace 1`` its
``per_layer`` metrics.  A reference or path-assertion failure prints
``"correct": false`` and exits 1.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from statistics import median  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Set-ups per run, and interpreters whose import time is measured;
#: ``setup_s`` is the sum of the two medians.
SETUPS = 3
#: Fewest timed iterations of a closed-loop workload, whatever the budget.
MIN_ITERS = 3
#: Per-child time limit of the run-everything mode.
CHILD_TIMEOUT_S = 300


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_revision() -> str:
    """HEAD's commit id, or ``unknown`` when the checkout is not a git
    repository (git is not asked to look above it)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance() -> dict:
    import numpy

    return {"host_cpus": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_revision": git_revision()}


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the host's CPUs, or (0, 0) if unknown."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def import_seconds(times: int) -> list[float]:
    """Import time of the benchmark's modules (numpy and ``repro``
    included) in ``times`` fresh interpreters."""
    code = ("import time; t = time.perf_counter(); "
            "import workloads, serve_open; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    out = []
    for _ in range(times):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        out.append(float(proc.stdout))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------ closed loop

def closed_loop(wl, seconds: float, trace: bool) -> dict:
    """Timed iterations until the budget is spent (at least
    :data:`MIN_ITERS`); with ``trace`` every iteration is followed by its
    traced twin on the same inputs, otherwise one traced twin of the
    last iteration checks the execution path."""
    from harness import CALIB_SHARE, Counters, HostSpeed, Tracer, require
    from workloads import same_run, same_value

    tr, c, speed = Tracer(), Counters(), HostSpeed()
    walls, makespans = [], []
    t_loop = time.perf_counter()
    t_end = t_loop + seconds
    i = 0

    def twin(inp, outs, results):
        with tr.op():
            t_outs, t_results = wl.traced(tr, c, inp)
        c.ops += 1
        require(same_value(outs, t_outs), "traced outputs != untraced")
        require(len(results) == len(t_results)
                and all(map(same_run, results, t_results)),
                "traced makespan/messages/stats != untraced")

    while True:
        inp = wl.inputs(i)
        t = time.perf_counter()
        outs, results = wl.run(inp)
        walls.append(time.perf_counter() - t)
        makespans.append(sum(r.makespan for r in results))
        wl.check(inp, outs)
        if trace:
            twin(inp, outs, results)
        speed.sample(CALIB_SHARE * walls[-1])
        i += 1
        now = time.perf_counter()
        if i >= MIN_ITERS and now + (now - t_loop) / i > t_end:
            break
    if not trace:
        twin(inp, outs, results)
    wl.paths(c)
    return {"walls": walls, "makespans": makespans, "tracer": tr,
            "counters": c, "speed": speed, "attempted": wl.ops * (i + c.ops)}


def closed_loop_metrics(wl, m: dict) -> tuple[dict, dict, int, int]:
    from harness import tail

    walls = m["walls"]
    t = tail(walls)
    e2e = {"run_p50_s": median(walls),
           "virtual_makespan_s": median(m["makespans"])}
    extra = {"run_tail_s": t[1] if t else 0.0,
             "run_tail_pct": t[0] if t else 0.0,
             "run_samples": len(walls),
             "fail_frac": 0.0}
    return e2e, extra, m["attempted"], 0


# --------------------------------------------------------------- one run

def make_workload(name: str, seed: int):
    from serve_open import ServeOpen
    from workloads import CLOSED_LOOP

    if name == ServeOpen.name:
        return ServeOpen(seed)
    return CLOSED_LOOP[name](seed)


def run_one(args, spec: dict) -> int:
    from harness import CheckFailed, layer_metrics

    wl = make_workload(args.workload, args.seed)   # imports numpy and repro
    import_s = time.perf_counter() - _T_START
    seconds = float(args.seconds)
    trace = bool(args.trace)
    ticks0 = cpu_ticks()
    try:
        setups = []
        for _ in range(SETUPS):
            t = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t)
        if wl.name == "serve_open":
            try:
                m = wl.measure(seconds)
            finally:
                wl.close()
            e2e, extra, attempted, failed = wl.metrics(m)
            untraced = m["untraced"]
        else:
            m = closed_loop(wl, seconds, trace)
            e2e, extra, attempted, failed = closed_loop_metrics(wl, m)
            untraced = m["walls"]
    except CheckFailed as exc:
        print(f"perfbench: {args.workload}: check failed: {exc}",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    ticks1 = cpu_ticks()
    total = ticks1[1] - ticks0[1]
    steal = (ticks1[0] - ticks0[0]) / total if total > 0 else 0.0
    imports = [import_s] + import_seconds(SETUPS - 1)
    # gate on host-speed-adjusted times; report the raw ones beside them
    slowdown = m["speed"].slowdown()
    extra["bench.host_speed"] = 1.0 / slowdown
    extra["setup_raw_s"] = median(imports) + median(setups)
    e2e["setup_s"] = extra["setup_raw_s"] / slowdown
    extra["run_p50_s"] = e2e.pop("run_p50_s")
    e2e["run_p50_ref_s"] = extra["run_p50_s"] / slowdown
    e2e["peak_rss_mb"] = peak_rss_mb()
    layers = layer_metrics(m["tracer"], m["counters"], untraced)
    # metrics a workload does not exercise read 0 (nil), never absent
    every = {**{x["name"]: 0.0 for x in spec["per_layer"]},
             **layers, **extra}
    shown = {**e2e, **(every if trace else extra)}
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        m["tracer"].dump(os.path.join(
            OUT_DIR, f"spans-{wl.name}-seed{args.seed}.json"))

    units = {x["name"]: x["unit"] for x in spec["end_to_end"]}
    units.update({x["name"]: x["unit"] for x in spec["per_layer"]})
    print(f"# {wl.name} seed={args.seed} seconds={seconds:g} "
          f"trace={int(trace)} provenance={json.dumps(provenance())}")
    print(f"#   setup repeats (s): {', '.join(f'{s:.4f}' for s in setups)};"
          f" imports (s): {', '.join(f'{s:.4f}' for s in imports)};"
          f" host CPU stolen {steal:.1%}")
    for name, value in shown.items():
        print(f"{name} = {value:.6g} {units.get(name, '')}".rstrip())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = every if trace else e2e
    metrics = {x["name"]: {"value": float(source[x["name"]]),
                           "unit": x["unit"]} for x in wanted}
    print(json.dumps({"correct": True, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


# ---------------------------------------------------------- every workload

def run_all(args, spec: dict) -> int:
    """Each workload in a fresh process, untraced then traced."""
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    traces = (0, 1) if args.trace is None else (args.trace,)
    results, status = {}, 0
    for w in spec["workloads"]:
        for t in traces:
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", w["name"], "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(t)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            results[f"{w['name']}/trace{t}"] = json.loads(lines[-1])
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.json"), "w") as fh:
        json.dump({"seed": args.seed, "seconds": seconds,
                   "provenance": provenance(), "results": results},
                  fh, indent=1)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run only this workload, in-process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics "
                         "(default: 0 for one workload, both for all)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload is None:
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.trace is None:
        args.trace = 0
    sys.path.insert(0, SRC)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
