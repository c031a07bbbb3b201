"""parset benchmark: one workload per invocation, from the root of a checkout.

    python3 benchmarks/perf/run.py --workload smoke --seed 1 --seconds 10 --trace 0

Workloads (see README.md): smoke, full-checks, estimators.  Each run sets up
three times in fresh child processes (import plus input files; setup_s is
their median), then repeats whole rounds of the workload's operations in
this process, at least the workload's min_rounds, until --seconds have
passed, then checks every output.  wall_s is the sum over a round's timed
steps of each step's median over the rounds, each step scaled to reference
speed (see Clock); setup_s is scaled the same way.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the same rounds with every layer primitive wrapped (tracing.py) and reports
the per-layer metrics.
The last line of standard output is the JSON result; a record of the run
(machine facts, rounds, problems) and the trace spans go to .bench_work/.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

SETUPS = 3
CALLER_VARS = ("PARSET_BACKEND", "PARSET_WORKERS")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The speed of the shared reference box drifts by +-20% within tens of
# seconds.  The clock times a fixed calibration job after every step (and
# around every set-up) and scales the step by REFERENCE_CAL_S over the mean
# of the job's times on either side: the time the step would take at the
# speed where the job takes REFERENCE_CAL_S.  In a test of 14 runs this cut
# the quartile spread of a sum of steps from 0.15 to 0.08.  A workload whose
# steps are too long for the two calibrations to speak for them sets
# scaled = False and reports its steps unscaled.
REFERENCE_CAL_S = 0.025


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("smoke", "full-checks", "estimators"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", type=Path, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Clock:
    """Step timer that also reports each step at reference speed."""

    def __init__(self):
        import numpy as np

        g = np.random.default_rng(0)
        self._points, self._base = g.standard_normal((50_000, 2)), g.standard_normal((8, 2))
        self._last = self.calibrate()

    def calibrate(self) -> float:
        """Median of three timings of a numpy nearest-point pass plus a dict loop."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            ((self._points[:, None, :] - self._base[None, :, :]) ** 2).sum(axis=2).min(axis=1)
            acc = {}
            for i in range(25_000):
                acc[i & 1023] = acc.get(i & 1023, 0) + i * 3 % 7
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    @contextmanager
    def step(self, raw: dict, ref: dict, label, scaled: bool = True):
        """Time the block into raw[label] and, scaled if asked, into ref[label]."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - t0
            cal = self.calibrate()
            raw[label] = seconds
            ref[label] = seconds * REFERENCE_CAL_S / (0.5 * (self._last + cal)) if scaled else seconds
            self._last = cal


def time_setups(args, work: Path, clock: Clock) -> tuple[float, Path, dict]:
    """Median of SETUPS fresh set-ups at reference speed, the last input dir,
    and the raw and scaled times."""
    raw, ref = {}, {}
    for k in range(SETUPS):
        target = work / f"setup-{k}"
        target.mkdir(parents=True)
        cmd = [sys.executable, __file__, "--workload", args.workload,
               "--seed", str(args.seed), "--setup-into", str(target)]
        with clock.step(raw, ref, k):
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return statistics.median(ref.values()), target, {"raw_s": raw, "ref_s": ref}


def machine_facts(caller: dict) -> dict:
    import numpy
    import parset
    import scipy

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "caller_env": caller,
        "parset_backend": getattr(parset, "backend_name", lambda: "n/a")(),
        "threads_env": {k: os.environ[k] for k in THREAD_VARS},
    }


def run_rounds(workload, work, seed, seconds, span, clock):
    """Whole rounds, at least the workload's min_rounds, until `seconds` have passed."""
    rounds = []
    t0 = time.perf_counter()
    while len(rounds) < workload.min_rounds or time.perf_counter() - t0 < seconds:
        raw, ref = {}, {}
        rnd = workload.run_round(work, seed, len(rounds), span,
                                 lambda label: clock.step(raw, ref, label, workload.scaled),
                                 rounds[0] if rounds else None)
        rnd.raw_s, rnd.ref_s = raw, ref
        rounds.append(rnd)
    return rounds


def step_medians(rounds, field: str) -> dict[str, float]:
    """Each timed step's median over the rounds."""
    return {k: statistics.median(getattr(r, field)[k] for r in rounds)
            for k in getattr(rounds[0], field)}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "parset" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a parset checkout "
              "(needs src/parset and BENCHMARK.json)", file=sys.stderr)
        return 2
    # the caller's environment must not switch code paths; record, then clear
    caller = {k: os.environ.pop(k, None) for k in CALLER_VARS}
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path.insert(0, str(src))

    if args.setup_into is not None:
        import workloads

        workloads.WORKLOADS[args.workload]().write_inputs(args.setup_into, args.seed)
        return 0

    bench_dir = root / ".bench_work"
    work = bench_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        return measure(args, root, src, spec_path, work, caller)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root, src, spec_path, work, caller) -> int:
    spec = json.loads(spec_path.read_text())
    clock = Clock()
    setup_s, inputs, setup_times = time_setups(args, work, clock)

    import parset
    import workloads
    from parset import suite
    from tracing import Tracer

    if not Path(parset.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported parset from {parset.__file__}, not {src}", file=sys.stderr)
        return 2
    facts = machine_facts(caller)
    print(json.dumps({"machine": facts}), file=sys.stderr)

    workload = workloads.WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(suite.CHECKS)
    try:
        span = tracer.span if tracer else (lambda name: nullcontext())
        rounds = run_rounds(workload, inputs, args.seed, args.seconds, span, clock)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    steps = step_medians(rounds, "ref_s")
    wall_s = sum(steps.values())
    raw_wall_s = sum(step_medians(rounds, "raw_s").values())
    groups = {}
    for step, value in steps.items():
        if step in workload.groups:
            groups[workload.groups[step]] = groups.get(workload.groups[step], 0.0) + value

    import oracles  # after the rounds, so its scipy imports stay out of them

    problems = [f"oracle self-check: {p}" for p in oracles.self_check()]
    problems += workload.check(inputs, args.seed, rounds)
    ops = [op for r in rounds for op in r.ops]
    failed = [op for op in ops if not op.ok]

    if tracer:
        computed = {k: v / len(rounds) for k, v in tracer.layer_metrics().items()}
        summary = tracer.summary()
        for check in suite.CHECKS:
            name = f"suite.check.{check}"
            computed[f"{name}.s"] = summary[name]["s"] / len(rounds) if name in summary else 0.0
        computed["trace.wall_s"] = wall_s
        computed["trace.overhead_s"] = tracer.overhead_s / len(rounds)
        computed["trace.coverage_pct"] = (
            100.0 * tracer.layer_seconds() / sum(sum(r.raw_s.values()) for r in rounds))
        computed["trace.absent_wraps"] = float(len(tracer.absent))
        # every workload's timings are per-layer metrics; 0 where not run
        for cls in workloads.WORKLOADS.values():
            for key in cls.groups.values():
                computed[key] = groups.get(key, 0.0)
        listed = spec["per_layer"]
    else:
        computed = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in listed}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": facts, "setup_s": setup_times, "peak_rss_mb": peak_rss_mb,
        "raw_wall_s": raw_wall_s,
        "rounds": [{"raw_s": r.raw_s, "ref_s": r.ref_s,
                    "sha256": r.outputs.get("sha256"),
                    "failed": [(op.name, op.error) for op in r.ops if not op.ok]}
                   for r in rounds],
        "problems": problems,
        "absent_wraps": tracer.absent if tracer else [],
    }
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    (root / ".bench_work" / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer:
        tracer.dump(root / ".bench_work" / f"{stem}-spans.json",
                    {"workload": args.workload, "seed": args.seed})

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} "
          + ("traced " if tracer else "") + f"round(s); unscaled wall {raw_wall_s:.4f} s, "
          f"set-up {statistics.median(setup_times['raw_s'].values()):.4f} s")
    for key, value in groups.items():
        print(f"  {key:28s} {value:12.4f} s")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"attempted {len(ops)} failed {len(failed)}: "
          + (", ".join(sorted({op.name for op in failed})) or "none"))
    for p in problems[:20]:
        print(f"PROBLEM {p}")
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
