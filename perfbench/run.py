"""gdppath benchmark: one workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload {calibrate,demo,analyze} \
        --seed N --seconds S --trace {0,1}

Run from the root of a gdppath source tree; the package is imported from its
``src/`` directory.  Every operation is sandwiched between two halves of a
window of the fixed reference kernel (refkernel.py), sized to the operation,
and its time is reported in units of that kernel (``ref``), which cancels
most of the machine's drift in speed.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced pass.  The last line
of standard output is one JSON object; a full record of the run goes to
``perfbench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refkernel import ref_kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 9
# Enough operations for a tail: the highest percentile with ten beyond it.
MIN_OPS = 40
# The reference kernel's time per call in a quiet spell of the 2-vCPU VM of
# the README's figures.  setup_s is reported at that speed (probe wall time
# times NOMINAL_KERNEL_S over the run's median kernel time), so a busier
# machine does not read as slower set-up: between two sets of ten runs the
# raw medians moved by up to 20%, the rescaled ones by up to 9%.
NOMINAL_KERNEL_S = 0.0005
# Reference-kernel time per unit of operation time, split evenly before and
# after the operation.
REF_WINDOW = 1.0


def ref_window(n: int) -> float:
    t0 = time.perf_counter()
    for _ in range(n):
        ref_kernel()
    return time.perf_counter() - t0


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("calibrate", "demo", "analyze"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the first round, then exit "
                        "(used to time set-up in a fresh interpreter)")
    return p.parse_args(argv)


def import_package():
    """Import gdppath from this tree's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "gdppath" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gdppath sources under {src}")
    sys.path.insert(0, str(src))
    import gdppath

    if Path(gdppath.__file__).resolve().parent != (src / "gdppath").resolve():
        sys.exit(f"perfbench: imported gdppath from {gdppath.__file__}")
    import workloads

    return workloads


class Runner:
    """Times operations against interleaved reference windows and checks
    every output once its clock has stopped."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.sizes: dict[int, int] = {}
        self.samples: list[dict] = []
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def op(self, pos: int, item, tracer=None) -> dict:
        half = max(1, round(self.sizes.get(pos, 2) / 2))
        before = ref_window(half)
        t0 = time.perf_counter()
        if tracer is None:
            outcome = self.wl.run(item)
        else:
            tracer.active = True
            outcome = tracer.span(tracer.name_id("op"), self.wl.run, (item,), {})
            tracer.active = False
        op_s = time.perf_counter() - t0
        after = ref_window(half)
        kernel_s = (before + after) / (2 * half)
        self.sizes[pos] = max(2, round(REF_WINDOW * op_s / kernel_s))
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.errors += outcome.notes
        if outcome.value is not None:
            self.wl.check(item, outcome)
        sample = {"pos": pos, "op_s": op_s, "kernel_s": kernel_s,
                  "ref": op_s / kernel_s / self.wl.units(item),
                  "ok": outcome.value is not None,
                  "files": self.wl.files_written(item)}
        self.wl.release(item)
        return sample

    def warmup(self) -> None:
        for pos, item in enumerate(self.wl.warmup_round()):
            self.op(pos, item)
        self.attempted = self.failed = 0
        self.errors.clear()

    def loop(self, seconds: float, first_round, between) -> None:
        """Whole rounds until ``seconds`` have passed and at least
        ``MIN_OPS`` operations are timed; ``between(share)`` runs before each
        round with the share of the run elapsed."""
        start = time.perf_counter()
        r = 0
        while (time.perf_counter() < start + seconds
               or len(self.samples) < MIN_OPS):
            between((time.perf_counter() - start) / seconds)
            items = first_round if r == 0 else self.wl.build_round(r)
            for pos, item in enumerate(items):
                self.samples.append(self.op(pos, item))
            r += 1


def op_ref(samples: list[dict]) -> float:
    """Median op/kernel ratio of each position in the round, combined by a
    geometric mean.  A round mixes fixed operation shapes of very different
    cost (analyze); one median across them would jump between shapes."""
    by_pos: dict[int, list[float]] = {}
    for s in samples:
        by_pos.setdefault(s["pos"], []).append(s["ref"])
    logs = [math.log(statistics.median(v)) for v in by_pos.values()]
    return math.exp(sum(logs) / len(logs))


def tail(values: list[float]):
    """The highest percentile with at least ten samples beyond it, or None
    below forty samples."""
    if len(values) < 40:
        return None, None
    ordered = sorted(values)
    pct = 100 * (len(ordered) - 10) // len(ordered)
    return ordered[(len(ordered) * pct) // 100 - 1], pct


class SetupProbes:
    """Wall time of fresh interpreters that import gdppath and build the
    first round of inputs.  The probes are spread over the run, between
    rounds, so that one slow spell of the machine does not set them all; one
    unmeasured probe first writes the bytecode caches."""

    def __init__(self, args) -> None:
        self.cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                    args.workload, "--seed", str(args.seed), "--setup-only"]
        self.times: list[float] = []
        self._probe()

    def _probe(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed: {proc.stderr.strip()}")
        return elapsed

    def due(self, fraction: float) -> None:
        """Probe until the share of probes taken catches up with ``fraction``,
        the share of the run elapsed."""
        while len(self.times) < SETUP_PROBES * min(1.0, fraction):
            self.times.append(self._probe())


def end_to_end(args, wl, runner: Runner):
    probes = SetupProbes(args)
    first_round = wl.build_round(0)
    runner.warmup()
    runner.loop(args.seconds, first_round, probes.due)
    probes.due(1.0)
    timed = [s for s in runner.samples if s["ok"]]
    if not timed:
        sys.exit(f"perfbench: every operation failed: {runner.errors[:3]}")
    tail_ref, tail_pct = tail([s["ref"] for s in timed])
    kernel_s = statistics.median(s["kernel_s"] for s in timed)
    setup_raw_s = statistics.median(probes.times)
    metrics = {
        "setup_s": (setup_raw_s * NOMINAL_KERNEL_S / kernel_s, "s"),
        "op_ref": (op_ref(timed), "ref"),
        "op_tail_ref": (tail_ref, "ref"),
        "peak_rss_mb":
            (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "ops": len(timed),
        "op_s_median": statistics.median(s["op_s"] for s in timed),
        "kernel_s_median": kernel_s,
        "op_tail_pct": tail_pct,
        "setup_raw_s": setup_raw_s,
        "setup_probes_s": probes.times,
    }
    return metrics, info


def traced(args, wl, runner: Runner):
    """Alternate an untraced and a traced pass over the same fixed operations
    until ``--seconds`` have passed; counts per operation are then exact
    whatever the number of passes.  The spans of the first traced pass are
    written out."""
    import tracer as tracing

    def one_pass(tr=None):
        return [runner.op(pos, item, tr) for r in range(wl.trace_rounds)
                for pos, item in enumerate(wl.build_round(r))]

    runner.warmup()
    tr = tracing.Tracer()
    plain, spans = [], []
    start = time.perf_counter()
    while not spans or time.perf_counter() < start + args.seconds:
        plain += one_pass()
        tr.install()
        try:
            spans += one_pass(tr)
        finally:
            tr.uninstall()
        if not tr.totals:
            tr.write(RESULTS / f"trace-{wl.name}.csv.gz")
        tr.fold()
    overhead = (statistics.median(s["ref"] for s in spans)
                - statistics.median(s["ref"] for s in plain))
    metrics = tracing.layer_metrics(tr, len(spans),
                                    sum(s["files"] for s in spans), overhead)
    info = {"ops": len(spans),
            "spans": sum(v["calls"] for v in tr.totals.values()),
            "plain_ref": [s["ref"] for s in plain],
            "traced_ref": [s["ref"] for s in spans]}
    return metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_package()
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{args.workload}-{time.time_ns()}"
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            wl.build_round(0)
            return 0
        runner = Runner(wl)
        try:
            metrics, info = (traced if args.trace else end_to_end)(
                args, wl, runner)
            correct = True
        except workloads.oracle.CheckFailed as exc:
            print(f"perfbench: wrong output: {exc}", file=sys.stderr)
            metrics, info, correct = {}, {}, False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, value in info.items():
        if not isinstance(value, list):
            print(f"# {name} = {value}")
    if runner.errors:
        print(f"# failed: {sorted(set(runner.errors))}")
    result = {
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, info=info,
                  samples=runner.samples,
                  python=platform.python_version(),
                  machine=platform.machine())
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
