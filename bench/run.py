"""unitforge benchmark: one seeded workload, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload units --seed 1 --seconds 10 --trace 0

Workloads: units, mining, relabel. The run generates its inputs
from ``--seed`` in a child process, measures set-up in fresh processes,
then repeats whole passes of the workload until ``--seconds`` of timed
work have passed. Every op's outputs are checked after its pass, outside
the timed region. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` spends half the time untraced and half traced and reports
the per-layer metrics. The last line of standard output is the result as
JSON; the line before it holds the environment, the input properties and
the run's details. Files go to ``.bench_runs/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 9

END_TO_END = (("setup_s", "s"), ("throughput", "items/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("quantize.kmeans_fit.s", "s"), ("quantize.kmeans_fit.iters", "count"),
    ("quantize.kmeans_fit.peak_mb", "MB"),
    ("quantize.assign_units.s", "s"), ("quantize.assign_units.frames", "count"),
    ("quantize.assign_units.peak_mb", "MB"),
    ("quantize.dedup_units.s", "s"), ("quantize.write_unit_lines.s", "s"),
    ("embed.read_embeddings.s", "s"), ("embed.read_embeddings.mb", "MB"),
    ("embed.l2_normalize.s", "s"),
    ("mine.mine_pairs.s", "s"), ("mine.mine_pairs.pairs", "count"),
    ("mine.mine_pairs.peak_mb", "MB"),
    ("mine.simsearch_error_rate.s", "s"), ("mine.simsearch_error_rate.peak_mb", "MB"),
    ("mine.filter_overlap.s", "s"), ("mine.filter_overlap.kept_ratio", "ratio"),
    ("mine.write_pairs.s", "s"), ("mine.read_pairs.s", "s"),
    ("corpus.read_manifest.s", "s"), ("corpus.read_manifest.records", "count"),
    ("corpus.write_manifest.s", "s"), ("corpus.manifest_stats.s", "s"),
    ("cascade.make_adapter.s", "s"), ("cascade.run_cascade.s", "s"),
    ("cascade.try_run.mock.s", "s"), ("cascade.try_run.exec.s", "s"),
    ("cascade.kept_ratio", "ratio"), ("cascade.cache.mb", "MB"),
    ("evalbleu.asr_bleu.s", "s"), ("evalbleu.tokenize_corpus.s", "s"),
    ("evalbleu.corpus_bleu.s", "s"),
    ("balance.temperature_distribution.s", "s"), ("balance.sample_schedule.s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` ops above it, else 100."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 100


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


class Phase:
    """Timed passes of one workload under one tracer setting.

    Each timed segment of a pass (``begin``, every op, ``finish``) keeps its
    duration per pass.
    """

    def __init__(self):
        self.passes = 0
        self.timed_s = 0.0
        self.segments: dict[str, list[float]] = {}
        self.span_ranges: list[tuple[int, int]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: dict[str, float] | None = None

    def record(self, key: str, seconds: float) -> None:
        self.segments.setdefault(key, []).append(seconds)

    def pass_seconds(self) -> float:
        return self.timed_s / self.passes

    def op_means(self) -> list[float]:
        """Each op's latency, as its mean over the passes."""
        return [statistics.fmean(v) for k, v in self.segments.items() if k.startswith("op ")]


def run_phase(wl, tr, budget_s: float, between) -> Phase:
    """Timed passes until ``budget_s`` of timed work; ``between()`` runs after each pass."""
    phase = Phase()
    while phase.passes == 0 or phase.timed_s < budget_s:
        results, errors = [], []
        first = tr.mark()
        start = perf_counter()
        with tr.span("pass"):
            t0 = perf_counter()
            wl.begin(tr)
            phase.record("begin", perf_counter() - t0)
            for i, arg in enumerate(wl.ops()):
                tr.op = f"{phase.passes}:{i}"
                t0 = perf_counter()
                try:
                    with tr.span("op"):
                        result = wl.op(tr, arg)
                except Exception:
                    result = None
                    errors.append(traceback.format_exc(limit=3))
                else:
                    phase.record(f"op {i}", perf_counter() - t0)
                results.append(result)
            tr.op = None
            t0 = perf_counter()
            finished = wl.finish(tr, results)
            phase.record("finish", perf_counter() - t0)
        phase.timed_s += perf_counter() - start
        phase.span_ranges.append((first, tr.mark()))

        # output checks, outside the timed region
        phase.problems.extend(errors)
        for arg, result in zip(wl.ops(), results):
            phase.attempted += 1
            found = [] if result is None else wl.check_op(arg, result)
            if result is None or found:
                phase.failed += 1
            phase.problems.extend(found)
        phase.problems.extend(wl.check_pass(results, finished))
        counts = wl.counts(results, finished)
        if phase.counts is not None and counts != phase.counts:
            phase.problems.append(f"per-pass counts changed: {phase.counts} -> {counts}")
        phase.counts = counts
        phase.passes += 1
        between()
    return phase


def run_child(args: list[str]) -> str:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:2])} failed:\n{proc.stderr}")
    return proc.stdout


def main() -> int:
    ap = argparse.ArgumentParser(description="unitforge benchmark")
    ap.add_argument("--workload", required=True, choices=("units", "mining", "relabel"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input size preset; tiny is for the benchmark's own tests")
    ap.add_argument("--out", type=Path, default=ROOT / ".bench_runs",
                    help="directory for work files and results")
    args = ap.parse_args()

    if not (SRC / "unitforge" / "__init__.py").is_file():
        print(f"error: no unitforge sources under {SRC}", file=sys.stderr)
        return 2

    out = args.out.resolve()
    work = out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    try:
        return measure(args, out, work, inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, out: Path, work: Path, inputs: Path) -> int:
    t0 = perf_counter()
    run_child([str(BENCH / "gen.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--out", str(inputs), "--size", args.size])
    gen_s = perf_counter() - t0

    # Set-up is probed in fresh processes spread over the run, one after
    # each pass and the rest at the end, so the median sees the machine at
    # several moments.
    setup_samples: list[float] = []

    def probe_setup() -> None:
        if len(setup_samples) < SETUP_PROBES:
            setup_samples.append(float(run_child([
                str(BENCH / "setup_probe.py"), str(SRC), args.workload, str(inputs),
                str(work / "cache")])))

    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import unitforge
    if Path(unitforge.__file__).resolve().parent != SRC / "unitforge":
        raise RuntimeError(f"imported unitforge from {unitforge.__file__}, not {SRC}")
    import envinfo
    from spans import Tracer, self_times
    from workloads import WORKLOADS

    tr = Tracer(enabled=bool(args.trace))
    wl = WORKLOADS[args.workload](inputs, work, args.seed)
    wl.setup(tr)
    setup_mark = tr.mark()
    own_setup_s = perf_counter() - t0
    t0 = perf_counter()
    wl.prepare(tr)
    prep_s = perf_counter() - t0

    if args.trace:
        tr.enabled = False
        plain = run_phase(wl, tr, args.seconds / 2, probe_setup)
        tr.enabled = True
        traced = run_phase(wl, tr, args.seconds / 2, probe_setup)
        phases = [plain, traced]
    else:
        plain = run_phase(wl, tr, args.seconds, probe_setup)
        phases = [plain]
    while len(setup_samples) < SETUP_PROBES:
        probe_setup()
    run_dir = out / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [msg for p in phases for msg in p.problems]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    op_means = plain.op_means()
    tail_p = tail_percentile(len(op_means))

    if args.trace:
        per_pass = [self_times(tr.spans, lo, hi) for lo, hi in traced.span_ranges]
        layer = {name: statistics.fmean(pp.get(name[:-len(".s")], 0.0) for pp in per_pass)
                 for name, unit in PER_LAYER if unit == "s"}
        layer["cascade.make_adapter.s"] = self_times(tr.spans, 0, setup_mark).get(
            "cascade.make_adapter", 0.0)
        layer.update({name: tr.peak_bytes.get(name[:-len(".peak_mb")], 0) / 2**20
                      for name, unit in PER_LAYER if name.endswith(".peak_mb")})
        layer.update(traced.counts)
        layer["trace.overhead_ratio"] = plain.pass_seconds() / traced.pass_seconds()
        metrics = {name: {"value": float(layer.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER}
        tr.write(run_dir / "spans.jsonl")
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "throughput": wl.items() / plain.pass_seconds(),
            "op_p50_ms": statistics.median(op_means) * 1e3 if op_means else 0.0,
            "op_tail_ms": percentile(op_means, tail_p) * 1e3 if op_means else 0.0,
            "peak_rss_mb": usage.ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    info = {
        "workload": args.workload, "size": args.size, "seconds": args.seconds,
        "trace": args.trace, "closed_loop": "one client, threads=1",
        "env": envinfo.environment(args.seed, work / "cache"),
        "inputs": wl.properties,
        "gen_s": gen_s, "setup_samples_s": setup_samples, "own_setup_s": own_setup_s,
        "prep_s": prep_s,
        "passes": [p.passes for p in phases], "timed_s": [p.timed_s for p in phases],
        "pass_s": [p.pass_seconds() for p in phases], "items_per_pass": wl.items(),
        "ops_per_pass": len(op_means), "tail_percentile": tail_p,
        "cpu_s": {"user": usage.ru_utime, "sys": usage.ru_stime},
        "problems": problems[:20],
    }
    (run_dir / "result.json").write_text(json.dumps(
        {"info": info, "result": result, "segments": [p.segments for p in phases]},
        indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
