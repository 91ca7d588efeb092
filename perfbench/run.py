"""kbevolve benchmark: closed-loop, single-threaded, one worker at a time.

    python3 perfbench/run.py --workload stream|drift|bulk|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The run writes the workload's
inputs from the seed into .bench_work/<workload>/, then starts fresh worker
processes one after another until S seconds are used (at least three).
With --trace 0 each worker runs the untraced library sequence and the run
reports the end-to-end metrics as medians over the workers, timings scaled
to a reference host speed (see REFERENCE_S). With --trace 1
each repetition is an untraced worker plus a traced replay, and the run
reports the per-layer metrics from the replay's spans and counts.

Every output is checked; each check is one attempted operation. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_ROOT = ROOT / ".bench_work"

MIN_REPS = 3
RUN_LIMIT_S = 120.0
WORKER_TIMEOUT_S = 150.0

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("total_s", "s", "lower", 0.25),
    ("lines_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("accuracy", "ratio", "higher", 0.05),
)

# Span timings: metric stem -> span name. Each is reported as the median
# (the stem), .tail (the highest percentile with ten samples beyond it),
# .tail_pct (that percentile) and .n (the sample count).
SPAN_TIMINGS = (
    ("ntriples.parse_s", "ntriples.read_batch"),
    ("kb.ingest_s", "kb.add_instance_triples"),
    ("kb.export_s", "kb.export"),
    ("type_inference.pass_s", "type_inference.pass"),
    ("generalization.pass_s", "generalization.pass"),
    ("evolution.batch_s", "evolution.batch"),
    ("evolution.metrics_s", "evolution.metrics"),
)
LAYERS = ("ntriples", "kb", "type_inference", "generalization", "evolution")


def _per_layer_catalogue() -> tuple[tuple[str, str, str], ...]:
    out = []
    for stem, _ in SPAN_TIMINGS:
        out += [
            (stem, "s", "lower"),
            (f"{stem}.tail", "s", "lower"),
            (f"{stem}.tail_pct", "%", "higher"),
            (f"{stem}.n", "count", "higher"),
        ]
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [
        ("ntriples.lines_per_s", "1/s", "higher"),
        ("ntriples.lines_read", "count", "higher"),
        ("ntriples.triples_emitted", "count", "higher"),
        ("ntriples.lines_skipped", "count", "higher"),
        ("ntriples.parse_errors", "count", "lower"),
        ("kb.ingest_triples_per_s", "1/s", "higher"),
        ("kb.placeholders", "count", "lower"),
        ("kb.vocab_properties", "count", "lower"),
        ("kb.snapshot_bytes", "bytes", "lower"),
        ("type_inference.passes", "count", "lower"),
        ("type_inference.instances_scored", "count", "lower"),
        ("type_inference.newly_typed", "count", "higher"),
        ("type_inference.retyped", "count", "lower"),
        ("type_inference.useful_ratio", "ratio", "higher"),
        ("generalization.passes", "count", "lower"),
        ("generalization.classes_evaluated", "count", "lower"),
        ("generalization.domains_added", "count", "higher"),
        ("generalization.domains_removed", "count", "higher"),
        ("generalization.domain_recall", "ratio", "higher"),
        ("evolution.batches", "count", "higher"),
        ("evolution.rounds", "count", "lower"),
        ("evolution.rounds_per_batch_max", "count", "lower"),
        ("evolution.unconverged_batches", "count", "lower"),
        ("evolution.batch_growth", "ratio", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("probe.open_defects", "count", "lower"),
        ("harness.reference_s", "s", "lower"),
        ("harness.wall_total_s", "s", "lower"),
    ]
    return tuple(out)


PER_LAYER = _per_layer_catalogue()
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# The host is shared: its speed swings by up to 1.7x over minutes, and a
# worker's wall time and CPU time swing with it. So the harness times this
# fixed stdlib-only loop (string building, dict and set inserts, a sort:
# the kinds of work kbevolve does) before and after every worker, and
# scales the worker's timings to a host on which the loop takes
# REFERENCE_S. The loop is part of the benchmark, not of kbevolve, so a
# change to kbevolve cannot move it.
REFERENCE_S = 0.03


def reference_loop() -> float:
    t = now()
    for _ in range(2):
        table: dict[str, set[str]] = {}
        for i in range(20000):
            key = f"http://ref.example/{i % 997}/{i}"
            table.setdefault(key[-7:], set()).add(key)
        sorted(table)
    return now() - t


def tail(samples: list[float]) -> tuple[float, float]:
    """The sample with exactly ten samples above it and its percentile.
    Below twenty samples that percentile would not reach the median, so
    the median is given with percentile 50."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def span_profile(path: Path) -> tuple[dict[str, list[float]], dict[str, float]]:
    """Durations by span name, in start order, and self time by layer."""
    spans = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    durations: dict[str, list[float]] = {}
    self_time: dict[str, float] = {}
    for s, child in zip(spans, covered):
        d = s["end"] - s["start"]
        durations.setdefault(s["name"], []).append(d)
        layer = s["name"].split(".")[0] if "." in s["name"] else "harness"
        self_time[layer] = self_time.get(layer, 0.0) + d - child
    return durations, self_time


class Runner:
    """One benchmark run: spawns workers and tallies checks."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.spawned = 0
        self.last_reference = reference_loop()

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        self.correct = False
        print(f"check failed: {name}", file=sys.stderr)

    def worker(self, mode: str, checks: tuple[str, ...]) -> dict | None:
        self.spawned += 1
        prefix = self.work / f"{mode}-{self.spawned:03d}"
        t0 = now()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), mode, str(self.work), repr(t0), str(prefix)],
                capture_output=True,
                text=True,
                env=self.env,
                cwd=ROOT,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            proc = None
        result = None
        if proc is not None and proc.returncode == 0 and proc.stdout.strip():
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except ValueError:
                pass
        if result is None:
            sys.stderr.write(proc.stderr if proc is not None else f"{mode} worker timed out\n")
            for name in checks:
                self.check(f"{mode}.{name}", False)
            return None
        for name, ok in result["checks"].items():
            self.check(f"{mode}.{name}", ok)
        reference = reference_loop()
        result["scale"] = REFERENCE_S / ((self.last_reference + reference) / 2)
        self.last_reference = reference
        result["prefix"] = prefix
        return result

    def repeat(self, seconds: float, rep) -> list:
        """Call rep(k) until the run has used its seconds, at least MIN_REPS
        times; a repetition starts only if a typical one would still end
        inside the run."""
        start = now()
        durations: list[float] = []
        results = []
        while len(durations) < MIN_REPS or now() - start + statistics.median(durations) <= seconds:
            if now() - start > RUN_LIMIT_S:
                break
            t = now()
            results.append(rep(len(durations)))
            durations.append(now() - t)
        return results


PLAIN_CHECKS = ("evolve_ok", "accounting", "roundtrip", "accuracy_recorded")
TRACED_CHECKS = ("accounting", "roundtrip", "accuracy_recorded")


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    """Medians over the run's workers; timings at the reference speed."""
    reps = [r for r in runner.repeat(seconds, lambda k: runner.worker("plain", PLAIN_CHECKS)) if r]
    if not reps:
        return {}
    wall = [r["total_s"] for r in reps]
    print(f"wall total_s over {len(wall)} workers: median {statistics.median(wall):.4f} s, "
          f"p{tail(wall)[1]:.0f} {tail(wall)[0]:.4f} s; host speed vs reference: "
          f"median {statistics.median(r['scale'] for r in reps):.3f}")
    return {
        "setup_s": statistics.median(r["setup_s"] * r["scale"] for r in reps),
        "total_s": statistics.median(r["total_s"] * r["scale"] for r in reps),
        "lines_per_s": statistics.median(r["lines_per_s"] / r["scale"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "accuracy": statistics.median(r["accuracy"] for r in reps),
    }


def per_layer(runner: Runner, seconds: float) -> dict[str, float]:
    def rep(k: int):
        # Alternate which side goes first so drift in machine load is shared.
        order = ("plain", "traced") if k % 2 == 0 else ("traced", "plain")
        out = {mode: runner.worker(mode, PLAIN_CHECKS if mode == "plain" else TRACED_CHECKS) for mode in order}
        plain, traced = out["plain"], out["traced"]
        runner.check(
            "traced.replay_bytes", plain is not None and traced is not None and plain["digest"] == traced["digest"]
        )
        return plain, traced

    pairs = runner.repeat(seconds, rep)
    plains = [p for p, _ in pairs if p]
    traced = [t for _, t in pairs if t]
    if not plains or not traced:
        return {}
    pooled: dict[str, list[float]] = {}
    layer_self: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    parse_rate, ingest_rate, growth = [], [], []
    for t in traced:
        durations, self_time = span_profile(Path(f"{t['prefix']}.spans.jsonl"))
        for name, values in durations.items():
            pooled.setdefault(name, []).extend(values)
        for layer in LAYERS:
            layer_self[layer].append(self_time.get(layer, 0.0))
        c = t["counts"]
        parse_rate.append(c["lines_read"] / sum(durations["ntriples.read_batch"]))
        ingest_rate.append(c["ingest_triples"] / sum(durations["kb.add_instance_triples"]))
        batches = durations["evolution.batch"]
        q = max(1, len(batches) // 4)
        growth.append(statistics.fmean(batches[-q:]) / statistics.fmean(batches[:q]))

    metrics: dict[str, float] = {}
    for stem, span_name in SPAN_TIMINGS:
        samples = pooled.get(span_name, [])
        metrics[stem] = statistics.median(samples)
        metrics[f"{stem}.tail"], metrics[f"{stem}.tail_pct"] = tail(samples)
        metrics[f"{stem}.n"] = len(samples)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(layer_self[layer])
    c = traced[0]["counts"]
    scored = c["instances_scored"]
    metrics.update(
        {
            "ntriples.lines_per_s": statistics.median(parse_rate),
            "ntriples.lines_read": c["lines_read"],
            "ntriples.triples_emitted": c["triples_emitted"],
            "ntriples.lines_skipped": c["lines_skipped"],
            "ntriples.parse_errors": c["parse_errors"],
            "kb.ingest_triples_per_s": statistics.median(ingest_rate),
            "kb.placeholders": c["placeholders"],
            "kb.vocab_properties": c["vocab_properties"],
            "kb.snapshot_bytes": c["snapshot_bytes"],
            "type_inference.passes": c["typing_passes"],
            "type_inference.instances_scored": scored,
            "type_inference.newly_typed": c["newly_typed"],
            "type_inference.retyped": c["retyped"],
            "type_inference.useful_ratio": (c["newly_typed"] + c["retyped"]) / scored if scored else 0.0,
            "generalization.passes": c["gen_passes"],
            "generalization.classes_evaluated": c["classes_evaluated"],
            "generalization.domains_added": c["domains_added"],
            "generalization.domains_removed": c["domains_removed"],
            "generalization.domain_recall": c["domain_recall"],
            "evolution.batches": c["batches"],
            "evolution.rounds": c["rounds"],
            "evolution.rounds_per_batch_max": c["rounds_per_batch_max"],
            "evolution.unconverged_batches": c["unconverged_batches"],
            "evolution.batch_growth": statistics.median(growth),
            "trace.overhead_s": statistics.median(t["total_s"] * t["scale"] for t in traced)
            - statistics.median(p["total_s"] * p["scale"] for p in plains),
            "harness.reference_s": statistics.median(REFERENCE_S / r["scale"] for r in plains + traced),
            "harness.wall_total_s": statistics.median(p["total_s"] for p in plains),
        }
    )
    return metrics


def run_probes(runner: Runner, workloads) -> int:
    """Known defects, run through the CLI on small files. Returns how many
    are still present. They are reported as a count, not as operations:
    every operation of a benchmark workload must succeed on working code."""
    probe = runner.work / "probe"
    probe.mkdir()
    (probe / "schema.nt").write_text(workloads.PROBE_SCHEMA, encoding="utf-8")
    (probe / "bad_encoding.nt").write_bytes(workloads.PROBE_BAD_ENCODING)
    (probe / "schema_in_data.nt").write_bytes(workloads.PROBE_SCHEMA_IN_DATA)

    def cli(*args: str) -> str | None:
        """The command's standard output, or None if it failed."""
        try:
            p = subprocess.run(
                [sys.executable, "-m", "kbevolve.cli", *args],
                capture_output=True,
                text=True,
                env=runner.env,
                cwd=probe,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None
        return p.stdout if p.returncode == 0 else None

    # One undecodable line must be tolerated like any other malformed line.
    out = cli("evolve", "schema.nt", "bad_encoding.nt", "--out", "enc.nt", "--report", "enc.csv")
    ok = out is not None and "tolerated 1 malformed instance lines" in out and (probe / "enc.nt").exists()
    results = {"probe.bad_encoding_line": ok}

    # A snapshot of a KB whose instance data used schema predicates must
    # reload and re-export to the same bytes.
    ok = (
        cli("evolve", "schema.nt", "schema_in_data.nt", "--out", "sid.nt", "--report", "sid.csv") is not None
        and cli("export", "sid.nt", "--out", "sid-again.nt") is not None
        and (probe / "sid.nt").read_bytes() == (probe / "sid-again.nt").read_bytes()
    )
    results["probe.schema_predicates_in_data_roundtrip"] = ok
    for name, ok in results.items():
        if not ok:
            print(f"known defect still present: {name}", file=sys.stderr)
    return sum(not ok for ok in results.values())


def run(workload: str, seed: int, seconds: float, trace: bool, *, small: bool = False) -> dict:
    """One run of one workload; returns the result object that main prints."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    work = WORK_ROOT / workload
    shutil.rmtree(work, ignore_errors=True)
    workloads.generate(workload, seed, work, small=small)
    runner = Runner(work)
    values = per_layer(runner, seconds) if trace else end_to_end(runner, seconds)
    if trace and values:
        values["probe.open_defects"] = run_probes(runner, workloads)
    catalogue = PER_LAYER if trace else END_TO_END
    return {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": UNITS[name]} for name, *_ in catalogue if name in values},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("stream", "drift", "bulk", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kbevolve" / "__init__.py").is_file():
        print(f"error: no kbevolve sources under {SRC}", file=sys.stderr)
        return 2
    names = ("stream", "drift", "bulk") if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    results = []
    for name in names:
        for trace in traces:
            result = run(name, args.seed, args.seconds, bool(trace))
            results.append(result)
            print(f"== {name} trace={trace}: attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}")
            for metric, v in result["metrics"].items():
                print(f"{name} {metric} {v['value']:.6g} {v['unit']}")
            if not result["metrics"]:
                print(f"error: no repetition of {name} completed", file=sys.stderr)
                return 1
    if args.workload == "all":
        return 0 if all(r["correct"] for r in results) else 1
    print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
