"""One benchmark repetition in a fresh process.

    python3 perfbench/worker.py plain|traced WORKDIR T0 OUT_PREFIX

WORKDIR holds the inputs written by ``workloads.generate``; T0 is the
CLOCK_MONOTONIC reading the parent took just before starting this process,
so the set-up time includes interpreter start and ``import kbevolve``.

``plain`` runs the README library sequence with ``evolve`` untouched.
``traced`` replays ``evolve``'s loop through the same public calls and
records a span around each call into a layer; the spans are written to
OUT_PREFIX.spans.jsonl when the run ends. Both modes write the snapshot and
report CSV to OUT_PREFIX.nt / OUT_PREFIX.csv, check the outputs, and print
one JSON object as the last line of standard output.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from kbevolve import (
    EvolutionConfig,
    EvolutionReport,
    GroundTruth,
    IterationRecord,
    assign_types,
    classification_coverage,
    evaluate_accuracy,
    evolve,
    load_schema,
    property_domain_ratio,
    read_batch,
    run_generalization_pass,
    write_report,
)
from kbevolve.generalization import ACTION_ADDED

VOCAB_NAMESPACES = ("http://www.w3.org/1999/02/22-rdf-syntax-ns#", "http://www.w3.org/2000/01/rdf-schema#")
SCHEMA_BATCH = 1 << 20


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, run id]."""

    def __init__(self, run_id: str, t0: float):
        self.run_id = run_id
        self.spans: list[list] = [["run", t0, None, None, run_id]]
        self.stack = [0]

    @contextmanager
    def span(self, name: str):
        rec = [name, now(), None, self.stack[-1], self.run_id]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[2] = now()
            self.stack.pop()

    def write(self, path: Path) -> None:
        self.spans[0][2] = now()
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "run": run_id}) + "\n")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(prefix: Path) -> str:
    h = hashlib.sha256()
    for suffix in (".nt", ".csv"):
        h.update(Path(f"{prefix}{suffix}").read_bytes())
    return h.hexdigest()


def check_roundtrip(prefix: Path) -> bool:
    """Reload the snapshot and re-export it: the bytes must not change."""
    text = Path(f"{prefix}.nt").read_text(encoding="utf-8")
    triples, parse = read_batch(io.StringIO(text), max(1, text.count("\n")))
    if parse.errors:
        return False
    try:
        kb, leftover = load_schema(triples)
        kb.add_instance_triples(leftover)
    except Exception as exc:  # any failure to reload fails the check
        print(f"roundtrip: reload failed: {exc!r}", file=sys.stderr)
        return False
    out = io.StringIO()
    kb.export_ntriples(out)
    return out.getvalue() == text


def accuracy(kb, work: Path) -> float | None:
    data = json.loads((work / "truth.json").read_text(encoding="utf-8"))
    truth = GroundTruth(true_classes=data["true_classes"], hidden=set(data["hidden"]))
    value, _ = evaluate_accuracy(kb, truth)
    return value if math.isfinite(value) else None


def run_plain(work: Path, manifest: dict, t0: float, prefix: Path) -> dict:
    with open(work / "schema.nt", encoding="utf-8") as fh:
        schema_triples, _ = read_batch(fh, SCHEMA_BATCH)
    kb, leftover = load_schema(schema_triples)
    kb.add_instance_triples(leftover)
    t_setup = now()
    config = EvolutionConfig(batch_lines=manifest["batch_lines"], method=manifest["method"])
    with open(work / "instances.nt", encoding="utf-8") as fh:
        t_evolve = now()
        report = evolve(kb, fh, config)
        evolve_s = now() - t_evolve
    with open(f"{prefix}.nt", "w", encoding="utf-8", newline="") as fh:
        kb.export_ntriples(fh)
    with open(f"{prefix}.csv", "w", encoding="utf-8", newline="") as fh:
        write_report(report, fh)
    t_done = now()
    rss = peak_rss_mb()
    acc = accuracy(kb, work)
    emitted = sum(r.triples_added for r in report.records)
    checks = {
        "evolve_ok": report.error is None,
        "accounting": emitted == manifest["triples"] and report.parse_errors == manifest["errors"],
        "roundtrip": check_roundtrip(prefix),
        "accuracy_recorded": acc is not None,
    }
    return {
        "setup_s": t_setup - t0,
        "total_s": t_done - t0,
        "evolve_s": evolve_s,
        "lines_per_s": manifest["lines"] / evolve_s,
        "peak_rss_mb": rss,
        "accuracy": acc,
        "digest": digest(prefix),
        "checks": checks,
    }


def run_traced(work: Path, manifest: dict, t0: float, prefix: Path) -> dict:
    """Replay evolve() batch by batch through the public calls."""
    tr = Tracer(prefix.name, t0)
    span = tr.span
    with span("setup"):
        with open(work / "schema.nt", encoding="utf-8") as fh, span("ntriples.read_schema"):
            schema_triples, _ = read_batch(fh, SCHEMA_BATCH)
        with span("kb.load_schema"):
            kb, leftover = load_schema(schema_triples)
        with span("kb.add_leftover"):
            kb.add_instance_triples(leftover)
    config = EvolutionConfig(batch_lines=manifest["batch_lines"], method=manifest["method"])
    c = dict.fromkeys(
        (
            "lines_read", "triples_emitted", "lines_skipped", "parse_errors", "ingest_triples",
            "typing_passes", "instances_scored", "newly_typed", "retyped",
            "gen_passes", "classes_evaluated", "domains_added", "domains_removed",
            "batches", "rounds", "rounds_per_batch_max", "unconverged_batches",
        ),
        0,
    )
    error_lines: dict[str, str] = {}
    records: list[IterationRecord] = []
    with open(work / "instances.nt", encoding="utf-8") as fh:
        next_line = 1
        while True:
            with span("evolution.batch") as batch:
                with span("ntriples.read_batch") as read:
                    triples, parse = read_batch(fh, config.batch_lines, next_line)
                if parse.lines_read == 0:
                    # evolve() ends on this empty read too; keep it out of the batch samples.
                    batch[0], read[0] = "evolution.end_of_stream", "ntriples.end_of_stream"
                    break
                next_line += parse.lines_read
                c["lines_read"] += parse.lines_read
                c["triples_emitted"] += parse.triples_emitted
                c["lines_skipped"] += parse.lines_skipped
                c["parse_errors"] += len(parse.errors)
                error_lines.update((str(line), category) for line, category in parse.errors)
                with span("kb.add_instance_triples"):
                    kb.add_instance_triples(triples)
                c["ingest_triples"] += len(triples)
                c["batches"] += 1
                type_changes = domain_changes = rounds = 0
                converged = False
                for _ in range(config.max_inner_rounds):
                    rounds += 1
                    with span("evolution.round"):
                        c["classes_evaluated"] += sum(1 for v in kb.direct_instance_index.values() if v)
                        with span("generalization.pass"):
                            changes = run_generalization_pass(
                                kb, config.policy, deletion_enabled=config.deletion_enabled
                            )
                        with span("type_inference.pass"):
                            decisions = assign_types(kb, config.method)
                    c["gen_passes"] += 1
                    c["typing_passes"] += 1
                    c["instances_scored"] += len(decisions)
                    round_type_changes = 0
                    for d in decisions:
                        if d.chosen != d.previous:
                            round_type_changes += 1
                            c["newly_typed" if d.previous is None else "retyped"] += 1
                    for change in changes:
                        c["domains_added" if change.action == ACTION_ADDED else "domains_removed"] += 1
                    type_changes += round_type_changes
                    domain_changes += len(changes)
                    if not changes and round_type_changes == 0:
                        converged = True
                        break
                c["rounds"] += rounds
                c["rounds_per_batch_max"] = max(c["rounds_per_batch_max"], rounds)
                c["unconverged_batches"] += not converged
                with span("evolution.metrics"):
                    coverage = classification_coverage(kb)
                    domains = property_domain_ratio(kb)
                records.append(
                    IterationRecord(
                        iteration=c["batches"],
                        triples_added=len(triples),
                        instances_total=coverage.instances_total,
                        instances_with_properties=coverage.with_properties,
                        instances_classified=coverage.classified,
                        instances_placeholder=coverage.placeholder,
                        properties_total=domains.properties_total,
                        properties_with_domain=domains.with_domain,
                        type_changes=type_changes,
                        domain_changes=domain_changes,
                    )
                )
    with span("evolution.metrics"):
        coverage = classification_coverage(kb)
        domains = property_domain_ratio(kb)
    report = EvolutionReport(records=records, coverage=coverage, domains=domains, parse_errors=c["parse_errors"])
    with span("kb.export"):
        with open(f"{prefix}.nt", "w", encoding="utf-8", newline="") as fh:
            kb.export_ntriples(fh)
    with span("evolution.write_report"):
        with open(f"{prefix}.csv", "w", encoding="utf-8", newline="") as fh:
            write_report(report, fh)
    t_done = now()
    rss = peak_rss_mb()
    tr.write(Path(f"{prefix}.spans.jsonl"))

    acc = accuracy(kb, work)
    removed = manifest["removed_domains"]
    relearned = sum(1 for cls, prop in removed if prop in kb.properties and cls in kb.properties[prop].domains)
    c["domain_recall"] = relearned / len(removed) if removed else 0.0
    c["placeholders"] = coverage.placeholder
    c["vocab_properties"] = sum(1 for p in kb.properties if p.startswith(VOCAB_NAMESPACES))
    c["snapshot_bytes"] = Path(f"{prefix}.nt").stat().st_size
    checks = {
        "accounting": (
            c["lines_read"] == manifest["lines"]
            and c["triples_emitted"] == manifest["triples"]
            and c["lines_skipped"] == manifest["skipped"]
            and error_lines == manifest["error_lines"]
        ),
        "roundtrip": check_roundtrip(prefix),
        "accuracy_recorded": acc is not None,
    }
    return {
        "total_s": t_done - t0,
        "peak_rss_mb": rss,
        "accuracy": acc,
        "digest": digest(prefix),
        "counts": c,
        "checks": checks,
    }


def main(argv: list[str]) -> int:
    mode, work, t0, prefix = argv[0], Path(argv[1]), float(argv[2]), Path(argv[3])
    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    run = run_plain if mode == "plain" else run_traced
    print(json.dumps(run(work, manifest, t0, prefix)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
