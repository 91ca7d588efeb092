"""Command-line surface: evolve, synth, report, ingest, export.

Exit codes: 0 success, 1 schema/configuration error, 2 I/O error.
Parse errors in instance data are tolerated and counted; snapshots read
by report/export must parse clean.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import ExitStack
from pathlib import Path

from kbevolve.errors import SchemaError
from kbevolve.evolution import (
    EvolutionConfig,
    classification_coverage,
    evolve,
    property_domain_ratio,
    write_report,
)
from kbevolve.generalization import ThresholdPolicy
from kbevolve.kb import KnowledgeBase, load_schema
from kbevolve.ntriples import ParseReport, read_batch, triple_to_line
from kbevolve.synth import SynthSpec, generate_kb
from kbevolve.type_inference import METHODS


# Lines per read_batch call in ingest, which keeps counts and error lines, not rows.
INGEST_BATCH_LINES = 10_000


def _parse_file(path: str) -> tuple[list[tuple[str, str, str | None]], ParseReport]:
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return read_batch(fh, sys.maxsize)


def _load_snapshot(path: str) -> KnowledgeBase:
    """Load a KB snapshot; any parse error means the file is corrupt."""
    rows, report = _parse_file(path)
    if report.errors:
        line, category = report.errors[0]
        raise OSError(f"corrupt snapshot {path}: {category} on line {line}")
    kb, leftover = load_schema(rows)
    kb.add_instance_triples(leftover)
    return kb


def cmd_evolve(args: argparse.Namespace) -> int:
    schema_rows, schema_report = _parse_file(args.schema)
    if schema_report.errors:
        print(f"warning: {len(schema_report.errors)} malformed schema lines skipped", file=sys.stderr)
    kb, leftover = load_schema(schema_rows)
    kb.add_instance_triples(leftover)
    config = EvolutionConfig(
        batch_lines=args.batch_lines,
        method=args.method,
        max_inner_rounds=args.max_inner_rounds,
        policy=ThresholdPolicy(deletion_factor=args.deletion_factor),
        deletion_enabled=not args.no_delete,
    )
    with ExitStack() as stack:
        source = stack.enter_context(open(args.triples, "r", encoding="utf-8", errors="surrogateescape"))
        typing_audit = domain_audit = None
        if args.typing_audit:
            typing_audit = stack.enter_context(open(args.typing_audit, "w", encoding="utf-8", newline=""))
        if args.domain_audit:
            domain_audit = stack.enter_context(open(args.domain_audit, "w", encoding="utf-8", newline=""))
        report = evolve(kb, source, config, typing_audit=typing_audit, domain_audit=domain_audit)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        statements = kb.export_ntriples(fh)
    with open(args.report, "w", encoding="utf-8", newline="") as fh:
        write_report(report, fh)
    for r in report.records:
        print(
            f"batch {r.iteration}: triples={r.triples_added} "
            f"classified={r.instances_classified} type_changes={r.type_changes} "
            f"domain_changes={r.domain_changes}"
        )
    if report.parse_errors:
        print(f"tolerated {report.parse_errors} malformed instance lines")
    if report.unconverged_batches:
        print(
            f"warning: {report.unconverged_batches} batches stopped at --max-inner-rounds before converging",
            file=sys.stderr,
        )
    print(f"saved {statements} statements to {args.out}; report: {args.report}")
    if report.error:
        print(f"error: {report.error}", file=sys.stderr)
        return 2
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        class_count=args.classes,
        signature_properties_per_class=args.sig,
        shared_properties=args.shared,
        instances_per_class=args.instances,
        hidden_type_fraction=args.hidden,
        noise_rate=args.noise,
        seed=args.seed,
    )
    schema, instances, truth = generate_kb(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    schema_path = out_dir / "synth_schema.nt"
    instances_path = out_dir / "synth_instances.nt"
    truth_path = out_dir / "synth_truth.csv"
    with open(schema_path, "w", encoding="utf-8", newline="") as fh:
        for t in schema:
            fh.write(triple_to_line(t) + "\n")
    with open(instances_path, "w", encoding="utf-8", newline="") as fh:
        for t in instances:
            fh.write(triple_to_line(t) + "\n")
    with open(truth_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "true_class"])
        for inst in sorted(truth.true_classes):
            writer.writerow([inst, truth.true_classes[inst]])
    print(f"wrote {schema_path}, {instances_path}, {truth_path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    kb = _load_snapshot(args.snapshot)
    coverage = classification_coverage(kb)
    domains = property_domain_ratio(kb)
    print(f"instances_total={coverage.instances_total}")
    print(f"instances_with_properties={coverage.with_properties}")
    print(f"instances_classified={coverage.classified}")
    print(f"instances_placeholder={coverage.placeholder}")
    print(f"classified_ratio={coverage.ratio:.6f}")
    print(f"classified_ratio_defined={str(coverage.defined).lower()}")
    print(f"properties_total={domains.properties_total}")
    print(f"properties_with_domain={domains.with_domain}")
    print(f"property_domain_ratio={domains.ratio:.6f}")
    print(f"property_domain_ratio_defined={str(domains.defined).lower()}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    if args.show_errors < 0:
        raise ValueError(f"--show-errors must be >= 0, got {args.show_errors}")
    total, parse_errors = ParseReport(), 0  # total.errors keeps only the errors to list
    with open(args.triples, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while True:
            _, batch = read_batch(fh, INGEST_BATCH_LINES, total.lines_read + 1)
            if batch.lines_read == 0:
                break
            total.lines_read += batch.lines_read
            total.triples_emitted += batch.triples_emitted
            total.lines_skipped += batch.lines_skipped
            parse_errors += len(batch.errors)
            total.errors += batch.errors[: args.show_errors - len(total.errors)]
    print(f"lines_read={total.lines_read}")
    print(f"triples_emitted={total.triples_emitted}")
    print(f"lines_skipped={total.lines_skipped}")
    print(f"parse_errors={parse_errors}")
    for line, category in total.errors:
        print(f"error line {line}: {category}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    kb = _load_snapshot(args.snapshot)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        statements = kb.export_ntriples(fh)
    print(f"wrote {statements} statements to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbevolve",
        description="Evolve an RDF knowledge base from instance triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    defaults = EvolutionConfig()
    p = sub.add_parser("evolve", formatter_class=fmt, help="run the evolution cycle over a triple file")
    p.add_argument("schema", help="N-Triples schema file")
    p.add_argument("triples", help="N-Triples instance data file")
    p.add_argument("--batch-lines", type=int, default=defaults.batch_lines, help="lines consumed per batch")
    p.add_argument("--method", choices=METHODS, default=defaults.method, help="typing method")
    p.add_argument(
        "--max-inner-rounds", type=int, default=defaults.max_inner_rounds, help="generalize/type rounds per batch"
    )
    p.add_argument(
        "--deletion-factor", type=float, default=ThresholdPolicy().deletion_factor, help="deletion hysteresis factor"
    )
    p.add_argument("--no-delete", action="store_true", help="disable domain deletion")
    p.add_argument("--out", default="evolved_kb.nt", help="evolved KB snapshot path")
    p.add_argument("--report", default="evolution_report.csv", help="per-batch metrics CSV path")
    p.add_argument("--typing-audit", default=None, help="optional typing decision CSV path")
    p.add_argument("--domain-audit", default=None, help="optional domain change CSV path")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("synth", formatter_class=fmt, help="generate a synthetic KB with ground truth")
    p.add_argument("--classes", type=int, default=20, help="number of leaf classes")
    p.add_argument("--sig", type=int, default=5, help="signature properties per class")
    p.add_argument("--shared", type=int, default=3, help="properties shared by every class")
    p.add_argument("--instances", type=int, default=50, help="instances per class")
    p.add_argument("--hidden", type=float, default=0.5, help="fraction of instances without a type assertion")
    p.add_argument("--noise", type=float, default=0.1, help="signature property drop rate")
    p.add_argument("--seed", type=int, default=42, help="generator seed")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", formatter_class=fmt, help="print coverage metrics for a KB snapshot")
    p.add_argument("snapshot", help="N-Triples KB snapshot")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("ingest", formatter_class=fmt, help="parse a triple file and print line accounting")
    p.add_argument("triples", help="N-Triples file")
    p.add_argument("--show-errors", type=int, default=10, help="max parse errors to list")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("export", formatter_class=fmt, help="load a snapshot and re-export it normalized")
    p.add_argument("snapshot", help="N-Triples KB snapshot")
    p.add_argument("--out", default="normalized_kb.nt", help="output path")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
