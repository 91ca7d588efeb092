"""The evolution orchestrator: read a batch of lines, add the triples,
then alternate generalization and typing until a round changes nothing
(bounded by max_inner_rounds), recording coverage metrics per batch.
"""

from __future__ import annotations

import csv
from typing import IO, Iterable, Iterator, NamedTuple

from kbevolve.generalization import ThresholdPolicy, run_generalization_pass
from kbevolve.kb import UNCLASSIFIED_LABEL, KnowledgeBase
from kbevolve.ntriples import read_batch
from kbevolve.record import Record
from kbevolve.type_inference import METHODS, assign_types

TYPING_AUDIT_COLUMNS = ("instance", "previous", "chosen", "score", "method")
DOMAIN_AUDIT_COLUMNS = ("class", "property", "action", "ratio", "threshold")


class EvolutionConfig(Record):
    __slots__ = ("batch_lines", "method", "max_inner_rounds", "policy", "deletion_enabled")

    def __init__(
        self, batch_lines=50000, method="pfidf", max_inner_rounds=5, policy=ThresholdPolicy(), deletion_enabled=True
    ):
        if batch_lines < 1:
            raise ValueError("batch_lines must be >= 1")
        if max_inner_rounds < 1:
            raise ValueError("max_inner_rounds must be >= 1")
        if method not in METHODS:
            raise ValueError(f"unknown method: {method}")
        self.batch_lines = batch_lines
        self.method = method
        self.max_inner_rounds = max_inner_rounds
        self.policy: ThresholdPolicy = policy
        self.deletion_enabled = deletion_enabled


class IterationRecord(NamedTuple):
    iteration: int
    triples_added: int
    instances_total: int
    instances_with_properties: int
    instances_classified: int
    instances_placeholder: int
    properties_total: int
    properties_with_domain: int
    type_changes: int
    domain_changes: int


REPORT_COLUMNS = IterationRecord._fields


class CoverageStats(NamedTuple):
    """Instance classification coverage.

    ratio = classified-with-properties / with-properties; defined is False
    when the denominator is zero (ratio then reads 0.0).
    """

    instances_total: int
    with_properties: int
    classified: int
    classified_with_properties: int
    placeholder: int
    ratio: float
    defined: bool


class DomainCoverageStats(NamedTuple):
    properties_total: int
    with_domain: int
    ratio: float
    defined: bool


class EvolutionReport(Record):
    __slots__ = ("records", "coverage", "domains", "parse_errors", "unconverged_batches", "error")

    def __init__(self, records=None, coverage=None, domains=None, parse_errors=0, unconverged_batches=0, error=None):
        self.records: list[IterationRecord] = [] if records is None else records
        self.coverage: CoverageStats | None = coverage
        self.domains: DomainCoverageStats | None = domains
        self.parse_errors = parse_errors
        self.unconverged_batches = unconverged_batches
        self.error: str | None = error


def classification_coverage(kb: KnowledgeBase) -> CoverageStats:
    """Read from the counters the KB keeps on every write."""
    with_properties = kb.instances_with_properties
    defined = with_properties > 0
    ratio = kb.classified_with_properties / with_properties if defined else 0.0
    return CoverageStats(
        len(kb.instances),
        with_properties,
        kb.instances_classified,
        kb.classified_with_properties,
        kb.placeholders,
        ratio,
        defined,
    )


def property_domain_ratio(kb: KnowledgeBase) -> DomainCoverageStats:
    """Read from the counter the KB keeps on every domain write."""
    total = len(kb.properties)
    with_domain = kb.properties_with_domain
    defined = total > 0
    ratio = with_domain / total if defined else 0.0
    return DomainCoverageStats(total, with_domain, ratio, defined)


def evolve(
    kb: KnowledgeBase,
    source: Iterable[str] | Iterator[str],
    config: EvolutionConfig,
    *,
    typing_audit: IO[str] | None = None,
    domain_audit: IO[str] | None = None,
) -> EvolutionReport:
    """Run the full cycle over a line source until it is exhausted.

    Per batch: read batch_lines lines, add the triples, then repeat
    generalize -> assign-types until a round produces zero domain changes
    and zero type changes, or max_inner_rounds is hit; a batch whose last
    allowed round still changed something counts in unconverged_batches.
    One IterationRecord is appended per non-empty batch. An I/O failure on
    the source stops after the last completed batch and is recorded on the
    report. Optional audit sinks receive a header row, then one CSV row per
    domain change, and per round one row per instance a typing pass has
    scored, in IRI order: its type and type_score, with the type before
    this round's decision when the round made one for it.
    """
    report = EvolutionReport()
    typing_writer = domain_writer = None
    if typing_audit is not None:
        typing_writer = csv.writer(typing_audit)
        typing_writer.writerow(TYPING_AUDIT_COLUMNS)
    if domain_audit is not None:
        domain_writer = csv.writer(domain_audit)
        domain_writer.writerow(DOMAIN_AUDIT_COLUMNS)
    source_iter = iter(source)
    next_line = 1
    iteration = 0
    while True:
        try:
            triples, parse_report = read_batch(source_iter, config.batch_lines, next_line)
        except OSError as exc:
            report.error = f"source read failed at line {next_line}: {exc}"
            break
        if parse_report.lines_read == 0:
            break
        next_line += parse_report.lines_read
        report.parse_errors += len(parse_report.errors)
        iteration += 1
        kb.add_instance_triples(triples)
        type_changes = domain_changes = 0
        for _ in range(config.max_inner_rounds):
            changes = run_generalization_pass(kb, config.policy, deletion_enabled=config.deletion_enabled)
            decisions = assign_types(kb, config.method)
            round_type_changes = sum(1 for d in decisions if d.chosen != d.previous)
            if domain_writer is not None:
                domain_writer.writerows(
                    (c.class_iri, c.property_iri, c.action, repr(c.support_ratio), repr(c.threshold))
                    for c in changes
                )
            if typing_writer is not None:
                previous = {d.instance: d.previous for d in decisions}
                typing_writer.writerows(
                    (
                        ikey,
                        previous.get(ikey, rec.assigned_type) or UNCLASSIFIED_LABEL,
                        rec.assigned_type or UNCLASSIFIED_LABEL,
                        repr(rec.type_score),
                        config.method,
                    )
                    for ikey, rec in sorted(kb.instances.items())
                    if rec.type_score is not None
                )
            domain_changes += len(changes)
            type_changes += round_type_changes
            if not changes and round_type_changes == 0:
                break
        else:
            report.unconverged_batches += 1
        coverage = classification_coverage(kb)
        domains = property_domain_ratio(kb)
        report.records.append(
            IterationRecord(
                iteration=iteration,
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
    report.coverage = classification_coverage(kb)
    report.domains = property_domain_ratio(kb)
    return report


def write_report(report: EvolutionReport, sink: IO[str]) -> int:
    """Write one CSV row per iteration record; returns data rows written."""
    writer = csv.writer(sink)
    writer.writerow(REPORT_COLUMNS)
    writer.writerows(report.records)
    return len(report.records)
