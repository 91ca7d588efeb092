"""The evolution orchestrator: read a batch of lines, add the triples,
then alternate generalization and typing until a round changes nothing
(bounded by max_inner_rounds), recording coverage metrics per batch.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, field, fields
from typing import IO, Iterable, Iterator

from kbevolve.generalization import ThresholdPolicy, run_generalization_pass
from kbevolve.kb import UNCLASSIFIED_LABEL, KnowledgeBase
from kbevolve.ntriples import read_batch
from kbevolve.type_inference import METHODS, assign_types

TYPING_AUDIT_COLUMNS = ("instance", "previous", "chosen", "score", "method")
DOMAIN_AUDIT_COLUMNS = ("class", "property", "action", "ratio", "threshold")


@dataclass
class EvolutionConfig:
    batch_lines: int = 50000
    method: str = "pfidf"
    max_inner_rounds: int = 5
    policy: ThresholdPolicy = field(default_factory=ThresholdPolicy)
    deletion_enabled: bool = True

    def __post_init__(self):
        if self.batch_lines < 1:
            raise ValueError("batch_lines must be >= 1")
        if self.max_inner_rounds < 1:
            raise ValueError("max_inner_rounds must be >= 1")
        if self.method not in METHODS:
            raise ValueError(f"unknown method: {self.method}")


@dataclass
class IterationRecord:
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


REPORT_COLUMNS = tuple(f.name for f in fields(IterationRecord))


@dataclass
class CoverageStats:
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


@dataclass
class DomainCoverageStats:
    properties_total: int
    with_domain: int
    ratio: float
    defined: bool


@dataclass
class EvolutionReport:
    records: list[IterationRecord] = field(default_factory=list)
    coverage: CoverageStats | None = None
    domains: DomainCoverageStats | None = None
    parse_errors: int = 0
    unconverged_batches: int = 0
    error: str | None = None


def classification_coverage(kb: KnowledgeBase) -> CoverageStats:
    total = len(kb.instances)
    with_properties = classified = classified_with_properties = placeholder = 0
    for rec in kb.instances.values():
        if rec.properties:
            with_properties += 1
        if rec.assigned_type is not None:
            classified += 1
            if rec.properties:
                classified_with_properties += 1
        if rec.placeholder:
            placeholder += 1
    defined = with_properties > 0
    ratio = classified_with_properties / with_properties if defined else 0.0
    return CoverageStats(
        total, with_properties, classified, classified_with_properties, placeholder, ratio, defined
    )


def property_domain_ratio(kb: KnowledgeBase) -> DomainCoverageStats:
    total = len(kb.properties)
    with_domain = sum(1 for rec in kb.properties.values() if rec.domains)
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
    domain change, and per round one row per instance in kb.typing_cache:
    the decision made that round, or else its cached last decision.
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
                made = {d.instance: d for d in decisions}
                typing_writer.writerows(
                    (
                        d.instance,
                        d.previous or UNCLASSIFIED_LABEL,
                        d.chosen or UNCLASSIFIED_LABEL,
                        repr(d.score),
                        d.method,
                    )
                    for d in (made.get(ikey, cached) for ikey, cached in sorted(kb.typing_cache.items()))
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
    writer.writerows(astuple(r) for r in report.records)
    return len(report.records)
