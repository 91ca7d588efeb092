"""Orchestrator, coverage metrics, and report serialization tests."""

import io
from collections import Counter

import pytest

from helpers import CLS, INST, PROP, kb_instance_state, subclass, t, t_lit
from kbevolve.evolution import (
    DOMAIN_AUDIT_COLUMNS,
    REPORT_COLUMNS,
    TYPING_AUDIT_COLUMNS,
    EvolutionConfig,
    EvolutionReport,
    IterationRecord,
    classification_coverage,
    evolve,
    property_domain_ratio,
    write_report,
)
from kbevolve.generalization import ThresholdPolicy, run_generalization_pass
from kbevolve.kb import OWL_THING, RDF_TYPE, KnowledgeBase, load_schema
from kbevolve.ntriples import parse_ntriple_line, triple_to_line, triple_to_row
from kbevolve.synth import SynthSpec, generate_kb
from kbevolve.type_inference import assign_types


def load_synth(spec: SynthSpec):
    schema, instances, truth = generate_kb(spec)
    kb, leftover = load_schema(map(triple_to_row, schema))
    assert leftover == []
    lines = [triple_to_line(tr) + "\n" for tr in instances]
    return kb, lines, truth


class TestCoverage:
    def test_hand_counted_ratio(self):
        kb, _ = load_schema([subclass(CLS + "C", OWL_THING)])
        kb.add_instance_triples(
            [
                t(INST + "c1", RDF_TYPE, CLS + "C"),
                t_lit(INST + "c1", PROP + "p"),
                t(INST + "c2", RDF_TYPE, CLS + "C"),
                t_lit(INST + "c2", PROP + "p"),
                t(INST + "u1", PROP + "p", INST + "ph1"),
            ]
        )
        stats = classification_coverage(kb)
        assert stats.instances_total == 4
        assert stats.with_properties == 3
        assert stats.classified == 2
        assert stats.placeholder == 1
        assert stats.ratio == pytest.approx(2 / 3)
        assert stats.defined

    def test_all_classified(self):
        kb, _ = load_schema([subclass(CLS + "C", OWL_THING)])
        kb.add_instance_triples(
            [t(INST + "i", RDF_TYPE, CLS + "C"), t_lit(INST + "i", PROP + "p")]
        )
        assert classification_coverage(kb).ratio == 1.0

    def test_empty_kb_flagged(self):
        stats = classification_coverage(KnowledgeBase())
        assert stats.ratio == 0.0
        assert not stats.defined

    def test_property_domain_ratio(self):
        kb = KnowledgeBase()
        kb.add_instance_triples(
            [t_lit(INST + "i", PROP + f"p{k}") for k in range(10)]
        )
        for k in range(7):
            kb.add_domain(PROP + f"p{k}", OWL_THING, "schema")
        stats = property_domain_ratio(kb)
        assert stats.properties_total == 10
        assert stats.with_domain == 7
        assert stats.ratio == pytest.approx(0.7)

    def test_all_domains_empty(self):
        kb = KnowledgeBase()
        kb.add_instance_triples([t_lit(INST + "i", PROP + "p")])
        assert property_domain_ratio(kb).ratio == 0.0

    def test_empty_properties_flagged(self):
        stats = property_domain_ratio(KnowledgeBase())
        assert stats.ratio == 0.0 and not stats.defined

    def test_ratio_monotone_with_deletion_off(self):
        kb, lines, _ = load_synth(SynthSpec(4, 2, 1, 6, 0.0, 0.0, seed=2))
        # Strip the planted domains so the pass has work to do.
        for prop, record in kb.properties.items():
            for cls in list(record.domains):
                kb.remove_domain(prop, cls)
        kb.add_instance_triples([_parse(line) for line in lines])
        before = property_domain_ratio(kb).ratio
        run_generalization_pass(kb, ThresholdPolicy(), deletion_enabled=False)
        assert property_domain_ratio(kb).ratio >= before


def _parse(line):
    return triple_to_row(parse_ntriple_line(line))


class TestEvolve:
    def test_empty_source_no_records_kb_unchanged(self):
        kb, _ = load_schema([subclass(CLS + "C", OWL_THING)])
        before = kb_instance_state(kb)
        report = evolve(kb, io.StringIO(""), EvolutionConfig(batch_lines=10))
        assert report.records == []
        assert report.error is None
        assert kb_instance_state(kb) == before

    def test_single_batch_converges(self):
        kb, lines, truth = load_synth(SynthSpec(5, 3, 1, 10, 0.5, 0.0, seed=3))
        config = EvolutionConfig(batch_lines=len(lines) + 10, method="pfidf")
        report = evolve(kb, iter(lines), config)
        assert len(report.records) == 1
        # Fixed point: re-running the two passes changes nothing.
        assert run_generalization_pass(kb, config.policy) == []
        assert assign_types(kb, "pfidf") == []

    def test_three_batches_monotone(self):
        kb, lines, _ = load_synth(SynthSpec(6, 3, 1, 12, 0.5, 0.0, seed=4))
        batch = -(-len(lines) // 3)
        config = EvolutionConfig(batch_lines=batch, method="cosine", deletion_enabled=False)
        report = evolve(kb, iter(lines), config)
        assert len(report.records) == 3
        classified = [r.instances_classified for r in report.records]
        domains = [r.properties_with_domain for r in report.records]
        totals = [r.instances_total for r in report.records]
        assert classified == sorted(classified)
        assert domains == sorted(domains)
        assert totals == sorted(totals)
        assert [r.iteration for r in report.records] == [1, 2, 3]

    def test_final_record_matches_independent_recount(self):
        kb, lines, _ = load_synth(SynthSpec(4, 2, 1, 8, 0.5, 0.0, seed=5))
        report = evolve(kb, iter(lines), EvolutionConfig(batch_lines=len(lines)))
        last = report.records[-1]
        classified = sum(1 for r in kb.instances.values() if r.assigned_type is not None)
        with_props = sum(1 for r in kb.instances.values() if r.properties)
        assert last.instances_classified == classified
        assert last.instances_with_properties == with_props
        assert last.instances_total == len(kb.instances)
        assert last.properties_total == len(kb.properties)

    def test_io_error_keeps_completed_batches(self):
        kb, lines, _ = load_synth(SynthSpec(3, 2, 0, 6, 0.0, 0.0, seed=6))

        def flaky():
            yield from lines[:10]
            raise OSError("stream interrupted")

        report = evolve(kb, flaky(), EvolutionConfig(batch_lines=5))
        assert report.error is not None and "stream interrupted" in report.error
        assert len(report.records) == 2

    def test_inner_round_cap_respected(self):
        kb, lines, _ = load_synth(SynthSpec(3, 2, 1, 6, 0.5, 0.0, seed=7))
        report = evolve(kb, iter(lines), EvolutionConfig(batch_lines=len(lines), max_inner_rounds=1))
        assert len(report.records) == 1

    @pytest.mark.parametrize("max_inner_rounds,unconverged", [(1, 1), (2, 0), (5, 0)])
    def test_inner_round_cut_off_counted(self, max_inner_rounds, unconverged):
        # The single batch changes types in its first round and none in its second.
        kb, lines, _ = load_synth(SynthSpec(3, 2, 1, 6, 0.5, 0.0, seed=7))
        config = EvolutionConfig(batch_lines=len(lines), max_inner_rounds=max_inner_rounds)
        report = evolve(kb, iter(lines), config)
        assert report.unconverged_batches == unconverged

    def test_audit_sinks_receive_rows(self):
        kb, lines, _ = load_synth(SynthSpec(3, 2, 1, 6, 0.5, 0.0, seed=8))
        typing_audit, domain_audit = io.StringIO(), io.StringIO()
        evolve(
            kb,
            iter(lines),
            EvolutionConfig(batch_lines=len(lines)),
            typing_audit=typing_audit,
            domain_audit=domain_audit,
        )
        typing_rows = typing_audit.getvalue().strip().splitlines()
        assert typing_rows[0] == ",".join(TYPING_AUDIT_COLUMNS)
        assert typing_rows[1:] and all(len(row.split(",")) == 5 for row in typing_rows)
        # Every round lists every instance with properties, the final quiet round included.
        listed = Counter(row.split(",")[0] for row in typing_rows[1:])
        assert set(listed) == {k for k, rec in kb.instances.items() if rec.properties}
        assert len(set(listed.values())) == 1 and min(listed.values()) >= 2
        domain_rows = domain_audit.getvalue().strip().splitlines()
        assert domain_rows[0] == ",".join(DOMAIN_AUDIT_COLUMNS)
        assert all(len(row.split(",")) == 5 for row in domain_rows)

    def test_typing_audit_lists_instances_typed_before(self):
        kb, lines, _ = load_synth(SynthSpec(3, 2, 1, 6, 0.5, 0.0, seed=8))
        config = EvolutionConfig(batch_lines=len(lines))
        evolve(kb, iter(lines), config)
        typing_audit = io.StringIO()
        # A repeated usage line changes nothing, so its one round makes no decision.
        repeated = next(line for line in lines if RDF_TYPE not in line)
        evolve(kb, iter([repeated]), config, typing_audit=typing_audit)
        listed = [row.split(",")[0] for row in typing_audit.getvalue().strip().splitlines()[1:]]
        assert listed == sorted(k for k, rec in kb.instances.items() if rec.properties)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(batch_lines=0)
        with pytest.raises(ValueError):
            EvolutionConfig(max_inner_rounds=0)
        with pytest.raises(ValueError):
            EvolutionConfig(method="nope")


class TestWriteReport:
    def _record(self, i):
        return IterationRecord(i, 10, 20, 15, 12, 2, 8, 6, 3, 1)

    def test_row_and_line_counts(self):
        report = EvolutionReport(records=[self._record(i) for i in (1, 2, 3)])
        out = io.StringIO()
        assert write_report(report, out) == 3
        lines = out.getvalue().strip().splitlines()
        assert len(lines) == 4
        assert lines[0] == ",".join(REPORT_COLUMNS)

    def test_empty_report_header_only(self):
        out = io.StringIO()
        assert write_report(EvolutionReport(), out) == 0
        assert out.getvalue().strip() == ",".join(REPORT_COLUMNS)

    def test_reserialization_identical(self):
        report = EvolutionReport(records=[self._record(1)])
        first, second = io.StringIO(), io.StringIO()
        write_report(report, first)
        write_report(report, second)
        assert first.getvalue() == second.getvalue()
