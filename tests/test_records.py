"""The records' contract: constructors, equality, hashing, mutability and
validation. Immutable values are named tuples; mutable state is a
``__slots__`` record with value equality."""

import ast
from pathlib import Path

import pytest

from helpers import CLS, INST, PROP, subclass, t, t_lit
from kbevolve import generalization
from kbevolve.errors import ConfigError
from kbevolve.evolution import (
    REPORT_COLUMNS,
    CoverageStats,
    DomainCoverageStats,
    EvolutionConfig,
    EvolutionReport,
    IterationRecord,
)
from kbevolve.generalization import ACTION_ADDED, DomainChange, ThresholdPolicy, run_generalization_pass
from kbevolve.kb import OWL_THING, RDF_TYPE, ClassNode, InstanceRecord, PropertyRecord, load_schema
from kbevolve.ntriples import ParseReport
from kbevolve.synth import GroundTruth, SynthSpec
from kbevolve.type_inference import TypingDecision

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

RECORD = IterationRecord(1, 10, 20, 15, 12, 2, 8, 6, 3, 1)
COVERAGE = CoverageStats(20, 15, 12, 11, 2, 11 / 15, True)
DOMAINS = DomainCoverageStats(8, 6, 0.75, True)

# Every record constructor perfbench/worker.py and perfbench/workloads.py
# call, with every keyword they pass.
WORKER_CALLS = {
    "EvolutionConfig": {"batch_lines": 195, "method": "cosine"},
    "SynthSpec": dict(zip(SynthSpec._fields, (2, 5, 3, 8, 0.5, 0.1, 1))),
    "GroundTruth": {"true_classes": {INST + "i": CLS + "C"}, "hidden": {INST + "i"}},
    "IterationRecord": dict(zip(REPORT_COLUMNS, RECORD)),
    "EvolutionReport": {"records": [RECORD], "coverage": COVERAGE, "domains": DOMAINS, "parse_errors": 2},
}
RECORD_TYPES = {
    cls.__name__: cls
    for cls in (
        ClassNode,
        CoverageStats,
        DomainChange,
        DomainCoverageStats,
        EvolutionConfig,
        EvolutionReport,
        GroundTruth,
        InstanceRecord,
        IterationRecord,
        ParseReport,
        PropertyRecord,
        SynthSpec,
        ThresholdPolicy,
        TypingDecision,
    )
}

VALUES = [
    TypingDecision(INST + "i", None, CLS + "C", 0.5),
    DomainChange(CLS + "C", PROP + "p", ACTION_ADDED, 1.0, 0.5),
    RECORD,
    COVERAGE,
    DOMAINS,
    ClassNode(OWL_THING, 1),
    ThresholdPolicy(),
    SynthSpec(2, 2, 1, 3, 0.5, 0.0, seed=1),
]


def worker_calls() -> dict[str, set[str]]:
    """Record constructor name -> the keywords the benchmark passes to it."""
    calls: dict[str, set[str]] = {}
    for name in ("worker.py", "workloads.py"):
        for node in ast.walk(ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in RECORD_TYPES:
                calls.setdefault(node.func.id, set()).update(k.arg for k in node.keywords)
    return calls


class TestWorkerConstructors:
    def test_every_worker_call_is_listed(self):
        calls = worker_calls()
        assert calls.keys() == WORKER_CALLS.keys()
        assert {name: keywords - WORKER_CALLS[name].keys() for name, keywords in calls.items()} == {
            name: set() for name in calls
        }

    @pytest.mark.parametrize("name", sorted(WORKER_CALLS))
    def test_keywords_land_on_attributes(self, name):
        kwargs = WORKER_CALLS[name]
        made = RECORD_TYPES[name](**kwargs)
        assert {k: getattr(made, k) for k in kwargs} == kwargs
        assert made == RECORD_TYPES[name](**kwargs)

    def test_defaults_fill_the_rest(self):
        report = EvolutionReport(**WORKER_CALLS["EvolutionReport"])
        assert (report.unconverged_batches, report.error) == (0, None)
        config = EvolutionConfig(**WORKER_CALLS["EvolutionConfig"])
        assert (config.max_inner_rounds, config.policy, config.deletion_enabled) == (5, ThresholdPolicy(), True)
        assert GroundTruth(**WORKER_CALLS["GroundTruth"]).signatures == {}


class TestValueRecords:
    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_reject_attribute_assignment(self, value):
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], value[0])
        with pytest.raises(AttributeError):
            value.extra = 1

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_unpack_and_equal_same_valued_tuples(self, value):
        assert value == tuple(value)
        assert hash(value) == hash(tuple(value))
        assert type(value)(*value) == value
        assert dict(zip(value._fields, value)) == {f: getattr(value, f) for f in value._fields}

    def test_report_columns_are_the_record_fields(self):
        assert REPORT_COLUMNS == IterationRecord._fields
        assert REPORT_COLUMNS[0] == "iteration"

    def test_threshold_policy_equality_and_hashing(self):
        assert ThresholdPolicy() == ThresholdPolicy(0.5) == ThresholdPolicy(deletion_factor=0.5)
        assert ThresholdPolicy() != ThresholdPolicy(1.0)
        assert len({ThresholdPolicy(), ThresholdPolicy(0.5), ThresholdPolicy(1.0)}) == 2
        assert (ThresholdPolicy(), True) in {(ThresholdPolicy(0.5), True)}

    def test_equal_policy_keeps_generalized_classes_clean(self, monkeypatch):
        kb, _ = load_schema([subclass(CLS + "A", OWL_THING), subclass(CLS + "B", OWL_THING)])
        kb.add_instance_triples(
            [t(INST + "a", RDF_TYPE, CLS + "A"), t_lit(INST + "a", PROP + "p")]
            + [t(INST + "b", RDF_TYPE, CLS + "B"), t_lit(INST + "b", PROP + "q")]
        )
        run_generalization_pass(kb, ThresholdPolicy())
        evaluated = []
        real = generalization.evaluate_class

        def counting(kb, class_iri, *args, **kwargs):
            evaluated.append(class_iri)
            return real(kb, class_iri, *args, **kwargs)

        monkeypatch.setattr(generalization, "evaluate_class", counting)
        run_generalization_pass(kb, ThresholdPolicy(0.5))  # an equal policy, another object
        assert evaluated == []
        run_generalization_pass(kb, ThresholdPolicy(1.0))
        assert evaluated == [CLS + "A", CLS + "B"]


class TestMutableRecords:
    def test_parse_report_mutates_and_compares_by_value(self):
        report = ParseReport()
        report.lines_read += 3
        report.triples_emitted = 2
        report.errors.append((3, "missing dot"))
        assert report == ParseReport(3, 2, 0, [(3, "missing dot")])
        assert report != ParseReport(3, 2, 1, [(3, "missing dot")])
        assert ParseReport().errors is not ParseReport().errors

    def test_evolution_report_mutates_and_compares_by_value(self):
        report = EvolutionReport()
        report.records.append(RECORD)
        report.parse_errors += 1
        report.coverage = COVERAGE
        assert report == EvolutionReport([RECORD], COVERAGE, parse_errors=1)
        assert report != EvolutionReport([RECORD], COVERAGE, parse_errors=2)
        assert EvolutionReport().records is not EvolutionReport().records

    @pytest.mark.parametrize("make", [ParseReport, EvolutionReport, EvolutionConfig, GroundTruth, PropertyRecord])
    def test_unhashable_slotted_and_not_equal_to_other_types(self, make):
        record = make()
        with pytest.raises(TypeError):
            hash(record)
        with pytest.raises(AttributeError):
            record.misspelled = 1
        assert record != tuple(getattr(record, f) for f in record.__slots__)

    def test_instance_record_keywords(self):
        rec = InstanceRecord(placeholder=True)
        assert (rec.assigned_type, rec.properties, rec.placeholder, rec.type_score) == (None, frozenset(), True, None)
        assert rec == InstanceRecord(None, frozenset(), True)

    def test_repr_names_every_field(self):
        assert repr(ParseReport(errors=[(1, "bad iri")])) == (
            "ParseReport(lines_read=0, triples_emitted=0, lines_skipped=0, errors=[(1, 'bad iri')])"
        )


class TestValidation:
    @pytest.mark.parametrize("factor", [0.0, -1.0, 1.5])
    def test_threshold_policy(self, factor):
        with pytest.raises(ValueError) as caught:
            ThresholdPolicy(factor)
        assert type(caught.value) is ValueError
        assert str(caught.value) == "deletion_factor must be in (0, 1]"
        with pytest.raises(ValueError, match=r"deletion_factor must be in \(0, 1\]"):
            ThresholdPolicy()._replace(deletion_factor=factor)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("class_count", 0, "class_count must be >= 1"),
            ("signature_properties_per_class", 0, "signature_properties_per_class must be >= 1"),
            ("shared_properties", -1, "shared_properties must be >= 0"),
            ("instances_per_class", 0, "instances_per_class must be >= 1"),
            ("hidden_type_fraction", 1.5, "hidden_type_fraction must be in [0, 1]"),
            ("noise_rate", 1.0, "noise_rate must be in [0, 1)"),
        ],
    )
    def test_synth_spec(self, field, value, message):
        valid = dict(zip(SynthSpec._fields, (2, 2, 1, 3, 0.5, 0.0, 1)))
        with pytest.raises(ConfigError) as caught:
            SynthSpec(**{**valid, field: value})
        assert str(caught.value) == message
        with pytest.raises(ConfigError):
            SynthSpec(**valid)._replace(**{field: value})

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"batch_lines": 0}, "batch_lines must be >= 1"),
            ({"max_inner_rounds": 0}, "max_inner_rounds must be >= 1"),
            ({"method": "nope"}, "unknown method: nope"),
            ({"batch_lines": 0, "max_inner_rounds": 0, "method": "nope"}, "batch_lines must be >= 1"),
        ],
    )
    def test_evolution_config(self, kwargs, message):
        with pytest.raises(ValueError) as caught:
            EvolutionConfig(**kwargs)
        assert type(caught.value) is ValueError
        assert str(caught.value) == message
