"""Synthetic generator and accuracy evaluation tests."""

import math
import statistics

import pytest

from kbevolve.errors import ConfigError, ConsistencyError
from kbevolve.evolution import EvolutionConfig, evolve
from kbevolve.kb import RDF_TYPE, load_schema
from kbevolve.ntriples import triple_to_line, triple_to_row
from kbevolve.synth import INST_NS, SynthSpec, evaluate_accuracy, generate_kb
from kbevolve.type_inference import idf_weight


def spec_with(**overrides):
    base = dict(
        class_count=4,
        signature_properties_per_class=3,
        shared_properties=1,
        instances_per_class=6,
        hidden_type_fraction=0.5,
        noise_rate=0.0,
        seed=1,
    )
    base.update(overrides)
    return SynthSpec(**base)


def evolve_from(spec: SynthSpec, method: str):
    schema, instances, truth = generate_kb(spec)
    kb, leftover = load_schema(map(triple_to_row, schema))
    assert leftover == []
    lines = [triple_to_line(t) + "\n" for t in instances]
    evolve(kb, iter(lines), EvolutionConfig(batch_lines=max(1, len(lines)), method=method))
    return kb, truth


class TestSpecValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"class_count": 0},
            {"signature_properties_per_class": 0},
            {"shared_properties": -1},
            {"instances_per_class": 0},
            {"hidden_type_fraction": 1.5},
            {"hidden_type_fraction": -0.1},
            {"noise_rate": 1.0},
            {"noise_rate": -0.2},
        ],
    )
    def test_invalid_specs_rejected(self, overrides):
        with pytest.raises(ConfigError):
            spec_with(**overrides)


class TestGenerate:
    def test_noise_free_minimal_construction(self):
        spec = SynthSpec(2, 2, 0, 1, 0.0, 0.0, seed=7)
        schema, instances, truth = generate_kb(spec)
        by_subject: dict[str, list] = {}
        for t in instances:
            by_subject.setdefault(t.subject.value, []).append(t)
        assert len(by_subject) == 2
        for inst, triples in by_subject.items():
            predicates = {t.predicate.value for t in triples}
            assert RDF_TYPE in predicates
            assert predicates - {RDF_TYPE} == truth.signatures[truth.true_classes[inst]]

    def test_hidden_fraction_extremes(self):
        _, instances, truth = generate_kb(spec_with(hidden_type_fraction=1.0))
        assert all(t.predicate.value != RDF_TYPE for t in instances)
        assert len(truth.hidden) == len(truth.true_classes)
        _, instances, truth = generate_kb(spec_with(hidden_type_fraction=0.0))
        assert truth.hidden == set()
        typed = {t.subject.value for t in instances if t.predicate.value == RDF_TYPE}
        assert typed == set(truth.true_classes)

    def test_same_seed_byte_identical(self):
        spec = spec_with(noise_rate=0.2, seed=42)
        first = generate_kb(spec)
        second = generate_kb(spec)
        assert [triple_to_line(t) for t in first[0]] == [triple_to_line(t) for t in second[0]]
        assert [triple_to_line(t) for t in first[1]] == [triple_to_line(t) for t in second[1]]
        assert first[2].true_classes == second[2].true_classes
        assert first[2].hidden == second[2].hidden

    def test_different_seeds_differ(self):
        a = generate_kb(spec_with(noise_rate=0.3, seed=1))[1]
        b = generate_kb(spec_with(noise_rate=0.3, seed=2))[1]
        assert [triple_to_line(t) for t in a] != [triple_to_line(t) for t in b]

    def test_shared_properties_cover_every_class(self):
        spec = spec_with(shared_properties=2)
        schema, _, _ = generate_kb(spec)
        kb, _ = load_schema(map(triple_to_row, schema))
        shared = [p for p in kb.properties if "shared" in p]
        assert len(shared) == 2
        for prop in shared:
            assert set(kb.properties[prop].domains) == set(kb.classes)
            assert idf_weight(kb, prop) == 0.0

    def test_every_instance_in_truth(self):
        spec = spec_with()
        _, _, truth = generate_kb(spec)
        assert len(truth.true_classes) == spec.class_count * spec.instances_per_class


class TestEvaluateAccuracy:
    def test_noise_free_recovery_all_methods(self):
        for method in ("naive", "cosine", "pfidf"):
            kb, truth = evolve_from(spec_with(), method)
            accuracy, confusion = evaluate_accuracy(kb, truth)
            assert accuracy == 1.0
            assert all(true == assigned for true, assigned in confusion)

    def test_missing_instance_raises(self):
        spec = spec_with()
        _, _, truth = generate_kb(spec)
        kb, _ = load_schema([])
        with pytest.raises(ConsistencyError):
            evaluate_accuracy(kb, truth)

    @pytest.mark.parametrize("noise", [0.8, 0.9])
    def test_instance_with_no_emitted_triple_is_not_hidden(self, noise):
        # Noise drops every triple of c022_i010, one of its class's hidden-type instances.
        schema, instances, truth = generate_kb(SynthSpec(50, 5, 3, 40, 0.5, noise, 7))
        subjects = {t.subject.value for t in instances}
        assert INST_NS + "c022_i010" in truth.true_classes.keys() - subjects
        assert truth.hidden <= subjects
        kb, _ = load_schema(map(triple_to_row, schema))
        lines = [triple_to_line(t) + "\n" for t in instances]
        evolve(kb, iter(lines), EvolutionConfig(batch_lines=500, method="pfidf"))
        accuracy, _ = evaluate_accuracy(kb, truth)
        assert math.isfinite(accuracy)

    def test_paired_seeds_pfidf_at_least_cosine(self):
        # Paired-run comparison under identical seeds.
        spec_kwargs = dict(
            class_count=6,
            signature_properties_per_class=3,
            shared_properties=3,
            instances_per_class=10,
            hidden_type_fraction=0.5,
            noise_rate=0.1,
        )
        pfidf_scores, cosine_scores = [], []
        for seed in range(3):
            kb, truth = evolve_from(SynthSpec(seed=seed, **spec_kwargs), "pfidf")
            pfidf_scores.append(evaluate_accuracy(kb, truth)[0])
            kb, truth = evolve_from(SynthSpec(seed=seed, **spec_kwargs), "cosine")
            cosine_scores.append(evaluate_accuracy(kb, truth)[0])
        assert statistics.mean(pfidf_scores) >= statistics.mean(cosine_scores)

    def test_accuracy_non_increasing_in_noise_on_average(self):
        kwargs = dict(
            class_count=5,
            signature_properties_per_class=4,
            shared_properties=2,
            instances_per_class=8,
            hidden_type_fraction=0.5,
        )
        means = []
        for noise in (0.0, 0.3, 0.6):
            scores = []
            for seed in range(10):
                kb, truth = evolve_from(SynthSpec(noise_rate=noise, seed=seed, **kwargs), "pfidf")
                scores.append(evaluate_accuracy(kb, truth)[0])
            means.append(statistics.mean(scores))
        assert means[0] >= means[1] >= means[2]
