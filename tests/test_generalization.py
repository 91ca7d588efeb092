"""Threshold, support counting, and generalization/deletion pass tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CLS, INST, PROP, domain, subclass, t, t_lit
from kbevolve.errors import UnknownEntityError
from kbevolve.generalization import (
    ACTION_ADDED,
    ACTION_REMOVED,
    ThresholdPolicy,
    delete_properties,
    generalization_threshold,
    generalize_properties,
    property_support,
    run_generalization_pass,
)
from kbevolve.kb import (
    OWL_THING,
    PROV_GENERALIZED,
    PROV_SCHEMA,
    RDF_TYPE,
    RDFS_DOMAIN,
    KnowledgeBase,
    load_schema,
)


class TestThreshold:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, 1.0), (10, 0.5), (100, 1 / 3), (1000, 0.25)],
    )
    def test_closed_form_values(self, n, expected):
        assert generalization_threshold(n) == pytest.approx(expected, abs=1e-12)

    def test_undefined_below_one(self):
        with pytest.raises(ValueError):
            generalization_threshold(0)

    @given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=200)
    def test_strictly_decreasing_and_bounded(self, a, b):
        pa, pb = generalization_threshold(a), generalization_threshold(b)
        assert 0.0 < pa <= 1.0
        if a < b:
            assert pa > pb

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(deletion_factor=0.0)
        with pytest.raises(ValueError):
            ThresholdPolicy(deletion_factor=1.5)

    def test_deletion_threshold_below_generalization(self):
        policy = ThresholdPolicy(deletion_factor=0.5)
        for n in (1, 10, 123):
            assert policy.deletion_threshold(n) < generalization_threshold(n)
        symmetric = ThresholdPolicy(deletion_factor=1.0)
        assert symmetric.deletion_threshold(10) == generalization_threshold(10)


def typed_kb(class_iri: str, instance_properties: dict[str, set[str]]) -> KnowledgeBase:
    kb, _ = load_schema([subclass(class_iri, OWL_THING)])
    batch = []
    for inst, props in instance_properties.items():
        batch.append(t(inst, RDF_TYPE, class_iri))
        batch.extend(t_lit(inst, p) for p in props)
    kb.add_instance_triples(batch)
    return kb


class TestPropertySupport:
    def test_hand_count(self):
        kb = typed_kb(
            CLS + "C",
            {INST + "i1": {PROP + "p", PROP + "q"}, INST + "i2": {PROP + "p"}},
        )
        stats = property_support(kb, CLS + "C")
        assert stats.n == 2
        assert stats.per_property[PROP + "p"] == (2, 1.0)
        assert stats.per_property[PROP + "q"] == (1, 0.5)

    def test_no_direct_instances(self):
        kb, _ = load_schema([subclass(CLS + "C", OWL_THING)])
        stats = property_support(kb, CLS + "C")
        assert stats.n == 0 and stats.per_property == {}

    def test_unknown_class_raises(self):
        with pytest.raises(UnknownEntityError):
            property_support(KnowledgeBase(), CLS + "Nope")

    def test_matches_brute_force_recount(self):
        # Oracle: recount over the raw instance -> property assignments.
        rng = random.Random(3)
        assignments = {
            INST + f"i{k}": {PROP + f"p{j}" for j in range(8) if rng.random() < 0.4} | {PROP + "base"}
            for k in range(30)
        }
        kb = typed_kb(CLS + "C", assignments)
        stats = property_support(kb, CLS + "C")
        expected: dict[str, int] = {}
        for props in assignments.values():
            for p in props:
                expected[p] = expected.get(p, 0) + 1
        assert {p: c for p, (c, _) in stats.per_property.items()} == expected
        for p, (c, ratio) in stats.per_property.items():
            assert ratio == pytest.approx(c / 30)


class TestGeneralize:
    def _ratio_kb(self, holders: int, total: int):
        props = {
            INST + f"i{k}": ({PROP + "p", PROP + "base"} if k < holders else {PROP + "base"})
            for k in range(total)
        }
        return typed_kb(CLS + "C", props)

    def test_ratio_above_threshold_adds_domain(self):
        kb = self._ratio_kb(6, 10)  # P(10) = 0.5, ratio 0.6
        changes = generalize_properties(kb, CLS + "C")
        added = {c.property_iri for c in changes}
        assert PROP + "p" in added
        assert kb.properties[PROP + "p"].domains[CLS + "C"] == PROV_GENERALIZED

    def test_ratio_below_threshold_not_added(self):
        kb = self._ratio_kb(4, 10)  # ratio 0.4 < 0.5
        changes = generalize_properties(kb, CLS + "C")
        assert PROP + "p" not in {c.property_iri for c in changes}
        assert CLS + "C" not in kb.properties[PROP + "p"].domains

    def test_single_instance_boundary_inclusive(self):
        kb = typed_kb(CLS + "C", {INST + "only": {PROP + "p"}})
        changes = generalize_properties(kb, CLS + "C")
        assert [(c.property_iri, c.action) for c in changes] == [(PROP + "p", ACTION_ADDED)]
        assert changes[0].support_ratio == 1.0 and changes[0].threshold == 1.0

    def test_existing_domain_untouched(self):
        kb, _ = load_schema([subclass(CLS + "C", OWL_THING), domain(PROP + "p", CLS + "C")])
        kb.add_instance_triples([t(INST + "i", RDF_TYPE, CLS + "C"), t_lit(INST + "i", PROP + "p")])
        changes = generalize_properties(kb, CLS + "C")
        assert changes == []
        assert kb.properties[PROP + "p"].domains[CLS + "C"] == PROV_SCHEMA

    def test_no_direct_instances_noop(self):
        kb, _ = load_schema([subclass(CLS + "C", OWL_THING)])
        assert generalize_properties(kb, CLS + "C") == []

    def test_never_removes_or_touches_instances(self):
        kb = self._ratio_kb(6, 10)
        before = {p: dict(r.domains) for p, r in kb.properties.items()}
        instance_props = {k: set(r.properties) for k, r in kb.instances.items()}
        generalize_properties(kb, CLS + "C")
        for p, doms in before.items():
            assert set(doms) <= set(kb.properties[p].domains)
        assert {k: set(r.properties) for k, r in kb.instances.items()} == instance_props


class TestDelete:
    def _kb_with_generalized(self, holders: int, total: int, provenance=PROV_GENERALIZED):
        kb = typed_kb(
            CLS + "C",
            {
                INST + f"i{k}": ({PROP + "p", PROP + "base"} if k < holders else {PROP + "base"})
                for k in range(total)
            },
        )
        kb.add_domain(PROP + "p", CLS + "C", provenance)
        return kb

    def test_low_support_generalized_domain_removed(self):
        kb = self._kb_with_generalized(2, 10)  # 0.2 < 0.25 = 0.5 * P(10)
        changes = delete_properties(kb, CLS + "C", ThresholdPolicy())
        assert [(c.property_iri, c.action) for c in changes] == [(PROP + "p", ACTION_REMOVED)]
        assert CLS + "C" not in kb.properties[PROP + "p"].domains

    def test_support_above_deletion_threshold_retained(self):
        kb = self._kb_with_generalized(3, 10)  # 0.3 >= 0.25
        assert delete_properties(kb, CLS + "C", ThresholdPolicy()) == []
        assert CLS + "C" in kb.properties[PROP + "p"].domains

    def test_schema_domains_never_deleted(self):
        kb = self._kb_with_generalized(0, 10, provenance=PROV_SCHEMA)
        assert delete_properties(kb, CLS + "C", ThresholdPolicy()) == []
        assert kb.properties[PROP + "p"].domains[CLS + "C"] == PROV_SCHEMA

    def test_zero_support_generalized_removed(self):
        kb = self._kb_with_generalized(0, 10)
        changes = delete_properties(kb, CLS + "C", ThresholdPolicy())
        assert changes and changes[0].support_ratio == 0.0

    def test_no_direct_instances_no_deletion(self):
        kb, _ = load_schema([subclass(CLS + "C", OWL_THING), domain(PROP + "q", CLS + "D2")])
        kb.add_domain(PROP + "q", CLS + "C", PROV_GENERALIZED)
        assert delete_properties(kb, CLS + "C", ThresholdPolicy()) == []


class TestPass:
    def test_only_classes_with_instances_change(self):
        kb, _ = load_schema(
            [subclass(CLS + "Leaf", CLS + "Mid"), subclass(CLS + "Other", OWL_THING)]
        )
        kb.add_instance_triples(
            [t(INST + "i", RDF_TYPE, CLS + "Leaf"), t_lit(INST + "i", PROP + "p")]
        )
        changes = run_generalization_pass(kb, ThresholdPolicy())
        assert {c.class_iri for c in changes} == {CLS + "Leaf"}

    def test_empty_kb_empty_changes(self):
        assert run_generalization_pass(KnowledgeBase(), ThresholdPolicy()) == []

    def test_leaf_first_sequencing(self):
        kb, _ = load_schema([subclass(CLS + "Leaf", CLS + "Mid")])
        kb.add_instance_triples(
            [
                t(INST + "a", RDF_TYPE, CLS + "Leaf"),
                t_lit(INST + "a", PROP + "p"),
                t(INST + "b", RDF_TYPE, CLS + "Mid"),
                t_lit(INST + "b", PROP + "p"),
            ]
        )
        changes = run_generalization_pass(kb, ThresholdPolicy())
        assert [c.class_iri for c in changes] == [CLS + "Leaf", CLS + "Mid"]

    def test_planted_signatures_all_generalized(self):
        # Oracle: the generator's signature map says what must be added.
        from kbevolve.synth import SynthSpec, generate_kb

        spec = SynthSpec(6, 3, 1, 10, 0.0, 0.0, seed=21)  # no hidden types, no noise
        schema, instances, truth = generate_kb(spec)
        stripped = [tr for tr in schema if tr.predicate.value != RDFS_DOMAIN]
        kb, leftover = load_schema(stripped)
        kb.add_instance_triples(leftover)
        kb.add_instance_triples(instances)
        changes = run_generalization_pass(kb, ThresholdPolicy())
        added = {(c.class_iri, c.property_iri) for c in changes if c.action == ACTION_ADDED}
        for cls, props in truth.signatures.items():
            for prop in props:
                assert (cls, prop) in added
                assert kb.properties[prop].domains[cls] == PROV_GENERALIZED

    def test_second_pass_is_empty(self):
        kb = typed_kb(
            CLS + "C",
            {INST + f"i{k}": {PROP + "p", PROP + "q"} for k in range(10)},
        )
        first = run_generalization_pass(kb, ThresholdPolicy())
        assert first
        assert run_generalization_pass(kb, ThresholdPolicy()) == []

    def test_no_add_and_remove_for_same_pair_in_one_pass(self):
        from kbevolve.synth import SynthSpec, generate_kb

        spec = SynthSpec(8, 4, 2, 25, 0.3, 0.25, seed=17)
        schema, instances, _ = generate_kb(spec)
        kb, leftover = load_schema(schema)
        kb.add_instance_triples(leftover)
        kb.add_instance_triples(instances)
        for factor in (0.5, 1.0):
            changes = run_generalization_pass(kb, ThresholdPolicy(deletion_factor=factor))
            seen: dict[tuple[str, str], set[str]] = {}
            for c in changes:
                seen.setdefault((c.class_iri, c.property_iri), set()).add(c.action)
            assert all(len(actions) == 1 for actions in seen.values())
