"""Threshold, per-class evaluation (support, add and drop), and pass tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CLS, INST, PROP, domain, subclass, t, t_lit
from kbevolve.errors import UnknownEntityError
from kbevolve.ntriples import triple_to_row
from kbevolve.generalization import (
    ACTION_ADDED,
    ACTION_REMOVED,
    ThresholdPolicy,
    evaluate_class,
    generalization_threshold,
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


def add_only(kb: KnowledgeBase, class_iri: str):
    return evaluate_class(kb, class_iri, ThresholdPolicy(), deletion_enabled=False)


class TestPropertySupport:
    """Support is counted once per evaluate_class call and read back from
    the ratios of the changes it makes."""

    def test_hand_count(self):
        # One call adds p at 2/2 and then drops the generalized q at 1/2.
        kb = typed_kb(
            CLS + "C",
            {INST + "i1": {PROP + "p", PROP + "q"}, INST + "i2": {PROP + "p"}},
        )
        kb.add_domain(PROP + "q", CLS + "C", PROV_GENERALIZED)
        changes = evaluate_class(kb, CLS + "C", ThresholdPolicy(deletion_factor=1.0))
        threshold = generalization_threshold(2)
        assert [(c.property_iri, c.action, c.support_ratio, c.threshold) for c in changes] == [
            (PROP + "p", ACTION_ADDED, 1.0, threshold),
            (PROP + "q", ACTION_REMOVED, 0.5, threshold),
        ]
        assert kb.properties[PROP + "p"].domains == {CLS + "C": PROV_GENERALIZED}
        assert kb.properties[PROP + "q"].domains == {}

    def test_no_direct_instances(self):
        kb, _ = load_schema([subclass(CLS + "C", OWL_THING)])
        assert evaluate_class(kb, CLS + "C", ThresholdPolicy()) == []

    def test_unknown_class_raises(self):
        with pytest.raises(UnknownEntityError):
            evaluate_class(KnowledgeBase(), CLS + "Nope", ThresholdPolicy())

    def test_matches_brute_force_recount(self):
        # Oracle: recount over the raw instance -> property assignments.
        rng = random.Random(3)
        assignments = {
            INST + f"i{k}": {PROP + f"p{j}" for j in range(8) if rng.random() < 0.4} | {PROP + "base"}
            for k in range(30)
        }
        expected: dict[str, int] = {}
        for props in assignments.values():
            for p in props:
                expected[p] = expected.get(p, 0) + 1
        threshold = generalization_threshold(30)
        kb = typed_kb(CLS + "C", assignments)
        added = add_only(kb, CLS + "C")
        assert {c.property_iri for c in added} == {p for p, c in expected.items() if c / 30 >= threshold}
        for change in added:
            assert change.support_ratio == expected[change.property_iri] / 30
        # Every property pre-generalized: the symmetric drop rule reports
        # the count of each one below the threshold.
        kb = typed_kb(CLS + "C", assignments)
        for p in expected:
            kb.add_domain(p, CLS + "C", PROV_GENERALIZED)
        dropped = evaluate_class(kb, CLS + "C", ThresholdPolicy(deletion_factor=1.0))
        assert {c.property_iri for c in dropped} == {p for p, c in expected.items() if c / 30 < threshold}
        for change in dropped:
            assert change.action == ACTION_REMOVED
            assert change.support_ratio == expected[change.property_iri] / 30


class TestGeneralize:
    def _ratio_kb(self, holders: int, total: int):
        props = {
            INST + f"i{k}": ({PROP + "p", PROP + "base"} if k < holders else {PROP + "base"})
            for k in range(total)
        }
        return typed_kb(CLS + "C", props)

    def test_ratio_above_threshold_adds_domain(self):
        kb = self._ratio_kb(6, 10)  # P(10) = 0.5, ratio 0.6
        changes = add_only(kb, CLS + "C")
        added = {c.property_iri for c in changes}
        assert PROP + "p" in added
        assert kb.properties[PROP + "p"].domains[CLS + "C"] == PROV_GENERALIZED

    def test_ratio_below_threshold_not_added(self):
        kb = self._ratio_kb(4, 10)  # ratio 0.4 < 0.5
        changes = add_only(kb, CLS + "C")
        assert PROP + "p" not in {c.property_iri for c in changes}
        assert CLS + "C" not in kb.properties[PROP + "p"].domains

    def test_single_instance_boundary_inclusive(self):
        kb = typed_kb(CLS + "C", {INST + "only": {PROP + "p"}})
        changes = add_only(kb, CLS + "C")
        assert [(c.property_iri, c.action) for c in changes] == [(PROP + "p", ACTION_ADDED)]
        assert changes[0].support_ratio == 1.0 and changes[0].threshold == 1.0

    def test_existing_domain_untouched(self):
        kb, _ = load_schema([subclass(CLS + "C", OWL_THING), domain(PROP + "p", CLS + "C")])
        kb.add_instance_triples([t(INST + "i", RDF_TYPE, CLS + "C"), t_lit(INST + "i", PROP + "p")])
        changes = add_only(kb, CLS + "C")
        assert changes == []
        assert kb.properties[PROP + "p"].domains[CLS + "C"] == PROV_SCHEMA

    def test_no_direct_instances_noop(self):
        kb, _ = load_schema([subclass(CLS + "C", OWL_THING)])
        assert add_only(kb, CLS + "C") == []

    def test_never_removes_or_touches_instances(self):
        kb = self._ratio_kb(6, 10)
        before = {p: dict(r.domains) for p, r in kb.properties.items()}
        instance_props = {k: set(r.properties) for k, r in kb.instances.items()}
        add_only(kb, CLS + "C")
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
        # base is on every instance; a schema domain keeps it from being added.
        kb.add_domain(PROP + "base", CLS + "C", PROV_SCHEMA)
        kb.add_domain(PROP + "p", CLS + "C", provenance)
        return kb

    def test_low_support_generalized_domain_removed(self):
        kb = self._kb_with_generalized(2, 10)  # 0.2 < 0.25 = 0.5 * P(10)
        changes = evaluate_class(kb, CLS + "C", ThresholdPolicy())
        assert [(c.property_iri, c.action) for c in changes] == [(PROP + "p", ACTION_REMOVED)]
        assert CLS + "C" not in kb.properties[PROP + "p"].domains

    def test_support_above_deletion_threshold_retained(self):
        kb = self._kb_with_generalized(3, 10)  # 0.3 >= 0.25
        assert evaluate_class(kb, CLS + "C", ThresholdPolicy()) == []
        assert CLS + "C" in kb.properties[PROP + "p"].domains

    def test_schema_domains_never_deleted(self):
        kb = self._kb_with_generalized(0, 10, provenance=PROV_SCHEMA)
        assert evaluate_class(kb, CLS + "C", ThresholdPolicy()) == []
        assert kb.properties[PROP + "p"].domains[CLS + "C"] == PROV_SCHEMA

    def test_zero_support_generalized_removed(self):
        kb = self._kb_with_generalized(0, 10)
        changes = evaluate_class(kb, CLS + "C", ThresholdPolicy())
        assert changes and changes[0].support_ratio == 0.0

    def test_no_direct_instances_no_deletion(self):
        kb, _ = load_schema([subclass(CLS + "C", OWL_THING), domain(PROP + "q", CLS + "D2")])
        kb.add_domain(PROP + "q", CLS + "C", PROV_GENERALIZED)
        assert evaluate_class(kb, CLS + "C", ThresholdPolicy()) == []


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

    def test_uneven_tree_passes_deepest_first(self):
        # class_rank order: B1 (depth 2) before A and B (depth 1), then A before B
        a, b, b1 = CLS + "A", CLS + "B", CLS + "B1"
        kb, _ = load_schema([subclass(a, OWL_THING), subclass(b, OWL_THING), subclass(b1, b)])
        kb.add_instance_triples(
            [
                t(INST + "a", RDF_TYPE, a),
                t_lit(INST + "a", PROP + "p"),
                t(INST + "b", RDF_TYPE, b),
                t_lit(INST + "b", PROP + "r"),
                t(INST + "b1", RDF_TYPE, b1),
                t_lit(INST + "b1", PROP + "q"),
            ]
        )
        changes = run_generalization_pass(kb, ThresholdPolicy())
        assert [(c.class_iri, c.property_iri) for c in changes] == [
            (b1, PROP + "q"),
            (a, PROP + "p"),
            (b, PROP + "r"),
        ]

    def test_planted_signatures_all_generalized(self):
        # Oracle: the generator's signature map says what must be added.
        from kbevolve.synth import SynthSpec, generate_kb

        spec = SynthSpec(6, 3, 1, 10, 0.0, 0.0, seed=21)  # no hidden types, no noise
        schema, instances, truth = generate_kb(spec)
        stripped = [tr for tr in schema if tr.predicate.value != RDFS_DOMAIN]
        kb, leftover = load_schema(map(triple_to_row, stripped))
        kb.add_instance_triples(leftover)
        kb.add_instance_triples(map(triple_to_row, instances))
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
        kb, leftover = load_schema(map(triple_to_row, schema))
        kb.add_instance_triples(leftover)
        kb.add_instance_triples(map(triple_to_row, instances))
        for factor in (0.5, 1.0):
            changes = run_generalization_pass(kb, ThresholdPolicy(deletion_factor=factor))
            seen: dict[tuple[str, str], set[str]] = {}
            for c in changes:
                seen.setdefault((c.class_iri, c.property_iri), set()).add(c.action)
            assert all(len(actions) == 1 for actions in seen.values())
