"""Incremental evolve rounds: the dirty sets, the generalized-domain index
and the typing cache the KB keeps, against full-recompute oracles."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CLS,
    INST,
    PROP,
    assert_typing_matches_oracle,
    domain,
    kb_instance_state,
    subclass,
    t,
    t_lit,
)
from kbevolve import generalization, type_inference
from kbevolve.errors import UnknownEntityError
from kbevolve.generalization import ThresholdPolicy, evaluate_class, run_generalization_pass
from kbevolve.kb import (
    OWL_THING,
    PROV_GENERALIZED,
    PROV_SCHEMA,
    RDF_TYPE,
    KnowledgeBase,
    load_schema,
)
from kbevolve.type_inference import METHODS, assign_types
from oracles import oracle_assign_types, oracle_generalization_pass

POLICIES = tuple(ThresholdPolicy(deletion_factor=f) for f in (0.5, 1.0, 0.25))


def domain_table(kb: KnowledgeBase) -> dict[str, dict[str, str]]:
    return {prop: dict(rec.domains) for prop, rec in kb.properties.items()}


def generalized_index_from_table(kb: KnowledgeBase) -> dict[str, set[str]]:
    index: dict[str, set[str]] = {}
    for prop, rec in kb.properties.items():
        for cls, provenance in rec.domains.items():
            if provenance == PROV_GENERALIZED:
                index.setdefault(cls, set()).add(prop)
    return index


def build(schema) -> KnowledgeBase:
    kb, leftover = load_schema(schema)
    assert leftover == []
    return kb


@st.composite
def class_tree(draw):
    """Schema edges of a random tree; a deep draw chains every class under
    the previous one."""
    classes = [CLS + f"C{k}" for k in range(draw(st.integers(1, 8)))]
    deep = draw(st.booleans())
    schema = []
    for k, cls in enumerate(classes):
        parent = classes[k - 1] if deep and k else draw(st.sampled_from([OWL_THING] + classes[:k]))
        schema.append(subclass(cls, parent))
    return classes, schema


@st.composite
def evolving_inputs(draw):
    """A schema plus batches that revisit old instances, each batch with the
    (policy, deletion_enabled, method) of each of its rounds.

    Later batches add properties to instances seen before and assert types
    on instances that already have one; IRI objects name instances that
    may only appear as subjects in a later batch, promoting placeholders.
    """
    classes, schema = draw(class_tree())
    props = [PROP + f"p{k}" for k in range(draw(st.integers(1, 8)))]
    for prop in props:
        for cls in sorted(draw(st.sets(st.sampled_from([OWL_THING] + classes), max_size=3))):
            schema.append(domain(prop, cls))
    instances = [INST + f"i{k}" for k in range(8)]
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        batch = []
        for inst in draw(st.lists(st.sampled_from(instances), min_size=1, max_size=6, unique=True)):
            for prop in sorted(draw(st.sets(st.sampled_from(props), max_size=4))):
                if draw(st.booleans()):
                    batch.append(t_lit(inst, prop))
                else:
                    batch.append(t(inst, prop, draw(st.sampled_from(instances))))
            asserted = draw(st.none() | st.sampled_from([OWL_THING] + classes))
            if asserted is not None:
                batch.append(t(inst, RDF_TYPE, asserted))
        rounds = draw(
            st.lists(
                st.tuples(st.sampled_from(POLICIES), st.booleans(), st.sampled_from(METHODS)),
                min_size=1,
                max_size=4,
            )
        )
        batches.append((batch, rounds))
    return schema, batches


class TestMatchesFullRecompute:
    @given(evolving_inputs())
    @settings(max_examples=300, deadline=None)
    def test_rounds_equal_oracle_passes(self, inputs):
        schema, batches = inputs
        kb, oracle_kb = build(schema), build(schema)
        for batch, rounds in batches:
            kb.add_instance_triples(batch)
            oracle_kb.add_instance_triples(batch)
            for policy, deletion_enabled, method in rounds:
                changes = run_generalization_pass(kb, policy, deletion_enabled=deletion_enabled)
                expected = oracle_generalization_pass(
                    oracle_kb, policy, deletion_enabled=deletion_enabled
                )
                assert changes == expected
                assert_typing_matches_oracle(
                    kb, assign_types(kb, method), oracle_assign_types(oracle_kb, method)
                )
                assert domain_table(kb) == domain_table(oracle_kb)
                assert kb_instance_state(kb) == kb_instance_state(oracle_kb)
                observed = {cls: props for cls, props in kb.generalized_index.items() if props}
                assert observed == generalized_index_from_table(kb)


@st.composite
def generalization_inputs(draw):
    """Typed instances over a random tree, some generalized domains already
    in place, a deletion setting and a shuffled visiting order."""
    classes, schema = draw(class_tree())
    props = [PROP + f"p{k}" for k in range(draw(st.integers(1, 6)))]
    for prop in props:
        for cls in sorted(draw(st.sets(st.sampled_from(classes), max_size=2))):
            schema.append(domain(prop, cls))
    generalized = sorted(draw(st.sets(st.tuples(st.sampled_from(props), st.sampled_from(classes)))))
    data = []
    for k in range(draw(st.integers(1, 12))):
        inst = INST + f"i{k}"
        data.append(t(inst, RDF_TYPE, draw(st.sampled_from(classes))))
        data.extend(t_lit(inst, prop) for prop in sorted(draw(st.sets(st.sampled_from(props)))))
    order = draw(st.permutations([OWL_THING] + classes))
    return schema, generalized, data, draw(st.sampled_from(POLICIES)), draw(st.booleans()), order


class TestClassOrder:
    """A class's outcome depends only on its own direct instances and its
    own domain entries, which is what lets a pass skip clean classes."""

    @staticmethod
    def _build(schema, generalized, data) -> KnowledgeBase:
        kb = build(schema)
        for prop, cls in generalized:
            kb.add_domain(prop, cls, PROV_GENERALIZED)
        kb.add_instance_triples(data)
        return kb

    @given(generalization_inputs())
    @settings(max_examples=300, deadline=None)
    def test_shuffled_order_gives_same_table_and_changes(self, inputs):
        schema, generalized, data, policy, deletion_enabled, order = inputs
        leaf_first = self._build(schema, generalized, data)
        shuffled = self._build(schema, generalized, data)
        changes = run_generalization_pass(leaf_first, policy, deletion_enabled=deletion_enabled)
        shuffled_changes = []
        for cls in order:  # a class with no direct instances changes nothing
            shuffled_changes.extend(
                evaluate_class(shuffled, cls, policy, deletion_enabled=deletion_enabled)
            )
        assert Counter(changes) == Counter(shuffled_changes)
        assert domain_table(leaf_first) == domain_table(shuffled)


A, B = CLS + "A", CLS + "B"
I1, I2, I3 = INST + "i1", INST + "i2", INST + "i3"


def small_kb() -> KnowledgeBase:
    """B under A; i1 asserted A, i2 and i3 untyped with evidence for B and A."""
    kb = build(
        [
            subclass(A, OWL_THING),
            subclass(B, A),
            domain(PROP + "a", A),
            domain(PROP + "b", B),
            domain(PROP + "c", B),
        ]
    )
    kb.add_instance_triples(
        [
            t(I1, RDF_TYPE, A),
            t_lit(I1, PROP + "a"),
            t_lit(I2, PROP + "b"),
            t_lit(I2, PROP + "c"),
            t_lit(I3, PROP + "a"),
        ]
    )
    return kb


@pytest.fixture
def scored(monkeypatch):
    """Instances the typing pass scores, in order."""
    seen = []
    real = type_inference._decide

    def spy(kb, instance_iri, *args):
        seen.append(instance_iri)
        return real(kb, instance_iri, *args)

    monkeypatch.setattr(type_inference, "_decide", spy)
    return seen


@pytest.fixture
def evaluated(monkeypatch):
    """Classes the generalization pass evaluates, in order."""
    seen = []
    real = generalization.evaluate_class

    def spy(kb, class_iri, *args, **kwargs):
        seen.append(class_iri)
        return real(kb, class_iri, *args, **kwargs)

    monkeypatch.setattr(generalization, "evaluate_class", spy)
    return seen


class TestTypingPass:
    def test_own_decisions_are_not_rescored(self, scored):
        kb = small_kb()
        first = assign_types(kb, "cosine")
        assert scored == [I1, I2, I3]
        assert [(d.previous, d.chosen) for d in first] == [(A, A), (None, B), (None, A)]
        scored.clear()
        assert assign_types(kb, "cosine") == []
        assert scored == []
        assert [(k, d.previous, d.chosen, d.score) for k, d in sorted(kb.typing_cache.items())] == [
            (d.instance, d.chosen, d.chosen, d.score) for d in first
        ]

    @pytest.mark.parametrize("write", ["add", "remove"])
    def test_domain_change_rescores_every_instance(self, scored, write):
        kb = small_kb()
        assign_types(kb, "pfidf")
        scored.clear()
        if write == "add":
            kb.add_domain(PROP + "a", B, PROV_GENERALIZED)
        else:
            kb.remove_domain(PROP + "c", B)
        assign_types(kb, "pfidf")
        assert scored == [I1, I2, I3]

    def test_method_change_rescores_every_instance(self, scored):
        kb = small_kb()
        assign_types(kb, "cosine")
        scored.clear()
        assign_types(kb, "naive")
        assert scored == [I1, I2, I3]
        scored.clear()
        assign_types(kb, "naive")
        assert scored == []

    def test_ingest_marks_only_touched_instances(self, scored):
        kb = small_kb()
        assign_types(kb, "cosine")
        scored.clear()
        kb.add_instance_triples([t_lit(I3, PROP + "b")])
        assign_types(kb, "cosine")
        assert scored == [I3]
        scored.clear()
        kb.add_instance_triples([t(I1, RDF_TYPE, B)])  # deeper than its A: replaces it
        assign_types(kb, "cosine")
        assert scored == [I1]
        scored.clear()
        kb.add_instance_triples([t_lit(I2, PROP + "b")])  # already carried: no change
        assign_types(kb, "cosine")
        assert scored == []


class TestGeneralizationPass:
    def test_changed_settings_evaluate_every_class(self, evaluated):
        kb = small_kb()
        assign_types(kb, "cosine")  # i1, i3 in A; i2 in B
        run_generalization_pass(kb, ThresholdPolicy())
        assert evaluated == [B, A]
        for policy, deletion_enabled in [
            (ThresholdPolicy(), True),
            (ThresholdPolicy(deletion_factor=1.0), True),
            (ThresholdPolicy(deletion_factor=1.0), False),
            (ThresholdPolicy(deletion_factor=1.0), True),
        ]:
            evaluated.clear()
            run_generalization_pass(kb, policy, deletion_enabled=deletion_enabled)
            assert evaluated == ([] if policy == ThresholdPolicy() else [B, A])

    def test_only_touched_classes_evaluated(self, evaluated):
        kb = small_kb()
        assign_types(kb, "cosine")
        run_generalization_pass(kb, ThresholdPolicy())
        evaluated.clear()
        kb.add_instance_triples([t_lit(I2, PROP + "a")])  # i2 is a direct instance of B
        run_generalization_pass(kb, ThresholdPolicy())
        assert evaluated == [B]
        evaluated.clear()
        kb.set_type(I2, A)  # leaves B, joins A
        run_generalization_pass(kb, ThresholdPolicy())
        assert evaluated == [A]  # B has no direct instance left
        evaluated.clear()
        kb.add_domain(PROP + "z", A, PROV_GENERALIZED)
        changes = run_generalization_pass(kb, ThresholdPolicy())
        assert evaluated == [A]
        assert [(c.property_iri, c.action) for c in changes] == [(PROP + "z", "removed")]
        evaluated.clear()
        kb.remove_domain(PROP + "a", A)  # every direct instance of A carries it
        changes = run_generalization_pass(kb, ThresholdPolicy())
        assert evaluated == [A]
        assert [(c.property_iri, c.action) for c in changes] == [(PROP + "a", "added")]


class TestDomainWrites:
    def test_add_registers_property_and_indexes_generalized(self):
        kb = build([subclass(A, OWL_THING)])
        kb.add_domain(PROP + "p", A, PROV_GENERALIZED)
        assert kb.properties[PROP + "p"].domains == {A: PROV_GENERALIZED}
        assert kb.generalized_index[A] == {PROP + "p"}
        kb.add_domain(PROP + "p", A, PROV_SCHEMA)
        assert kb.properties[PROP + "p"].domains == {A: PROV_SCHEMA}
        assert kb.generalized_index[A] == set()

    def test_rewrite_with_same_provenance_changes_nothing(self):
        kb = build([subclass(A, OWL_THING), domain(PROP + "p", A)])
        version = kb.table_version
        kb.dirty_classes.clear()
        kb.add_domain(PROP + "p", A, PROV_SCHEMA)
        assert kb.table_version == version
        assert kb.dirty_classes == set()

    def test_unknown_class_or_domain_rejected(self):
        kb = build([subclass(A, OWL_THING), domain(PROP + "p", A)])
        with pytest.raises(UnknownEntityError):
            kb.add_domain(PROP + "p", CLS + "Nope", PROV_SCHEMA)
        with pytest.raises(UnknownEntityError):
            kb.remove_domain(PROP + "p", OWL_THING)
        with pytest.raises(UnknownEntityError):
            kb.remove_domain(PROP + "q", A)
