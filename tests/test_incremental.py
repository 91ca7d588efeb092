"""Incremental evolve rounds: the dirty sets, the generalized-domain index
and the type scores the KB keeps, and the audits evolve writes from them,
against full-recompute oracles."""

import io
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    CLS,
    INST,
    PROP,
    assert_typing_matches_oracle,
    class_scores,
    domain,
    kb_instance_state,
    row_to_line,
    subclass,
    t,
    t_lit,
)
from kbevolve import generalization, type_inference
from kbevolve.errors import UnknownEntityError
from kbevolve.evolution import EvolutionConfig, classification_coverage, evolve, property_domain_ratio
from kbevolve.generalization import ThresholdPolicy, evaluate_class, run_generalization_pass
from kbevolve.kb import (
    OWL_THING,
    PROV_GENERALIZED,
    PROV_SCHEMA,
    RDF_PROPERTY,
    RDF_TYPE,
    RDFS_SUBCLASSOF,
    KnowledgeBase,
    load_schema,
)
from kbevolve.ntriples import read_batch, triple_to_row
from kbevolve.synth import SynthSpec, generate_kb
from kbevolve.type_inference import METHODS, assign_types
from oracles import (
    oracle_add_instance_triples,
    oracle_affected,
    oracle_assign_types,
    oracle_classification_coverage,
    oracle_evolve_audits,
    oracle_generalization_pass,
    oracle_property_domain_ratio,
    property_support,
)

POLICIES = tuple(ThresholdPolicy(deletion_factor=f) for f in (0.5, 1.0, 0.25))
Q = PROP + "q"  # its domains are written only by the "fall" step of churn_inputs


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


def apply_writes(kb: KnowledgeBase, writes) -> None:
    """Domain writes as (property, class, provenance); no provenance removes
    the domain, if present."""
    for prop, cls, provenance in writes:
        if provenance is not None:
            kb.add_domain(prop, cls, provenance)
        elif cls in kb.properties[prop].domains:
            kb.remove_domain(prop, cls)


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


@st.composite
def evolve_inputs(draw):
    """The schema and batches of evolving_inputs as one line stream, with
    an evolve config."""
    schema, batches = draw(evolving_inputs())
    lines = [row_to_line(row) for batch, _ in batches for row in batch]
    config = EvolutionConfig(
        batch_lines=draw(st.integers(1, max(1, len(lines)))),
        method=draw(st.sampled_from(METHODS)),
        max_inner_rounds=draw(st.integers(1, 5)),
        policy=draw(st.sampled_from(POLICIES)),
        deletion_enabled=draw(st.booleans()),
    )
    return schema, lines, config


@st.composite
def churn_inputs(draw):
    """One method, a schema and one batch of data, then steps of domain
    writes between typing passes, drift-like: random writes of both
    provenances, plus three scripted steps in a drawn order. "fall" gives
    Q, whose domains no other step writes, a class and then takes it back,
    so that class's norm falls; "cover" narrows a property to one class and
    then grows its domains to every class (pfidf weight 0); "strip" takes
    every domain from a property."""
    classes, schema = draw(class_tree())
    everything = [OWL_THING] + classes
    props = [PROP + f"p{k}" for k in range(draw(st.integers(1, 6)))]
    schema.extend(t(prop, RDF_TYPE, RDF_PROPERTY) for prop in props + [Q])
    for prop in props:
        for cls in sorted(draw(st.sets(st.sampled_from(everything), max_size=3))):
            schema.append(domain(prop, cls))
    data = []
    for k in range(draw(st.integers(1, 12))):
        inst = INST + f"i{k}"
        used = draw(st.sets(st.sampled_from(props + [Q]), min_size=1, max_size=4))
        data.extend(t_lit(inst, prop) for prop in sorted(used))
        asserted = draw(st.none() | st.sampled_from(everything))
        if asserted is not None:
            data.append(t(inst, RDF_TYPE, asserted))
    provenance = st.sampled_from([PROV_SCHEMA, PROV_GENERALIZED])
    write = st.tuples(st.sampled_from(props), st.sampled_from(everything), st.none() | provenance)
    steps = [("random", w) for w in draw(st.lists(st.lists(write, min_size=1, max_size=4), max_size=3))]
    for kind in ("fall", "cover", "strip"):
        prop = Q if kind == "fall" else draw(st.sampled_from(props))
        steps.append((kind, (prop, draw(st.sampled_from(classes)), draw(provenance))))
    return schema, data, draw(st.sampled_from(METHODS)), draw(st.permutations(steps))


@st.composite
def affected_inputs(draw):
    """churn_inputs as rounds of domain writes, a typing pass after each, plus
    three scripted steps: "bounce" adds a pair and removes it in one round,
    "reorder" removes one of a property's two domains and adds it back, which
    reorders its domains, and "relabel" rewrites a domain's provenance alone."""
    schema, data, method, steps = draw(churn_inputs())
    everything = [OWL_THING] + [s for s, p, _ in schema if p == RDFS_SUBCLASSOF]
    props = [s for s, p, _ in schema if p == RDF_TYPE]
    provenance = st.sampled_from([PROV_SCHEMA, PROV_GENERALIZED])
    for kind in ("bounce", "reorder", "relabel"):
        pair = (draw(st.sampled_from(props)), draw(st.sampled_from(everything[1:])))
        steps.append((kind, (*pair, draw(provenance))))
    rounds = []
    for kind, args in draw(st.permutations(steps)):
        if kind == "random":
            rounds.append(args)
            continue
        prop, cls, prov = args
        strip = [(prop, other, None) for other in everything]
        if kind in ("fall", "strip"):
            rounds += [strip + [args], [(prop, cls, None)]]
        elif kind == "cover":
            rounds += [strip + [args], [(prop, other, prov) for other in everything]]
        elif kind == "bounce":
            rounds.append([args, (prop, cls, None)])
        elif kind == "reorder":
            other = draw(st.sampled_from([c for c in everything if c != cls]))
            rounds += [strip + [args, (prop, other, prov)], [(prop, cls, None), args]]
        else:
            flipped = PROV_SCHEMA if prov == PROV_GENERALIZED else PROV_GENERALIZED
            rounds += [[args], [(prop, cls, flipped)]]
    return schema, data, method, rounds


@st.composite
def domain_write_inputs(draw):
    """A typed KB, then domain entries to remove and to add, in a drawn
    order, each add with a provenance. The spare properties have domains
    but no users, so a write to one of their domains changes a class's
    norm and no user's dot sums."""
    classes, schema = draw(class_tree())
    everything = [OWL_THING] + classes
    props = [PROP + f"p{k}" for k in range(draw(st.integers(1, 6)))]
    spare = [PROP + f"s{k}" for k in range(draw(st.integers(1, 3)))]
    pairs = []
    for prop in props + spare:
        for cls in sorted(draw(st.sets(st.sampled_from(everything), max_size=4))):
            schema.append(domain(prop, cls))
            pairs.append((prop, cls))
    spare_pairs = [(prop, cls) for prop, cls in pairs if prop in spare]
    missing = [(prop, cls) for prop in props + spare for cls in everything if (prop, cls) not in pairs]
    data = []
    for k in range(draw(st.integers(1, 12))):
        inst = INST + f"i{k}"
        data.extend(t_lit(inst, prop) for prop in sorted(draw(st.sets(st.sampled_from(props), min_size=1))))
        asserted = draw(st.none() | st.sampled_from(everything))
        if asserted is not None:
            data.append(t(inst, RDF_TYPE, asserted))
    removed = draw(st.sets(st.sampled_from(spare_pairs), max_size=2)) if spare_pairs else set()
    if pairs:
        removed |= draw(st.sets(st.sampled_from(pairs), max_size=2))
    writes = [(prop, cls, None) for prop, cls in sorted(removed)]
    if missing:
        provenance = st.sampled_from([PROV_SCHEMA, PROV_GENERALIZED])
        for prop, cls in sorted(draw(st.sets(st.sampled_from(missing), max_size=3))):
            writes.append((prop, cls, draw(provenance)))
    return schema, data, draw(st.sampled_from(METHODS)), draw(st.permutations(writes))


class TestAffected:
    @given(domain_write_inputs())
    @settings(max_examples=300, deadline=None)
    def test_unaffected_instances_keep_their_decision(self, inputs):
        """After domain removals and additions, the kernel's refresh finds
        what comparing a build before the writes with one after finds, and
        every instance outside it keeps the (type, type_score) that a full
        decide gives."""
        schema, data, method, writes = inputs
        kb = build(schema)
        kb.add_instance_triples(data)
        assign_types(kb, method)
        old = type_inference._Kernel(kb, method)
        for prop, cls, provenance in writes:  # no provenance: remove
            if provenance is None:
                kb.remove_domain(prop, cls)
            else:
                kb.add_domain(prop, cls, provenance)
        new = type_inference._Kernel(kb, method)
        affected = kb.typing_kernel.refresh(kb, kb.dirty_properties)
        assert affected == oracle_affected(kb, old, new)
        for ikey, rec in sorted(kb.instances.items()):
            if rec.properties and ikey not in affected:
                assert (rec.assigned_type, rec.type_score) == new.decide(rec.properties, rec.assigned_type)


class TestDirtyProperties:
    @given(affected_inputs())
    @settings(max_examples=300, deadline=None)
    def test_affected_equals_whole_table_diff(self, inputs):
        """The dirty properties name every table entry a round of domain
        writes changed: refreshing only theirs finds what comparing two whole
        builds finds, and a round that marks none changes no entry or norm."""
        schema, data, method, rounds = inputs
        kb = build(schema)
        kb.add_instance_triples(data)
        assign_types(kb, method)
        assert kb.dirty_properties == set()
        for writes in rounds:
            old = type_inference._Kernel(kb, method)
            apply_writes(kb, writes)
            new = type_inference._Kernel(kb, method)
            if kb.dirty_properties:
                assert kb.typing_kernel.refresh(kb, kb.dirty_properties) == oracle_affected(kb, old, new)
            else:
                assert (old.table, old.norms) == (new.table, new.norms)
            assign_types(kb, method)
            assert kb.dirty_properties == set()


def out_of_order_gains():
    """affected_inputs' shape, pfidf: class C4 gains p2, p1 and p0 in three
    rounds, so its table properties arrive in reverse sorted order; their
    weights (ln 1.2, ln 2 and ln 3 at the end) are squares whose float sum
    depends on the order of the terms."""
    classes = [CLS + f"C{k}" for k in range(5)]
    props = [PROP + f"p{k}" for k in range(3)]
    schema = [subclass(cls, OWL_THING) for cls in classes]
    schema += [t(prop, RDF_TYPE, RDF_PROPERTY) for prop in props]
    for prop, width in zip(props, (1, 2, 4)):
        schema += [domain(prop, cls) for cls in classes[:width]]
    data = [t_lit(INST + "i0", prop) for prop in props]
    return schema, data, "pfidf", [[(prop, classes[4], PROV_GENERALIZED)] for prop in reversed(props)]


class TestKernelRefresh:
    @given(affected_inputs())
    @example(out_of_order_gains())
    @settings(max_examples=300, deadline=None)
    def test_refreshed_tables_equal_a_fresh_build(self, inputs):
        """After each round of domain writes, refreshing the kept kernel over
        the dirty properties leaves exactly the tables a fresh build makes:
        every norm bit for bit, none for a class without table properties,
        and background empty once universal is."""
        schema, data, method, rounds = inputs
        kb = build(schema)
        kb.add_instance_triples(data)
        assign_types(kb, method)
        kernel = kb.typing_kernel
        for writes in rounds:
            apply_writes(kb, writes)
            kernel.refresh(kb, kb.dirty_properties)
            kb.dirty_properties.clear()
            fresh = type_inference._Kernel(kb, method)
            assert (kernel.table, kernel.index) == (fresh.table, fresh.index)
            if method == "naive":
                assert kernel.norms is fresh.norms is None
            else:
                assert all(type(norm) is float for norm in kernel.norms.values())
                assert {cls: norm.hex() for cls, norm in kernel.norms.items()} == {
                    cls: norm.hex() for cls, norm in fresh.norms.items()
                }
                assert kernel.norms.keys() == kernel.index.keys()
            assert (kernel.universal, kernel.background) == (fresh.universal, fresh.background)
            assert bool(kernel.background) == bool(kernel.universal)


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

    @given(evolve_inputs())
    @settings(max_examples=200, deadline=None)
    def test_audits_equal_oracle_replay(self, inputs):
        schema, lines, config = inputs
        typing_audit, domain_audit = io.StringIO(), io.StringIO()
        evolve(build(schema), iter(lines), config, typing_audit=typing_audit, domain_audit=domain_audit)
        expected = oracle_evolve_audits(build(schema), lines, config)
        assert (typing_audit.getvalue(), domain_audit.getvalue()) == expected

    @given(churn_inputs())
    @settings(max_examples=300, deadline=None)
    def test_domain_churn_equals_oracle_passes(self, inputs):
        schema, data, method, steps = inputs
        kb, oracle_kb = build(schema), build(schema)
        for each in (kb, oracle_kb):
            each.add_instance_triples(data)

        def write(prop, cls, provenance):  # no provenance: remove, if present
            for each in (kb, oracle_kb):
                if provenance is not None:
                    each.add_domain(prop, cls, provenance)
                elif cls in each.properties[prop].domains:
                    each.remove_domain(prop, cls)

        def typing_pass():
            assert_typing_matches_oracle(
                kb, assign_types(kb, method), oracle_assign_types(oracle_kb, method)
            )
            assert kb_instance_state(kb) == kb_instance_state(oracle_kb)
            return kb.typing_kernel

        typing_pass()
        for kind, args in steps:
            if kind == "random":
                for prop, cls, provenance in args:
                    write(prop, cls, provenance)
                typing_pass()
                continue
            prop, cls, provenance = args
            for other in list(kb.properties[prop].domains):
                write(prop, other, None)
            write(prop, cls, provenance)
            narrowed = typing_pass()
            assert prop in narrowed.table  # one class of at least two: weight > 0
            if kind == "fall":
                # The pass refreshes the kernel in place: keep the norm it had.
                norm = None if method == "naive" else narrowed.norms[cls]
                write(prop, cls, None)
                kernel = typing_pass()
                if method != "naive":
                    assert kernel.norms.get(cls, 0.0) < norm
            elif kind == "cover":
                for other in kb.classes:
                    write(prop, other, provenance)
                assert (prop in typing_pass().table) == (method != "pfidf")
            else:
                write(prop, cls, None)
                assert prop not in typing_pass().table


def assert_counters_equal_recount(kb: KnowledgeBase) -> None:
    for cls in kb.classes:
        support = property_support(kb, cls).per_property
        assert kb.class_property_counts.get(cls, {}) == {prop: c for prop, (c, _) in support.items()}
    assert set(kb.class_property_counts) <= set(kb.classes)
    assert classification_coverage(kb) == oracle_classification_coverage(kb)
    assert property_domain_ratio(kb) == oracle_property_domain_ratio(kb)


@st.composite
def counter_inputs(draw):
    """A schema and a sequence of steps that write what the KB counts:
    ingest batches (with type assertions, deeper ones among them, and IRI
    objects that become placeholders), direct set_type calls (to None and
    to the root too), typing passes, generalization passes and direct
    domain writes of both provenances or removals."""
    classes, schema = draw(class_tree())
    everything = [OWL_THING] + classes
    props = [PROP + f"p{k}" for k in range(draw(st.integers(1, 6)))]
    for prop in props:
        for cls in sorted(draw(st.sets(st.sampled_from(everything), max_size=2))):
            schema.append(domain(prop, cls))
    instances = [INST + f"i{k}" for k in range(8)]
    triple = st.one_of(
        st.builds(t_lit, st.sampled_from(instances), st.sampled_from(props)),
        st.builds(t, st.sampled_from(instances), st.sampled_from(props), st.sampled_from(instances)),
        st.builds(t, st.sampled_from(instances), st.just(RDF_TYPE), st.sampled_from(everything)),
    )
    step = st.one_of(
        st.tuples(st.just("ingest"), st.lists(triple, min_size=1, max_size=10)),
        st.tuples(
            st.just("set_type"),
            st.sampled_from(instances),
            st.none() | st.sampled_from(everything),
        ),
        st.tuples(st.just("typing"), st.sampled_from(METHODS)),
        st.tuples(st.just("generalize"), st.sampled_from(POLICIES), st.booleans()),
        st.tuples(
            st.just("domain"),
            st.sampled_from(props),
            st.sampled_from(everything),
            st.none() | st.sampled_from([PROV_SCHEMA, PROV_GENERALIZED]),
        ),
    )
    return schema, draw(st.lists(step, min_size=1, max_size=12))


def apply_step(kb: KnowledgeBase, step) -> None:
    kind, *args = step
    if kind == "ingest":
        kb.add_instance_triples(args[0])
    elif kind == "set_type":
        if args[0] in kb.instances:
            kb.set_type(*args)
    elif kind == "typing":
        assign_types(kb, args[0])
    elif kind == "generalize":
        run_generalization_pass(kb, args[0], deletion_enabled=args[1])
    else:
        prop, cls, provenance = args
        if provenance is not None:
            kb.add_domain(prop, cls, provenance)
        elif prop in kb.properties and cls in kb.properties[prop].domains:
            kb.remove_domain(prop, cls)


class TestCountersEqualRecount:
    @given(counter_inputs())
    @settings(max_examples=300, deadline=None)
    def test_after_every_step(self, inputs):
        schema, steps = inputs
        kb = build(schema)
        assert_counters_equal_recount(kb)
        for step in steps:
            apply_step(kb, step)
            assert_counters_equal_recount(kb)

    @given(counter_inputs())
    @settings(max_examples=150, deadline=None)
    def test_rebuilt_on_reload(self, inputs):
        """A KB rebuilt from its own snapshot counts what it holds, and
        reports the kept columns the snapshot carries."""
        schema, steps = inputs
        kb = build(schema)
        for step in steps:
            apply_step(kb, step)
        snapshot = io.StringIO()
        kb.export_ntriples(snapshot)
        rows, report = read_batch(io.StringIO(snapshot.getvalue()), 1 << 20)
        assert not report.errors
        reloaded, leftover = load_schema(rows)
        reloaded.add_instance_triples(leftover)
        assert_counters_equal_recount(reloaded)
        kept, rebuilt = classification_coverage(kb), classification_coverage(reloaded)
        assert (rebuilt.with_properties, rebuilt.classified) == (kept.with_properties, kept.classified)
        assert property_domain_ratio(reloaded) == property_domain_ratio(kb)


def assert_sets_interned(kb: KnowledgeBase) -> None:
    """Every record holds the table's own object for its set, and the table
    holds exactly the non-empty sets that records hold, with their counts."""
    held = Counter(rec.properties for rec in kb.instances.values() if rec.properties)
    assert kb.property_set_holders == held
    assert kb.property_sets.keys() == held.keys()
    for rec in kb.instances.values():
        assert type(rec.properties) is tuple and rec.properties == tuple(sorted(rec.properties))
        if rec.properties:
            assert rec.properties is kb.property_sets[rec.properties]


@st.composite
def ingest_inputs(draw):
    """A schema, a triple list, and the list cut into batches, each batch
    permuted. Objects are instances, classes or literals, never properties:
    a property named as an object before its first statement becomes a
    placeholder when read alone, but not when read in one batch with it."""
    classes, schema = draw(class_tree())
    props = [PROP + f"p{k}" for k in range(draw(st.integers(1, 6)))]
    instances = [INST + f"i{k}" for k in range(6)]
    subjects = st.sampled_from(instances)
    triple = st.one_of(
        st.builds(t_lit, subjects, st.sampled_from(props)),
        st.builds(t, subjects, st.sampled_from(props), st.sampled_from(instances)),
        st.builds(t, subjects, st.just(RDF_TYPE), st.sampled_from([OWL_THING] + classes + instances)),
    )
    triples = draw(st.lists(triple, min_size=1, max_size=30))
    cuts = sorted(draw(st.sets(st.integers(1, len(triples)))) | {len(triples)})
    batches = [draw(st.permutations(triples[a:b])) for a, b in zip([0] + cuts, cuts)]
    return schema, triples, batches


@st.composite
def subject_batches(draw):
    """A schema and batches of rows in which subjects interleave (A, B, A),
    some carry only type assertions, (subject, predicate) pairs repeat,
    IRI objects name instances that are subjects later in the batch or in
    a later one, and rdf:type names classes, the root, an unknown class
    and instances. A subject key is sometimes a fresh copy of an equal
    string, as rows not read in one batch may hold."""
    classes, schema = draw(class_tree())
    props = [PROP + f"p{k}" for k in range(draw(st.integers(1, 4)))]
    for prop in props:
        for cls in sorted(draw(st.sets(st.sampled_from(classes), max_size=2))):
            schema.append(domain(prop, cls))
    instances = [INST + f"i{k}" for k in range(5)] + ["_:b"]
    subjects = st.builds(
        lambda s, copy: (s + ".")[:-1] if copy else s, st.sampled_from(instances), st.booleans()
    )
    types = [OWL_THING, CLS + "unknown"] + classes + instances[:2]
    row = st.one_of(
        st.builds(t_lit, subjects, st.sampled_from(props)),
        st.builds(t, subjects, st.sampled_from(props), st.sampled_from(instances[:-1])),
        st.builds(t, subjects, st.just(RDF_TYPE), st.sampled_from(types)),
    )
    return schema, draw(st.lists(st.lists(row, max_size=12), min_size=1, max_size=4))


def ingest_state(kb: KnowledgeBase) -> tuple:
    """What ingest writes: the records, the intern table, the indexes (each
    property_users list as a set, after checking it holds no repeat), the
    counters and the dirty sets."""
    assert all(len(users) == len(set(users)) for users in kb.property_users.values())
    return (
        {k: (r.assigned_type, r.properties, r.placeholder, r.type_score) for k, r in kb.instances.items()},
        list(kb.instances),
        set(kb.properties),
        kb.property_sets,
        kb.property_set_holders,
        {prop: set(users) for prop, users in kb.property_users.items()},
        kb.class_property_counts,
        kb.direct_instance_index,
        (
            kb.instances_with_properties,
            kb.instances_classified,
            kb.classified_with_properties,
            kb.placeholders,
            kb.properties_with_domain,
        ),
        (kb.dirty_classes, kb.dirty_instances, kb.dirty_properties),
    )


class TestInternedSets:
    @given(ingest_inputs())
    @settings(max_examples=300, deadline=None)
    def test_batches_equal_per_triple_reference(self, inputs):
        schema, triples, batches = inputs
        reference, kb = build(schema), build(schema)
        for triple in triples:
            reference.add_instance_triples([triple])
            assert_sets_interned(reference)
        for batch in batches:
            kb.add_instance_triples(batch)
            assert_sets_interned(kb)
        assert kb_instance_state(kb) == kb_instance_state(reference)
        assert_counters_equal_recount(kb)

    @given(subject_batches())
    @settings(max_examples=300, deadline=None)
    @example(
        (
            [subclass(CLS + "C0", OWL_THING), subclass(CLS + "C1", CLS + "C0")],
            [
                [t(INST + "i0", RDF_TYPE, CLS + "C0"), t_lit(INST + "i0", PROP + "p0")],
                [
                    t_lit(INST + "i0", PROP + "p1"),
                    t(INST + "i1", PROP + "p0", INST + "i2"),
                    t_lit(INST + "i0", PROP + "p1"),
                    t_lit(INST + "i0", PROP + "p0"),
                    t(INST + "i3", RDF_TYPE, CLS + "C1"),
                    t(INST + "i2", PROP + "p1", INST + "i4"),
                    t(INST + "i1", RDF_TYPE, CLS + "unknown"),
                    t(INST + "i1", RDF_TYPE, CLS + "C1"),
                    t(INST + "i3", RDF_TYPE, CLS + "C0"),
                ],
                [t(INST + "i4", RDF_TYPE, CLS + "C0"), t_lit(INST + "i4", PROP + "p0")],
            ],
        )
    )
    def test_batches_equal_per_row_oracle(self, inputs):
        """Batch by batch, ingest leaves the state the row-by-row ingest
        leaves, up to the order of each property_users list. The dirty sets
        are emptied before each batch, as the passes would, so each batch's
        marks are compared on their own."""
        schema, batches = inputs
        kb, reference = build(schema), build(schema)
        for batch in batches:
            for each in (kb, reference):
                each.dirty_classes.clear(), each.dirty_instances.clear(), each.dirty_properties.clear()
            kb.add_instance_triples(batch)
            oracle_add_instance_triples(reference, batch)
            assert ingest_state(kb) == ingest_state(reference)
        assert_sets_interned(kb)
        assert_counters_equal_recount(kb)

    def test_predicate_sorted_one_line_batches(self):
        """Each subject gains one property per batch, so every set it held
        before is superseded; none may stay in the table."""
        spec = SynthSpec(
            class_count=4,
            signature_properties_per_class=3,
            shared_properties=2,
            instances_per_class=6,
            hidden_type_fraction=0.5,
            noise_rate=0.2,
            seed=3,
        )
        schema, triples, _ = generate_kb(spec)
        triples = sorted(map(triple_to_row, triples), key=lambda row: row[1])
        whole, kb = build(map(triple_to_row, schema)), build(map(triple_to_row, schema))
        whole.add_instance_triples(triples)
        for triple in triples:
            kb.add_instance_triples([triple])
        assert_sets_interned(kb)
        assert kb_instance_state(kb) == kb_instance_state(whole)
        assert kb.property_set_holders == whole.property_set_holders
        assert len(kb.property_sets) < sum(kb.property_set_holders.values())


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


A, B, C = CLS + "A", CLS + "B", CLS + "C"
I1, I2, I3, I4 = INST + "i1", INST + "i2", INST + "i3", INST + "i4"


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


def full(props: str, incumbent: str | None) -> tuple:
    """The key of a decide call: the sorted properties (one letter each
    after PROP) and the incumbent."""
    return (tuple(PROP + p for p in sorted(props)), incumbent)


@pytest.fixture
def scored(monkeypatch):
    """Calls of decide, the kernel's one per-instance entry point, in order.
    A pass makes one call per distinct key, so a call is named by its key,
    not by an instance: see full."""
    calls: list[tuple] = []
    real_decide = type_inference._Kernel.decide

    def decide(kernel, properties, previous):
        calls.append((tuple(sorted(properties)), previous))
        return real_decide(kernel, properties, previous)

    monkeypatch.setattr(type_inference._Kernel, "decide", decide)
    return calls


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
        assert scored == [full("a", A), full("bc", None), full("a", None)]  # i1, i2, i3
        assert [(d.previous, d.chosen) for d in first] == [(A, A), (None, B), (None, A)]
        scored.clear()
        assert assign_types(kb, "cosine") == []
        assert scored == []
        assert [(k, rec.assigned_type, rec.type_score) for k, rec in sorted(kb.instances.items())] == [
            (d.instance, d.chosen, d.score) for d in first
        ]

    @pytest.mark.parametrize(
        "method, write, expected",
        [
            # a gains B: a's users i1 and i3, which share ({a}, A);
            # B's norm rises, so its incumbent i2 too
            ("naive", "add", [full("a", A)]),
            ("cosine", "add", [full("a", A), full("bc", B)]),
            ("pfidf", "add", [full("a", A), full("bc", B)]),
            # c leaves B: c's user i2; B's norm falls, so B's incumbent and b's user: i2 again
            ("naive", "remove", [full("bc", B)]),
            ("cosine", "remove", [full("bc", B)]),
            ("pfidf", "remove", [full("bc", B)]),
        ],
    )
    def test_domain_change_rescores_affected_instances(self, scored, method, write, expected):
        kb = small_kb()
        kb.add_instance_triples([t_lit(I4, PROP + "d")])  # d has no domain: never affected
        assign_types(kb, method)
        assert scored == [full("a", A), full("bc", None), full("a", None), full("d", None)]
        scored.clear()
        if write == "add":
            kb.add_domain(PROP + "a", B, PROV_GENERALIZED)
        else:
            kb.remove_domain(PROP + "c", B)
        assign_types(kb, method)
        assert scored == expected
        scored.clear()
        kernel = kb.typing_kernel
        kb.add_domain(PROP + "a", A, PROV_GENERALIZED)  # a new provenance, the same domains
        assert kb.dirty_properties == set()
        assign_types(kb, method)
        assert kb.typing_kernel is kernel
        assert scored == []

    def test_instances_sharing_a_key_cost_one_decide(self, scored):
        kb = build([subclass(A, OWL_THING), domain(PROP + "a", A)])
        kb.add_instance_triples([t_lit(ikey, PROP + "a") for ikey in (I1, I2, I3)])
        decisions = assign_types(kb, "cosine")
        assert scored == [full("a", None)]
        assert [(d.instance, d.previous, d.chosen, d.score) for d in decisions] == [
            (ikey, None, A, 1.0) for ikey in (I1, I2, I3)
        ]
        assert [(rec.assigned_type, rec.type_score) for rec in kb.instances.values()] == [(A, 1.0)] * 3

    @staticmethod
    def _tied_kb(method: str, instances=(I1,)) -> KnowledgeBase:
        """Each instance in A, which ties with C at 1/2; z, which nobody
        uses, holds up C's norm."""
        kb = build(
            [subclass(A, OWL_THING), subclass(C, OWL_THING)]
            + [domain(PROP + p, A) for p in "xw"]
            + [domain(PROP + p, C) for p in "yz"]
        )
        kb.add_instance_triples([t_lit(ikey, PROP + p) for ikey in instances for p in "xy"])
        assign_types(kb, method)  # the tie goes to the smaller IRI, A
        assert [kb.instances[ikey].assigned_type for ikey in instances] == [A] * len(instances)
        return kb

    @pytest.mark.parametrize("method", ["cosine", "pfidf"])
    def test_falling_norm_rescores_users_of_its_other_properties(self, scored, method):
        kb = self._tied_kb(method)
        scored.clear()
        kb.remove_domain(PROP + "z", C)  # nobody uses z, but C's norm falls
        assert [(d.previous, d.chosen) for d in assign_types(kb, method)] == [(A, C)]
        assert scored == [full("xy", A)]
        assert kb.instances[I1].type_score == class_scores(kb, I1, method)[C]

    @pytest.mark.parametrize("method", ["cosine", "pfidf"])
    def test_rising_norm_rescores_its_direct_instances(self, scored, method):
        kb = self._tied_kb(method)
        scored.clear()
        kb.add_domain(PROP + "v", A, PROV_SCHEMA)  # nobody uses v, but A's norm rises
        assert [(d.previous, d.chosen) for d in assign_types(kb, method)] == [(A, C)]
        assert scored == [full("xy", A)]
        assert kb.instances[I1].type_score == class_scores(kb, I1, method)[C]

    @pytest.mark.parametrize("method", ["cosine", "pfidf"])
    def test_instances_sharing_a_key_but_not_a_score_cost_one_decide(self, scored, method):
        kb = self._tied_kb(method, (I1, I2))
        kb.instances[I2].type_score = kb.instances[I1].type_score / 2  # type_score is not read
        scored.clear()
        kb.remove_domain(PROP + "z", C)
        decisions = assign_types(kb, method)
        assert scored == [full("xy", A)]
        assert [(d.instance, d.previous, d.chosen) for d in decisions] == [(I1, A, C), (I2, A, C)]
        assert kb.instances[I1].type_score == kb.instances[I2].type_score == class_scores(kb, I1, method)[C]

    def test_method_change_rescores_every_instance(self, scored):
        kb = small_kb()
        assign_types(kb, "cosine")
        scored.clear()
        assign_types(kb, "naive")
        assert scored == [full("a", A), full("bc", B)]  # i1 and i3 share ({a}, A)
        scored.clear()
        assign_types(kb, "naive")
        assert scored == []

    def test_ingest_marks_only_touched_instances(self, scored):
        kb = small_kb()
        assign_types(kb, "cosine")
        scored.clear()
        kb.add_instance_triples([t_lit(I3, PROP + "b")])
        assign_types(kb, "cosine")
        assert scored == [full("ab", A)]  # i3
        scored.clear()
        kb.add_instance_triples([t(I1, RDF_TYPE, B)])  # deeper than its A: replaces it
        assign_types(kb, "cosine")
        assert scored == [full("a", B)]  # i1
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
        kb.add_instance_triples([t_lit(I1, PROP + "p")])
        assign_types(kb, "pfidf")
        kernel = kb.typing_kernel
        kb.dirty_classes.clear()
        kb.add_domain(PROP + "p", A, PROV_SCHEMA)
        assert kb.dirty_properties == set()
        assert kb.dirty_classes == set()
        kb.add_domain(PROP + "p", A, PROV_GENERALIZED)  # the same domains: only A is marked
        assert kb.dirty_properties == set()
        assert kb.dirty_classes == {A}
        assert assign_types(kb, "pfidf") == []
        assert kb.typing_kernel is kernel

    def test_unknown_class_or_domain_rejected(self):
        kb = build([subclass(A, OWL_THING), domain(PROP + "p", A)])
        with pytest.raises(UnknownEntityError):
            kb.add_domain(PROP + "p", CLS + "Nope", PROV_SCHEMA)
        with pytest.raises(UnknownEntityError):
            kb.remove_domain(PROP + "p", OWL_THING)
        with pytest.raises(UnknownEntityError):
            kb.remove_domain(PROP + "q", A)
