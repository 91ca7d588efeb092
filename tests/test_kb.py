"""Knowledge base construction, ingestion, traversal, and export tests."""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CLS, INST, PROP, kb_instance_state, subclass, domain, t, t_lit
from kbevolve.errors import SchemaError, UnknownEntityError
from kbevolve.generalization import ThresholdPolicy, run_generalization_pass
from kbevolve.kb import (
    OWL_CLASS,
    OWL_THING,
    PROV_GENERALIZED,
    PROV_SCHEMA,
    RDF_PROPERTY,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_SUBCLASSOF,
    KnowledgeBase,
    load_schema,
)
from kbevolve.ntriples import _PLAIN_LINE_RE, TermKind, _plain_key, parse_ntriple_line, read_batch


class TestLoadSchema:
    def test_minimal_schema(self):
        kb, leftover = load_schema([subclass(CLS + "B", CLS + "A"), domain(PROP + "p", CLS + "B")])
        assert leftover == []
        assert set(kb.classes) == {OWL_THING, CLS + "A", CLS + "B"}
        assert kb.classes[CLS + "A"].parent == OWL_THING
        assert kb.classes[CLS + "B"].parent == CLS + "A"
        assert kb.classes[CLS + "B"].depth == 2
        assert kb.properties[PROP + "p"].domains == {CLS + "B": PROV_SCHEMA}

    def test_empty_schema(self):
        kb, leftover = load_schema([])
        assert set(kb.classes) == {OWL_THING}
        assert kb.properties == {}
        assert leftover == []

    def test_cycle_rejected_and_named(self):
        with pytest.raises(SchemaError) as exc_info:
            load_schema([subclass(CLS + "A", CLS + "B"), subclass(CLS + "B", CLS + "A")])
        message = str(exc_info.value)
        assert "cycle" in message and CLS + "A" in message and CLS + "B" in message

    def test_self_cycle_rejected(self):
        with pytest.raises(SchemaError):
            load_schema([subclass(CLS + "A", CLS + "A")])

    def test_multiple_parents_rejected(self):
        with pytest.raises(SchemaError):
            load_schema([subclass(CLS + "C", CLS + "A"), subclass(CLS + "C", CLS + "B")])

    def test_root_cannot_have_parent(self):
        with pytest.raises(SchemaError):
            load_schema([subclass(OWL_THING, CLS + "A")])

    def test_declarations_register_entities(self):
        kb, _ = load_schema(
            [t(CLS + "A", RDF_TYPE, OWL_CLASS), t(PROP + "p", RDF_TYPE, RDF_PROPERTY)]
        )
        assert CLS + "A" in kb.classes
        assert kb.properties[PROP + "p"].domains == {}

    def test_non_schema_triples_returned(self):
        data = t_lit(INST + "i", PROP + "p")
        typed = t(INST + "i", RDF_TYPE, CLS + "A")
        kb, leftover = load_schema([subclass(CLS + "A", OWL_THING), data, typed])
        assert leftover == [data, typed]
        assert INST + "i" not in kb.instances

    def test_schema_statement_with_literal_rejected(self):
        with pytest.raises(SchemaError):
            load_schema([t_lit(CLS + "A", RDFS_SUBCLASSOF)])

    @pytest.mark.parametrize(
        "line,message",
        [
            (f"_:b <{RDFS_SUBCLASSOF}> <{CLS}A> .", "subClassOf subject must be an IRI, got blank"),
            (f"_:b <{RDFS_DOMAIN}> <{CLS}A> .", "domain subject must be an IRI, got blank"),
            (f"_:b <{RDF_TYPE}> <{OWL_CLASS}> .", "class declaration subject must be an IRI, got blank"),
            (f"_:b <{RDF_TYPE}> <{RDF_PROPERTY}> .", "property declaration subject must be an IRI, got blank"),
            (f'<{CLS}A> <{RDFS_SUBCLASSOF}> "x" .', "subClassOf object must be an IRI, got literal or blank"),
            (f"<{CLS}A> <{RDFS_SUBCLASSOF}> _:b .", "subClassOf object must be an IRI, got literal or blank"),
            (f'<{PROP}p> <{RDFS_DOMAIN}> "x"@en .', "domain object must be an IRI, got literal or blank"),
            (f"<{PROP}p> <{RDFS_DOMAIN}> _:b .", "domain object must be an IRI, got literal or blank"),
        ],
    )
    def test_schema_term_that_is_not_an_iri_rejected(self, line, message):
        rows, report = read_batch(iter([line + "\n"]), 1)
        assert len(rows) == 1 and not report.errors
        with pytest.raises(SchemaError) as exc_info:
            load_schema(rows)
        assert str(exc_info.value) == message

    @pytest.mark.parametrize("obj", ['"x"', f'"{OWL_CLASS}"', f'"{RDF_PROPERTY}"', "_:b"])
    def test_type_with_literal_or_blank_object_is_leftover(self, obj):
        rows, _ = read_batch(iter([f"<{INST}i> <{RDF_TYPE}> {obj} .\n"]), 1)
        kb, leftover = load_schema(rows)
        assert leftover == rows == [(INST + "i", RDF_TYPE, None)]
        assert set(kb.classes) == {OWL_THING} and kb.properties == {}

    def test_duplicate_edge_tolerated(self):
        kb, _ = load_schema([subclass(CLS + "B", CLS + "A"), subclass(CLS + "B", CLS + "A")])
        assert kb.classes[CLS + "B"].parent == CLS + "A"


def kb_default() -> KnowledgeBase:
    return KnowledgeBase()


def simple_kb(*classes: str) -> KnowledgeBase:
    kb, _ = load_schema([subclass(c, OWL_THING) for c in classes])
    return kb


class TestAddInstanceTriples:
    def test_object_iri_becomes_placeholder(self):
        kb = kb_default()
        kb.add_instance_triples([t(INST + "kim", PROP + "birthPlace", INST + "seoul")])
        kim = kb.instances[INST + "kim"]
        seoul = kb.instances[INST + "seoul"]
        assert kim.properties == (PROP + "birthPlace",)
        assert not kim.placeholder
        assert seoul.placeholder and seoul.properties == ()

    def test_type_assertion_sets_type_and_index(self):
        kb = simple_kb(CLS + "President")
        kb.add_instance_triples([t(INST + "kim", RDF_TYPE, CLS + "President")])
        assert kb.instances[INST + "kim"].assigned_type == CLS + "President"
        assert kb.direct_instances(CLS + "President") == {INST + "kim"}

    def test_idempotent(self):
        kb1, kb2 = simple_kb(CLS + "A"), simple_kb(CLS + "A")
        batch = [
            t(INST + "i", RDF_TYPE, CLS + "A"),
            t(INST + "i", PROP + "p", INST + "j"),
        ]
        kb1.add_instance_triples(batch)
        kb2.add_instance_triples(batch)
        kb2.add_instance_triples(batch)
        assert kb_instance_state(kb1) == kb_instance_state(kb2)

    def test_literal_objects_never_create_placeholders(self):
        kb = kb_default()
        kb.add_instance_triples([t_lit(INST + "i", PROP + "p")])
        assert set(kb.instances) == {INST + "i"}

    def test_blank_node_objects_never_create_placeholders(self):
        kb = kb_default()
        rows, _ = read_batch(iter([f"<{INST}i> <{PROP}p> _:b .\n"]), 1)
        kb.add_instance_triples(rows)
        assert set(kb.instances) == {INST + "i"}

    def test_type_with_unknown_object_is_ordinary_property(self):
        kb = kb_default()
        kb.add_instance_triples([t(INST + "i", RDF_TYPE, INST + "notaclass")])
        rec = kb.instances[INST + "i"]
        assert rec.assigned_type is None
        assert rec.properties == (RDF_TYPE,)
        assert kb.instances[INST + "notaclass"].placeholder

    def test_root_type_assertion_is_noop(self):
        kb = kb_default()
        kb.add_instance_triples([t(INST + "i", RDF_TYPE, OWL_THING)])
        rec = kb.instances[INST + "i"]
        assert rec.assigned_type is None
        assert rec.properties == ()
        assert not rec.placeholder

    def test_placeholder_clears_once_subject(self):
        kb = kb_default()
        kb.add_instance_triples([t(INST + "a", PROP + "p", INST + "b")])
        assert kb.instances[INST + "b"].placeholder
        kb.add_instance_triples([t_lit(INST + "b", PROP + "q")])
        assert not kb.instances[INST + "b"].placeholder

    def test_deepest_asserted_type_wins(self):
        kb, _ = load_schema([subclass(CLS + "B", CLS + "A"), subclass(CLS + "Z", OWL_THING)])
        kb.add_instance_triples(
            [t(INST + "i", RDF_TYPE, CLS + "Z"), t(INST + "i", RDF_TYPE, CLS + "B")]
        )
        assert kb.instances[INST + "i"].assigned_type == CLS + "B"

    def test_depth_tie_breaks_lexicographically(self):
        kb = simple_kb(CLS + "A", CLS + "B")
        kb.add_instance_triples(
            [t(INST + "i", RDF_TYPE, CLS + "B"), t(INST + "i", RDF_TYPE, CLS + "A")]
        )
        assert kb.instances[INST + "i"].assigned_type == CLS + "A"

    def test_object_that_is_a_known_class_not_placeholder(self):
        kb = simple_kb(CLS + "A")
        kb.add_instance_triples([t(INST + "i", PROP + "related", CLS + "A")])
        assert CLS + "A" not in kb.instances

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_batch_order_insensitive(self, rnd):
        batch = [
            t(INST + "a", PROP + "p", INST + "b"),
            t(INST + "b", PROP + "q", INST + "c"),
            t(INST + "a", RDF_TYPE, CLS + "X"),
            t(INST + "a", RDF_TYPE, CLS + "Y"),
            t_lit(INST + "c2", PROP + "r"),
            t(INST + "d", RDF_TYPE, INST + "b"),
            t(INST + "e", PROP + "s", PROP + "p"),  # a property of the batch, never a placeholder
        ]
        shuffled = list(batch)
        rnd.shuffle(shuffled)
        kb1 = simple_kb(CLS + "X", CLS + "Y")
        kb2 = simple_kb(CLS + "X", CLS + "Y")
        kb1.add_instance_triples(batch)
        kb2.add_instance_triples(shuffled)
        assert kb_instance_state(kb1) == kb_instance_state(kb2)


class TestDirectInstancesAndIndex:
    def test_direct_only(self):
        kb, _ = load_schema([subclass(CLS + "C1", CLS + "C")])
        kb.add_instance_triples(
            [t(INST + f"i{k}", RDF_TYPE, CLS + "C") for k in range(3)]
            + [t(INST + f"j{k}", RDF_TYPE, CLS + "C1") for k in range(2)]
        )
        assert len(kb.direct_instances(CLS + "C")) == 3
        assert len(kb.direct_instances(CLS + "C1")) == 2
        assert kb.direct_instances(OWL_THING) == set()

    def test_unknown_class_raises(self):
        kb = kb_default()
        with pytest.raises(UnknownEntityError):
            kb.direct_instances(CLS + "Nope")

    def test_index_matches_recomputed_inverse(self):
        rng = random.Random(7)
        kb = simple_kb(*(CLS + f"C{k}" for k in range(5)))
        instances = [INST + f"i{k}" for k in range(40)]
        batch = []
        for inst in instances:
            batch.append(t_lit(inst, PROP + "p"))
            if rng.random() < 0.7:
                batch.append(t(inst, RDF_TYPE, CLS + f"C{rng.randrange(5)}"))
        kb.add_instance_triples(batch)
        for inst in rng.sample(instances, 15):
            kb.set_type(inst, CLS + f"C{rng.randrange(5)}")
        for inst in rng.sample(instances, 5):
            kb.set_type(inst, None)
        # Independent rebuild of the inverse map.
        rebuilt: dict[str, set[str]] = {}
        for key, rec in kb.instances.items():
            if rec.assigned_type is not None:
                rebuilt.setdefault(rec.assigned_type, set()).add(key)
        observed = {c: s for c, s in kb.direct_instance_index.items() if s}
        assert observed == rebuilt


class TestSetType:
    def test_root_unclassifies(self):
        kb = simple_kb(CLS + "A")
        kb.add_instance_triples([t(INST + "i", RDF_TYPE, CLS + "A"), t_lit(INST + "i", PROP + "p")])
        kb.set_type(INST + "i", OWL_THING)
        assert kb.instances[INST + "i"].assigned_type is None
        assert kb.direct_instances(OWL_THING) == set()
        assert kb.instances_classified == 0
        assert run_generalization_pass(kb, ThresholdPolicy()) == []
        assert kb.properties[PROP + "p"].domains == {}

    def test_unknown_class_rejected(self):
        kb = simple_kb(CLS + "A")
        kb.add_instance_triples([t(INST + "i", RDF_TYPE, CLS + "A")])
        with pytest.raises(UnknownEntityError):
            kb.set_type(INST + "i", CLS + "Nope")
        assert kb.instances[INST + "i"].assigned_type == CLS + "A"
        assert kb.direct_instances(CLS + "A") == {INST + "i"}


class TestClassRank:
    def test_post_order_example(self):
        kb, _ = load_schema(
            [
                subclass(CLS + "A", OWL_THING),
                subclass(CLS + "B", OWL_THING),
                subclass(CLS + "A1", CLS + "A"),
                subclass(CLS + "A2", CLS + "A"),
            ]
        )
        assert sorted(kb.class_rank, key=kb.class_rank.__getitem__) == [
            CLS + "A1",
            CLS + "A2",
            CLS + "A",
            CLS + "B",
            OWL_THING,
        ]

    def test_single_root(self):
        assert kb_default().class_rank == {OWL_THING: 0}

    def test_random_tree_children_precede_parents(self):
        # Oracle: the parent of each class taken directly from the generated edges.
        rng = random.Random(42)
        nodes = [CLS + f"N{k:02d}" for k in range(50)]
        edges = []
        created = [OWL_THING]
        for node in nodes:
            edges.append((node, rng.choice(created)))
            created.append(node)
        kb, _ = load_schema([subclass(c, p) for c, p in edges])
        rank = kb.class_rank
        assert list(rank.values()) == list(range(len(nodes) + 1))  # its keys in rank order
        assert sorted(rank) == sorted([OWL_THING] + nodes)
        for child, parent in edges:
            assert rank[child] < rank[parent]


class TestExport:
    @staticmethod
    def _export(kb) -> str:
        out = io.StringIO()
        kb.export_ntriples(out)
        return out.getvalue()

    @staticmethod
    def _reload(text: str) -> KnowledgeBase:
        rows, report = read_batch(io.StringIO(text), 1 << 20)
        assert not report.errors
        kb, leftover = load_schema(rows)
        kb.add_instance_triples(leftover)
        return kb

    def test_minimal_schema_round_trip(self):
        kb, _ = load_schema([subclass(CLS + "B", CLS + "A"), domain(PROP + "p", CLS + "B")])
        reloaded = self._reload(self._export(kb))
        assert set(reloaded.classes) == set(kb.classes)
        assert reloaded.classes[CLS + "B"].parent == CLS + "A"
        assert set(reloaded.properties[PROP + "p"].domains) == {CLS + "B"}

    def test_export_deterministic(self):
        kb = presidentialish_kb()
        assert self._export(kb) == self._export(kb)

    def test_export_import_export_fixed_point(self):
        kb = presidentialish_kb()
        first = self._export(kb)
        second = self._export(self._reload(first))
        assert second == first

    def test_placeholders_emit_nothing_but_fixed_point_holds(self):
        kb = kb_default()
        kb.add_instance_triples([t(INST + "a", PROP + "p", INST + "b")])
        first = self._export(kb)
        assert INST + "b" not in first
        assert self._export(self._reload(first)) == first

    def test_statement_count_returned(self):
        kb, _ = load_schema([subclass(CLS + "A", OWL_THING)])
        out = io.StringIO()
        count = kb.export_ntriples(out)
        assert count == len(out.getvalue().splitlines())

    def test_empty_kb_exports_empty(self):
        assert self._export(kb_default()) == ""

    def test_blank_node_instances_survive(self):
        kb = kb_default()
        kb.add_instance_triples([t_lit("_:b1", PROP + "p")])
        text = self._export(kb)
        assert text.startswith("<")  # declaration section first
        assert "_:b1 <" in text
        reloaded = self._reload(text)
        assert "_:b1" in reloaded.instances

    def test_every_line_takes_the_line_regex(self):
        """A snapshot reloads through the plain path alone: the line regex
        matches every line the export writes, for blank-node and non-ASCII
        instances, placeholders and generalized domains, and every key it
        holds passes the check."""
        kb, _ = load_schema([subclass(CLS + "Café", OWL_THING), domain(PROP + "p", CLS + "Café")])
        kb.add_instance_triples(
            [
                t(INST + "é", RDF_TYPE, CLS + "Café"),
                t_lit(INST + "é", PROP + "p"),
                t(INST + "é", PROP + "q", INST + "中"),
                t("_:b1", RDF_TYPE, CLS + "Café"),
                t_lit("_:b1", PROP + "q"),
                t("_:b2", PROP + "q", "_:b1"),
            ]
        )
        run_generalization_pass(kb, ThresholdPolicy())
        assert kb.properties[PROP + "q"].domains == {CLS + "Café": PROV_GENERALIZED}
        assert kb.instances[INST + "中"].placeholder
        lines = self._export(kb).splitlines(keepends=True)
        assert "_:b1 <" + PROP + "q> " in "".join(lines)
        assert [line for line in lines if _PLAIN_LINE_RE.fullmatch(line) is None] == []
        assert all(_plain_key(key) for line in lines for key in _PLAIN_LINE_RE.fullmatch(line).groups() if key)


# One label as a blank node, as an IRI that reads like one (raw and
# escaped), and as an ordinary IRI.
_SPELLINGS = ("_:{}", "<_:{}>", "<\\u005F:{}>", "<" + INST + "{}>")
_NODE = st.builds(str.format, st.sampled_from(_SPELLINGS), st.sampled_from(["a", "b"]))


class TestIriAndBlankKeys:
    @given(st.lists(st.tuples(_NODE, st.sampled_from(["p", "q"]), _NODE), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_distinct_terms_stay_distinct_instances(self, statements):
        lines = [f"{s} <{PROP}{p}> {o} .\n" for s, p, o in statements]
        rows, report = read_batch(iter(lines), len(lines))
        # An IRI may not start with "_:", so no IRI can take a blank node's key.
        refused = [n for n, line in enumerate(lines, 1) if "<_:" in line or "<\\u005F:" in line]
        assert report.errors == [(n, "bad iri") for n in refused]
        kb = kb_default()
        kb.add_instance_triples(rows)
        triples = [parse_ntriple_line(line) for n, line in enumerate(lines, 1) if n not in refused]
        terms = {t.subject for t in triples} | {t.object for t in triples if t.object.kind is TermKind.IRI}
        assert len({term.value for term in terms}) == len(terms)
        assert set(kb.instances) == {term.value for term in terms}
        used: dict[str, set[str]] = {}
        for subject, predicate, _ in rows:
            used.setdefault(subject, set()).add(predicate)

        def held(each: KnowledgeBase) -> dict[str, set[str]]:
            return {key: set(rec.properties) for key, rec in each.instances.items() if rec.properties}

        assert held(kb) == used
        assert held(TestExport._reload(TestExport._export(kb))) == used


def presidentialish_kb() -> KnowledgeBase:
    """Small mixed KB: hierarchy, domains, typed + untyped instances, placeholders."""
    kb, _ = load_schema(
        [
            subclass(CLS + "B", CLS + "A"),
            subclass(CLS + "C", OWL_THING),
            domain(PROP + "p", CLS + "B"),
            domain(PROP + "q", CLS + "C"),
        ]
    )
    kb.add_instance_triples(
        [
            t(INST + "i1", RDF_TYPE, CLS + "B"),
            t_lit(INST + "i1", PROP + "p"),
            t(INST + "i2", PROP + "q", INST + "ph"),
            t_lit(INST + "i3", PROP + "p"),
        ]
    )
    return kb
