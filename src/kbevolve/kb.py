"""In-memory knowledge base: single-rooted class tree, property -> domain
table with per-domain provenance, and instance records.

The KB also owns the state derived from them that the passes read, and
keeps it current on every write: the direct-instance index, a per-class
index of generalized domains, and the dirty sets. A class is dirty when its
direct-instance set, the properties of its direct instances, or its domain
entries changed since the last generalization pass; an instance is dirty
when its type or properties changed since the last typing pass. Each pass
visits exactly its dirty set, after marking everything dirty when its
inputs differ from the last pass's: (policy, deletion_enabled) in
generalized_with, (method, table_version) in typed_against. Every domain
write, through add_domain / remove_domain, bumps table_version. The typing
pass keeps its scoring tables in typing_kernel and each instance's last
decision in typing_cache, which only the typing audit reads back. The
class tree and leaf_first_order are fixed by load_schema. deeper_class is
the one tie rule of ingest and typing.

An instance's type of None means unclassified; typing an instance as the
root class is the same thing, so assertions to the root are dropped and the
root is never handed out as an assignment. The KB is single-writer:
read-only scoring may fan out, mutations happen between phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, TextIO

from kbevolve.errors import SchemaError, UnknownEntityError
from kbevolve.ntriples import TermKind, Triple

if TYPE_CHECKING:
    from kbevolve.generalization import ThresholdPolicy
    from kbevolve.type_inference import TypingDecision, _Kernel

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDF_PROPERTY = "http://www.w3.org/1999/02/22-rdf-syntax-ns#Property"
RDFS_SUBCLASSOF = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
RDFS_DOMAIN = "http://www.w3.org/2000/01/rdf-schema#domain"
OWL_THING = "http://www.w3.org/2002/07/owl#Thing"
OWL_CLASS = "http://www.w3.org/2002/07/owl#Class"

PROV_SCHEMA = "schema"
PROV_GENERALIZED = "generalized"

# Usage statements carry no recorded object, so exports use one shared
# blank node; re-ingesting it adds the property without creating anything.
EXPORT_USAGE_OBJECT = "_:use"

# How reports and audits print the None type.
UNCLASSIFIED_LABEL = "unclassified"


@dataclass
class ClassNode:
    iri: str
    parent: str | None
    depth: int = 0


@dataclass
class PropertyRecord:
    iri: str
    domains: dict[str, str] = field(default_factory=dict)  # class iri -> provenance


@dataclass
class InstanceRecord:
    iri: str
    assigned_type: str | None = None
    properties: set[str] = field(default_factory=set)
    placeholder: bool = False


class KnowledgeBase:
    def __init__(self):
        self.classes: dict[str, ClassNode] = {OWL_THING: ClassNode(OWL_THING, None)}
        self.leaf_first_order: list[str] = [OWL_THING]  # set once by load_schema
        self.properties: dict[str, PropertyRecord] = {}
        self.instances: dict[str, InstanceRecord] = {}
        self.direct_instance_index: dict[str, set[str]] = {}
        self.generalized_index: dict[str, set[str]] = {}  # class iri -> properties
        self.dirty_classes: set[str] = set()
        self.dirty_instances: set[str] = set()
        self.table_version = 0
        self.typing_cache: dict[str, TypingDecision] = {}
        self.typing_kernel: _Kernel | None = None
        self.typed_against: tuple[str, int] | None = None
        self.generalized_with: tuple[ThresholdPolicy, bool] | None = None

    # ---- domains -----------------------------------------------------

    def add_domain(self, prop: str, cls: str, provenance: str) -> None:
        """Make cls a domain of prop with the given provenance, registering
        prop if it is new."""
        if cls not in self.classes:
            raise UnknownEntityError(f"unknown class: {cls}")
        record = self.properties.get(prop)
        if record is None:
            record = self.properties[prop] = PropertyRecord(prop)
        if record.domains.get(cls) == provenance:
            return
        record.domains[cls] = provenance
        if provenance == PROV_GENERALIZED:
            self.generalized_index.setdefault(cls, set()).add(prop)
        else:
            self.generalized_index.get(cls, set()).discard(prop)
        self.table_version += 1
        self.dirty_classes.add(cls)

    def remove_domain(self, prop: str, cls: str) -> None:
        """Drop cls from the domains of prop, whatever its provenance."""
        record = self.properties.get(prop)
        if record is None or cls not in record.domains:
            raise UnknownEntityError(f"{cls} is not a domain of {prop}")
        if record.domains.pop(cls) == PROV_GENERALIZED:
            self.generalized_index[cls].discard(prop)
        self.table_version += 1
        self.dirty_classes.add(cls)

    # ---- instances ---------------------------------------------------

    def direct_instances(self, class_iri: str) -> set[str]:
        """The index's own set of the class's direct instances: read-only
        for callers, and changed by the next set_type."""
        if class_iri not in self.classes:
            raise UnknownEntityError(f"unknown class: {class_iri}")
        return self.direct_instance_index.get(class_iri, set())

    def set_type(self, instance_iri: str, class_iri: str | None) -> None:
        rec = self.instances.get(instance_iri)
        if rec is None:
            raise UnknownEntityError(f"unknown instance: {instance_iri}")
        if rec.assigned_type == class_iri:
            return
        if rec.assigned_type is not None:
            self.direct_instance_index[rec.assigned_type].discard(instance_iri)
            self.dirty_classes.add(rec.assigned_type)
        rec.assigned_type = class_iri
        if class_iri is not None:
            self.direct_instance_index.setdefault(class_iri, set()).add(instance_iri)
            self.dirty_classes.add(class_iri)
        self.dirty_instances.add(instance_iri)

    def deeper_class(self, a: str, b: str) -> str:
        """The tie rule: the deeper class, then the smaller IRI."""
        da, db = self.classes[a].depth, self.classes[b].depth
        if da != db:
            return a if da > db else b
        return min(a, b)

    def add_instance_triples(self, batch: Iterable[Triple]) -> None:
        """Fold a batch of instance triples into the KB.

        Each subject gains its predicates as a property set (rdf:type with
        a known class object is a type assertion instead, resolved
        deepest-class-wins); IRI objects unknown as class, property, or
        instance become placeholder records. Idempotent, and processed in
        phases so any permutation of a batch yields the same state.
        """
        ordinary: list[Triple] = []
        asserted: dict[str, str] = {}
        for t in batch:
            skey = t.subject.value
            rec = self.instances.get(skey)
            if rec is None:
                rec = self.instances[skey] = InstanceRecord(skey)
            elif rec.placeholder:
                rec.placeholder = False  # first statement of its own
            if (
                t.predicate.value == RDF_TYPE
                and t.object.kind is TermKind.IRI
                and t.object.value in self.classes
            ):
                cls = t.object.value
                if cls != OWL_THING:
                    prev = asserted.get(skey)
                    asserted[skey] = cls if prev is None else self.deeper_class(prev, cls)
                continue
            ordinary.append(t)

        for t in ordinary:
            pv = t.predicate.value
            rec = self.instances[t.subject.value]
            if pv not in rec.properties:
                rec.properties.add(pv)
                self.dirty_instances.add(rec.iri)
                if rec.assigned_type is not None:
                    self.dirty_classes.add(rec.assigned_type)
            if pv not in self.properties:
                self.properties[pv] = PropertyRecord(pv)

        for skey, cls in sorted(asserted.items()):
            current = self.instances[skey].assigned_type
            self.set_type(skey, cls if current is None else self.deeper_class(current, cls))

        for t in ordinary:
            if t.object.kind is not TermKind.IRI:
                continue
            okey = t.object.value
            if okey in self.classes or okey in self.properties or okey in self.instances:
                continue
            self.instances[okey] = InstanceRecord(okey, placeholder=True)

    # ---- export ------------------------------------------------------

    def export_ntriples(self, sink: TextIO) -> int:
        """Write the KB as N-Triples in a fixed sorted order.

        Emits subClassOf edges, property declarations, domain assertions
        (generalized ones included; provenance is not representable and
        flattens to schema on reload), type assertions for classified
        instances, and one usage statement per (instance, property) pair.
        Equal KBs export byte-identically.
        """
        written = 0
        for ciri in sorted(self.classes):
            parent = self.classes[ciri].parent
            if parent is not None:
                sink.write(f"<{ciri}> <{RDFS_SUBCLASSOF}> <{parent}> .\n")
                written += 1
        for piri in sorted(self.properties):
            sink.write(f"<{piri}> <{RDF_TYPE}> <{RDF_PROPERTY}> .\n")
            written += 1
        for piri in sorted(self.properties):
            for dom in sorted(self.properties[piri].domains):
                sink.write(f"<{piri}> <{RDFS_DOMAIN}> <{dom}> .\n")
                written += 1
        for ikey in sorted(self.instances):
            rec = self.instances[ikey]
            if rec.assigned_type is not None:
                sink.write(f"{_subject_ref(ikey)} <{RDF_TYPE}> <{rec.assigned_type}> .\n")
                written += 1
        for ikey in sorted(self.instances):
            for prop in sorted(self.instances[ikey].properties):
                sink.write(f"{_subject_ref(ikey)} <{prop}> {EXPORT_USAGE_OBJECT} .\n")
                written += 1
        return written


def _subject_ref(key: str) -> str:
    return key if key.startswith("_:") else f"<{key}>"


def _leaf_first(children: dict[str, list[str]]) -> list[str]:
    """Every class after all of its descendants, siblings in IRI order."""
    order: list[str] = []
    stack = [(OWL_THING, False)]
    while stack:
        iri, expanded = stack.pop()
        if expanded:
            order.append(iri)
        else:
            stack.append((iri, True))
            stack.extend((child, False) for child in sorted(children.get(iri, ()), reverse=True))
    return order


def _require_iri(term, what: str) -> None:
    if term.kind is not TermKind.IRI:
        raise SchemaError(f"{what} must be an IRI, got {term.kind.value}")


def load_schema(triples: Iterable[Triple]) -> tuple[KnowledgeBase, list[Triple]]:
    """Bootstrap a KB from schema statements.

    subClassOf edges build the class tree (single parent, no cycles),
    rdfs:domain fills property domains with schema provenance, and
    rdf:type owl:Class / rdf:Property register classes and properties.
    Classes referenced but never placed get the root as parent; the tree
    and its leaf-first order are fixed here, as nothing adds a class later.
    Non-schema triples are returned untouched for later ingestion.
    """
    kb = KnowledgeBase()
    leftover: list[Triple] = []
    parents: dict[str, str] = {}
    class_iris: set[str] = set()
    prop_iris: set[str] = set()
    domain_pairs: list[tuple[str, str]] = []

    for t in triples:
        pv = t.predicate.value
        if pv == RDFS_SUBCLASSOF:
            _require_iri(t.subject, "subClassOf subject")
            _require_iri(t.object, "subClassOf object")
            child, parent = t.subject.value, t.object.value
            if child == OWL_THING:
                raise SchemaError(f"the root class cannot have a parent: {OWL_THING}")
            prev = parents.get(child)
            if prev is not None and prev != parent:
                raise SchemaError(f"class has multiple parents: {child} under {prev} and {parent}")
            parents[child] = parent
            class_iris.update((child, parent))
        elif pv == RDFS_DOMAIN:
            _require_iri(t.subject, "domain subject")
            _require_iri(t.object, "domain object")
            domain_pairs.append((t.subject.value, t.object.value))
            prop_iris.add(t.subject.value)
            class_iris.add(t.object.value)
        elif pv == RDF_TYPE and t.object.kind is TermKind.IRI and t.object.value == OWL_CLASS:
            _require_iri(t.subject, "class declaration subject")
            class_iris.add(t.subject.value)
        elif pv == RDF_TYPE and t.object.kind is TermKind.IRI and t.object.value == RDF_PROPERTY:
            _require_iri(t.subject, "property declaration subject")
            prop_iris.add(t.subject.value)
        else:
            leftover.append(t)

    class_iris.discard(OWL_THING)

    children: dict[str, list[str]] = {}
    for ciri in sorted(class_iris):
        chain: list[str] = []
        on_chain: set[str] = set()
        node = ciri
        while node != OWL_THING and node not in kb.classes:
            if node in on_chain:
                cycle = chain[chain.index(node) :] + [node]
                raise SchemaError("subClassOf cycle: " + " -> ".join(cycle))
            chain.append(node)
            on_chain.add(node)
            node = parents.get(node, OWL_THING)
        for pending in reversed(chain):
            parent = parents.get(pending, OWL_THING)
            kb.classes[pending] = ClassNode(pending, parent, kb.classes[parent].depth + 1)
            children.setdefault(parent, []).append(pending)
    kb.leaf_first_order = _leaf_first(children)

    for piri in sorted(prop_iris):
        kb.properties.setdefault(piri, PropertyRecord(piri))
    for piri, dom in domain_pairs:
        kb.add_domain(piri, dom, PROV_SCHEMA)

    return kb, leftover
