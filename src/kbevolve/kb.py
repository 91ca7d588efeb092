"""In-memory knowledge base: single-rooted class tree, property -> domain
table with per-domain provenance, and instance records.

The KB also owns the state derived from them that the passes read, and
keeps it current on every write: the direct-instance index, a per-class
index of generalized domains, and the dirty sets. A class is dirty when its
direct-instance set, the properties of its direct instances, or its domain
entries changed since the last generalization pass; an instance is dirty
when its type or properties changed since the last typing pass. Domain
writes therefore go through add_domain / remove_domain, and every domain
write bumps table_version, which makes the next typing pass rescore every
instance. The typing pass keeps its last decision per instance in
typing_cache and its scoring tables in typing_kernel, both valid for the
(method, table_version) in typed_against; the generalization pass records
its (policy, deletion_enabled) in generalized_with.

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
    children: set[str] = field(default_factory=set)
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


@dataclass
class IngestSummary:
    new_instances: int = 0
    new_placeholders: int = 0
    type_assertions: int = 0


class KnowledgeBase:
    def __init__(self):
        self.classes: dict[str, ClassNode] = {OWL_THING: ClassNode(OWL_THING, None)}
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

    # ---- classes ----------------------------------------------------

    def add_class(self, iri: str, parent: str | None = None) -> ClassNode:
        if iri in self.classes:
            raise SchemaError(f"class already defined: {iri}")
        parent_iri = parent if parent is not None else OWL_THING
        parent_node = self.classes.get(parent_iri)
        if parent_node is None:
            raise SchemaError(f"unknown parent class: {parent_iri}")
        node = ClassNode(iri, parent_iri, depth=parent_node.depth + 1)
        self.classes[iri] = node
        parent_node.children.add(iri)
        self.table_version += 1  # pfidf weights depend on the class count
        return node

    def leaf_first_order(self) -> list[str]:
        """Post-order walk of the class tree.

        Every class appears after all of its descendants; sibling ties are
        broken lexicographically, so the order is deterministic.
        """
        order: list[str] = []
        stack = [(OWL_THING, iter(sorted(self.classes[OWL_THING].children)))]
        while stack:
            iri, children = stack[-1]
            child = next(children, None)
            if child is None:
                order.append(iri)
                stack.pop()
            else:
                stack.append((child, iter(sorted(self.classes[child].children))))
        return order

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
        if class_iri not in self.classes:
            raise UnknownEntityError(f"unknown class: {class_iri}")
        return set(self.direct_instance_index.get(class_iri, ()))

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

    def _deeper_class(self, a: str, b: str) -> str:
        da, db = self.classes[a].depth, self.classes[b].depth
        if da != db:
            return a if da > db else b
        return min(a, b)

    def add_instance_triples(self, batch: Iterable[Triple]) -> IngestSummary:
        """Fold a batch of instance triples into the KB.

        Each subject gains its predicates as a property set (rdf:type with
        a known class object is a type assertion instead, resolved
        deepest-class-wins); IRI objects unknown as class, property, or
        instance become placeholder records. Idempotent, and processed in
        phases so any permutation of a batch yields the same state.
        """
        triples = list(batch)
        summary = IngestSummary()
        created: list[str] = []

        ordinary: list[Triple] = []
        asserted: dict[str, str] = {}
        for t in triples:
            skey = t.subject.value
            rec = self.instances.get(skey)
            if rec is None:
                rec = InstanceRecord(skey)
                self.instances[skey] = rec
                summary.new_instances += 1
                created.append(skey)
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
                    asserted[skey] = cls if prev is None else self._deeper_class(prev, cls)
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

        for skey in sorted(asserted):
            current = self.instances[skey].assigned_type
            chosen = asserted[skey] if current is None else self._deeper_class(current, asserted[skey])
            if chosen != current:
                self.set_type(skey, chosen)
                summary.type_assertions += 1

        for t in ordinary:
            if t.object.kind is not TermKind.IRI:
                continue
            okey = t.object.value
            if okey in self.classes or okey in self.properties or okey in self.instances:
                continue
            self.instances[okey] = InstanceRecord(okey, placeholder=True)
            summary.new_instances += 1
            created.append(okey)

        summary.new_placeholders = sum(1 for key in created if self.instances[key].placeholder)
        return summary

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


def _require_iri(term, what: str) -> None:
    if term.kind is not TermKind.IRI:
        raise SchemaError(f"{what} must be an IRI, got {term.kind.value}")


def _check_acyclic(parents: dict[str, str]) -> None:
    state: dict[str, int] = {}  # 1 = on current walk, 2 = cleared
    for start in parents:
        if state.get(start) == 2:
            continue
        path: list[str] = []
        node = start
        while node in parents and state.get(node) != 2:
            if state.get(node) == 1:
                cycle = path[path.index(node) :]
                raise SchemaError("subClassOf cycle: " + " -> ".join(cycle + [node]))
            state[node] = 1
            path.append(node)
            node = parents[node]
        for seen in path:
            state[seen] = 2


def load_schema(triples: Iterable[Triple]) -> tuple[KnowledgeBase, list[Triple]]:
    """Bootstrap a KB from schema statements.

    subClassOf edges build the class tree (single parent, no cycles),
    rdfs:domain fills property domains with schema provenance, and
    rdf:type owl:Class / rdf:Property register classes and properties.
    Classes referenced but never placed get the root as parent. Non-schema
    triples are returned untouched for later ingestion.
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
    _check_acyclic(parents)

    for ciri in sorted(class_iris):
        chain: list[str] = []
        node = ciri
        while node != OWL_THING and node not in kb.classes:
            chain.append(node)
            node = parents.get(node, OWL_THING)
        for pending in reversed(chain):
            kb.add_class(pending, parents.get(pending, OWL_THING))

    for piri in sorted(prop_iris):
        kb.properties.setdefault(piri, PropertyRecord(piri))
    for piri, dom in domain_pairs:
        kb.add_domain(piri, dom, PROV_SCHEMA)

    return kb, leftover
