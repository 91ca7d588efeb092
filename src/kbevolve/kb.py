"""In-memory knowledge base: single-rooted class tree, property -> domain
table with per-domain provenance, and instance records.

The KB also owns the state derived from them that the passes read, and
keeps it current on every write: the direct-instance index, the property ->
users index, a per-class index of generalized domains, per-class counts of
the direct instances carrying each property, the coverage counters the
report reads (instances with properties, classified, classified with
properties, placeholders; properties with a domain), and the dirty sets.
There are three dirty sets. A class is dirty when its direct-instance set,
the properties of its direct instances, or its domain entries changed since
the last generalization pass; an instance is dirty when its type or
properties changed since the last typing pass; a property is dirty when its
set of domains changed since the last typing pass (a provenance-only
rewrite marks the class, not the property). Each pass visits exactly its
dirty set. A change of its inputs first marks more: a new (policy,
deletion_enabled) in generalized_with marks every class, a method other
than typing_kernel's every instance, and the dirty properties, once
typing_kernel has refreshed their table entries and the norms they move,
the instances that refresh finds affected.
load_schema and ingest read statements as rows of plain strings, (subject
key, predicate, IRI object or None), as ntriples.read_batch returns them: a
subject key starting with _: is a blank node (no IRI starts so), and an
object of None is a literal or a blank node.
An instance record's properties are an interned sorted tuple: records
with the same set hold one object, kept in property_sets with its number of
holders in property_set_holders. Ingest reads a batch in two passes: the
first gathers each subject's predicates in a list, as dumps write them
subject by subject; the second updates each subject once (record,
property_users, class_property_counts, counters, dirty sets) and sorts and
interns its merged set, before the batch's type assertions reach
set_type. The superseded set loses a holder and leaves the table with its
last one, so the table holds exactly the non-empty sets that records hold.
Typing and export walk the stored tuple as it is. property_users and
class_property_counts stay per instance.
An instance record's type_score is the score its type earned in the typing
pass that last scored it, under typing_kernel's method. The class tree and
class_rank (deeper classes first, then smaller IRIs) are fixed by
load_schema. class_rank is the one class order: every class ranks before
its ancestors, generalization walks its dirty classes in rank order, and it
is the one tie rule of ingest (deeper_class) and typing.

An instance's type of None means unclassified; typing an instance as the
root class is the same thing, so assertions to the root are dropped,
set_type stores the root as None, and the root is never handed out as an
assignment. The KB is single-writer, and each pass applies every change
it decides at once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple, TextIO

from kbevolve.errors import SchemaError, UnknownEntityError
from kbevolve.record import Record

if TYPE_CHECKING:
    from kbevolve.generalization import ThresholdPolicy
    from kbevolve.type_inference import _Kernel

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


class ClassNode(NamedTuple):
    parent: str | None
    depth: int = 0


class PropertyRecord(Record):
    __slots__ = ("domains",)

    def __init__(self, domains=None):
        self.domains: dict[str, str] = {} if domains is None else domains  # class iri -> provenance


class InstanceRecord(Record):
    __slots__ = ("assigned_type", "properties", "placeholder", "type_score")

    def __init__(self, assigned_type=None, properties=(), placeholder=False, type_score=None):
        self.assigned_type: str | None = assigned_type
        self.properties: tuple[str, ...] = properties  # sorted, and interned by the KB once non-empty
        self.placeholder = placeholder
        self.type_score: float | None = type_score  # None until a typing pass scores the instance


class KnowledgeBase:
    def __init__(self):
        self.classes: dict[str, ClassNode] = {OWL_THING: ClassNode(None)}
        self.class_rank: dict[str, int] = {OWL_THING: 0}  # set once by load_schema, keys in rank order
        self.properties: dict[str, PropertyRecord] = {}
        self.instances: dict[str, InstanceRecord] = {}
        # Each non-empty property set some record holds, mapped to the one
        # object those records share, and the number of records holding it.
        self.property_sets: dict[tuple[str, ...], tuple[str, ...]] = {}
        self.property_set_holders: dict[tuple[str, ...], int] = {}
        self.direct_instance_index: dict[str, set[str]] = {}
        # property -> instances carrying it, each once: properties never leave
        self.property_users: dict[str, list[str]] = {}
        self.generalized_index: dict[str, set[str]] = {}  # class iri -> properties
        # class iri -> property -> direct instances carrying it; no zero entries
        self.class_property_counts: dict[str, dict[str, int]] = {}
        self.instances_with_properties = 0
        self.instances_classified = 0
        self.classified_with_properties = 0
        self.placeholders = 0
        self.properties_with_domain = 0
        self.dirty_classes: set[str] = set()
        self.dirty_instances: set[str] = set()
        self.dirty_properties: set[str] = set()
        self.typing_kernel: _Kernel | None = None
        self.generalized_with: tuple[ThresholdPolicy, bool] | None = None

    # ---- domains -----------------------------------------------------

    def add_domain(self, prop: str, cls: str, provenance: str) -> None:
        """Make cls a domain of prop with the given provenance, registering
        prop if it is new."""
        if cls not in self.classes:
            raise UnknownEntityError(f"unknown class: {cls}")
        record = self.properties.get(prop)
        if record is None:
            record = self.properties[prop] = PropertyRecord()
        previous = record.domains.get(cls)
        if previous == provenance:
            return
        if previous is None:
            if not record.domains:
                self.properties_with_domain += 1
            self.dirty_properties.add(prop)
        record.domains[cls] = provenance
        if provenance == PROV_GENERALIZED:
            self.generalized_index.setdefault(cls, set()).add(prop)
        else:
            self.generalized_index.get(cls, set()).discard(prop)
        self.dirty_classes.add(cls)

    def remove_domain(self, prop: str, cls: str) -> None:
        """Drop cls from the domains of prop, whatever its provenance."""
        record = self.properties.get(prop)
        if record is None or cls not in record.domains:
            raise UnknownEntityError(f"{cls} is not a domain of {prop}")
        if record.domains.pop(cls) == PROV_GENERALIZED:
            self.generalized_index[cls].discard(prop)
        if not record.domains:
            self.properties_with_domain -= 1
        self.dirty_properties.add(prop)
        self.dirty_classes.add(cls)

    # ---- instances ---------------------------------------------------

    def direct_instances(self, class_iri: str) -> set[str]:
        """The index's own set of the class's direct instances: read-only
        for callers, and changed by the next set_type."""
        if class_iri not in self.classes:
            raise UnknownEntityError(f"unknown class: {class_iri}")
        return self.direct_instance_index.get(class_iri, set())

    def set_type(self, instance_iri: str, class_iri: str | None) -> None:
        """Type the instance as class_iri; None or the root unclassifies it."""
        rec = self.instances.get(instance_iri)
        if rec is None:
            raise UnknownEntityError(f"unknown instance: {instance_iri}")
        if class_iri == OWL_THING:
            class_iri = None
        elif class_iri is not None and class_iri not in self.classes:
            raise UnknownEntityError(f"unknown class: {class_iri}")
        old = rec.assigned_type
        if old == class_iri:
            return
        props = rec.properties
        if old is None:
            self.instances_classified += 1
            self.classified_with_properties += bool(props)
        else:
            self.direct_instance_index[old].discard(instance_iri)
            self.dirty_classes.add(old)
            counts = self.class_property_counts[old]
            for prop in props:
                if counts[prop] == 1:
                    del counts[prop]
                else:
                    counts[prop] -= 1
        rec.assigned_type = class_iri
        if class_iri is None:
            self.instances_classified -= 1
            self.classified_with_properties -= bool(props)
        else:
            # get first: setdefault would build a container it mostly discards
            index, class_counts = self.direct_instance_index, self.class_property_counts
            (index.get(class_iri) or index.setdefault(class_iri, set())).add(instance_iri)
            self.dirty_classes.add(class_iri)
            counts = class_counts.get(class_iri) or class_counts.setdefault(class_iri, {})
            for prop in props:
                counts[prop] = counts.get(prop, 0) + 1
        self.dirty_instances.add(instance_iri)

    def deeper_class(self, a: str, b: str) -> str:
        """The tie rule: the deeper class, then the smaller IRI, which is
        the class with the smaller class_rank."""
        return a if self.class_rank[a] < self.class_rank[b] else b

    def add_instance_triples(self, rows: Iterable[tuple[str, str, str | None]]) -> None:
        """Fold a batch of instance rows (ntriples.read_batch's) into the KB.

        Each subject gains its predicates as a property set, held as an
        interned sorted tuple (rdf:type with a known class object is a type
        assertion instead, resolved deepest-class-wins); IRI objects unknown
        as class, property, or instance become placeholder records.
        The first pass only gathers each subject's predicates in a list,
        looking it up only when the subject is not the previous row's key
        object; the second makes each subject's set and updates the subject
        once, in the order of its first row.
        Idempotent, and the state equals that of folding the rows one by
        one or in any order, up to the order of each property_users list.
        """
        instances = self.instances
        classes = self.classes
        properties = self.properties
        asserted: dict[str, str] = {}
        # subject -> the predicates of its statements that are not type
        # assertions, repeats kept; a subject of type assertions alone maps
        # to an empty list.
        predicates: dict[str, list[str]] = {}
        # The IRI objects of the statements that are not type assertions,
        # checked for placeholders once the batch's types are set.
        objects: list[str] = []
        subject = None
        for skey, pv, okey in rows:
            if skey is not subject:  # read_batch makes a subject's rows share one key object
                subject = skey
                seen = predicates.get(skey)
                if seen is None:
                    seen = predicates[skey] = []
            if okey is not None:
                if pv == RDF_TYPE and okey in classes:
                    if okey != OWL_THING:
                        prev = asserted.get(skey)
                        asserted[skey] = okey if prev is None else self.deeper_class(prev, okey)
                    continue
                objects.append(okey)
            seen.append(pv)

        users, class_counts = self.property_users, self.class_property_counts
        sets, holders = self.property_sets, self.property_set_holders
        mark_dirty = self.dirty_instances.add
        freed = with_properties = classified_with_properties = 0
        for skey, seen in predicates.items():
            rec = instances.get(skey)
            if rec is None:
                rec = instances[skey] = InstanceRecord()
            elif rec.placeholder:
                rec.placeholder = False  # first statement of its own
                freed += 1
            props, cls = rec.properties, rec.assigned_type
            if props:
                new = sorted(set(seen).difference(props))  # in a fixed order, as a new subject's
                if not new:
                    continue
                merged = tuple(sorted((*props, *new)))
            elif seen:
                new = merged = tuple(sorted(set(seen)))
                with_properties += 1
                classified_with_properties += cls is not None
            else:
                continue
            for pv in new:
                try:
                    users[pv].append(skey)
                except KeyError:  # a property's first user registers it
                    users[pv] = [skey]
                    if pv not in properties:
                        properties[pv] = PropertyRecord()
            if cls is not None:
                counts = class_counts[cls]
                for pv in new:
                    counts[pv] = counts.get(pv, 0) + 1
                self.dirty_classes.add(cls)
            mark_dirty(skey)
            if props:  # the superseded set loses a holder and leaves the table with its last
                if holders[props] == 1:
                    del holders[props], sets[props]
                else:
                    holders[props] -= 1
            rec.properties = shared = sets.setdefault(merged, merged)
            holders[shared] = holders.get(shared, 0) + 1
        self.placeholders -= freed
        self.instances_with_properties += with_properties
        self.classified_with_properties += classified_with_properties

        for skey, cls in sorted(asserted.items()):
            current = instances[skey].assigned_type
            self.set_type(skey, cls if current is None else self.deeper_class(current, cls))

        for okey in objects:
            if okey not in classes and okey not in properties and okey not in instances:
                instances[okey] = InstanceRecord(placeholder=True)
                self.placeholders += 1

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
        instances = sorted(self.instances)
        for ikey in instances:
            cls = self.instances[ikey].assigned_type
            if cls is not None:
                sink.write(f"{_subject_ref(ikey)} <{RDF_TYPE}> <{cls}> .\n")
                written += 1
        for ikey in instances:
            props = self.instances[ikey].properties
            if props:
                ref = _subject_ref(ikey)
                for prop in props:
                    sink.write(f"{ref} <{prop}> {EXPORT_USAGE_OBJECT} .\n")
                written += len(props)
        return written


def _subject_ref(key: str) -> str:
    return key if key.startswith("_:") else f"<{key}>"


def _iri(key: str | None, what: str) -> str:
    """A row's subject key or object, which must be an IRI."""
    if key is None:
        raise SchemaError(f"{what} must be an IRI, got literal or blank")
    if key.startswith("_:"):
        raise SchemaError(f"{what} must be an IRI, got blank")
    return key


def load_schema(
    rows: Iterable[tuple[str, str, str | None]],
) -> tuple[KnowledgeBase, list[tuple[str, str, str | None]]]:
    """Bootstrap a KB from schema statements.

    subClassOf edges build the class tree (single parent, no cycles),
    rdfs:domain fills property domains with schema provenance, and
    rdf:type owl:Class / rdf:Property register classes and properties.
    Classes referenced but never placed get the root as parent; the tree
    and class_rank are fixed here, as nothing adds a class later.
    Non-schema rows are returned untouched for later ingestion.
    """
    kb = KnowledgeBase()
    leftover: list[tuple[str, str, str | None]] = []
    parents: dict[str, str] = {}
    class_iris: set[str] = set()
    prop_iris: set[str] = set()
    domain_pairs: list[tuple[str, str]] = []

    for row in rows:
        s, pv, o = row
        if pv == RDFS_SUBCLASSOF:
            child, parent = _iri(s, "subClassOf subject"), _iri(o, "subClassOf object")
            if child == OWL_THING:
                raise SchemaError(f"the root class cannot have a parent: {OWL_THING}")
            prev = parents.get(child)
            if prev is not None and prev != parent:
                raise SchemaError(f"class has multiple parents: {child} under {prev} and {parent}")
            parents[child] = parent
            class_iris.update((child, parent))
        elif pv == RDFS_DOMAIN:
            prop, cls = _iri(s, "domain subject"), _iri(o, "domain object")
            domain_pairs.append((prop, cls))
            prop_iris.add(prop)
            class_iris.add(cls)
        elif pv == RDF_TYPE and o == OWL_CLASS:
            class_iris.add(_iri(s, "class declaration subject"))
        elif pv == RDF_TYPE and o == RDF_PROPERTY:
            prop_iris.add(_iri(s, "property declaration subject"))
        else:
            leftover.append(row)

    class_iris.discard(OWL_THING)

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
            kb.classes[pending] = ClassNode(parent, kb.classes[parent].depth + 1)
    ranked = sorted(kb.classes, key=lambda c: (-kb.classes[c].depth, c))
    kb.class_rank = {cls: k for k, cls in enumerate(ranked)}

    for piri in sorted(prop_iris):
        kb.properties.setdefault(piri, PropertyRecord())
    for piri, dom in domain_pairs:
        kb.add_domain(piri, dom, PROV_SCHEMA)

    return kb, leftover
