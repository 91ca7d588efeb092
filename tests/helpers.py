"""Shared test builders: rows, the presidential fixture KB, and
per-instance scorers over the tables of the typing kernel that
``assign_types`` runs: every class's score in a dict, then a separate
argmax, which ``_Kernel.decide`` fuses into one pass."""

from __future__ import annotations

import math

from kbevolve.errors import UnknownEntityError
from kbevolve.kb import OWL_THING, RDFS_DOMAIN, RDFS_SUBCLASSOF, InstanceRecord, KnowledgeBase, load_schema
from kbevolve.type_inference import METHOD_NAIVE, METHOD_PFIDF, TypingDecision, _Kernel

EX = "http://ex/"
CLS = EX + "class/"
PROP = EX + "prop/"
INST = EX + "inst/"

PRESIDENT = CLS + "President"
OFFICEHOLDER = CLS + "OfficeHolder"
POLITICIAN = CLS + "Politician"
MONARCH = CLS + "Monarch"
OFFICER = CLS + "Officer"
PERSON = CLS + "Person"
ARTIST = CLS + "Artist"
ACTOR = CLS + "Actor"
MODEL = CLS + "Model"

KIM = INST + "kim_dae_jung"

# Property -> domains table for one presidential instance. The named rows
# carry the biography properties; the grouped rows fill the remaining
# domain memberships so the per-class pair counts land on:
# President 25, OfficeHolder 15, Politician 14, Monarch 14, Officer 9,
# Person 3, Artist 1, Actor 1, Model 1 (83 pairs over 30 properties).
PRESIDENTIAL_TABLE: dict[str, tuple[str, ...]] = {
    PROP + "name": (PRESIDENT, PERSON),
    PROP + "picture": (ARTIST, PERSON),
    PROP + "country": (PRESIDENT, OFFICEHOLDER),
    PROP + "birthPlace": (PRESIDENT, MONARCH),
    PROP + "diedIn": (PRESIDENT, MONARCH),
    PROP + "birthDate": (PRESIDENT, PERSON),
    PROP + "inaugurationDay": (PRESIDENT, OFFICEHOLDER),
    PROP + "vicePresident": (PRESIDENT,),
}
for _i in range(9):
    PRESIDENTIAL_TABLE[PROP + f"officeTrack{_i}"] = (PRESIDENT, POLITICIAN, OFFICEHOLDER, OFFICER)
for _i in range(5):
    PRESIDENTIAL_TABLE[PROP + f"partyRole{_i}"] = (PRESIDENT, POLITICIAN, MONARCH)
for _i in range(4):
    PRESIDENTIAL_TABLE[PROP + f"stateRole{_i}"] = (PRESIDENT, OFFICEHOLDER, MONARCH)
for _i in range(3):
    PRESIDENTIAL_TABLE[PROP + f"royalLine{_i}"] = (MONARCH,)
PRESIDENTIAL_TABLE[PROP + "screenCredit0"] = (ACTOR, MODEL)

EXPECTED_PRESIDENTIAL_COUNTS = {
    PRESIDENT: 25,
    OFFICEHOLDER: 15,
    POLITICIAN: 14,
    MONARCH: 14,
    OFFICER: 9,
    PERSON: 3,
    ARTIST: 1,
    ACTOR: 1,
    MODEL: 1,
}


# Statements are rows, as ntriples.read_batch returns them: (subject key,
# predicate, IRI object or None).
Row = tuple[str, str, str | None]


def t(subject: str, predicate: str, obj: str) -> Row:
    return subject, predicate, obj


def t_lit(subject: str, predicate: str) -> Row:
    """A statement whose object is a literal."""
    return subject, predicate, None


def subclass(child: str, parent: str) -> Row:
    return t(child, RDFS_SUBCLASSOF, parent)


def domain(prop: str, cls: str) -> Row:
    return t(prop, RDFS_DOMAIN, cls)


def row_to_line(row: Row) -> str:
    """An N-Triples line that read_batch reads as row, a None object being
    written as the literal "x"."""
    s, p, o = row
    subject = s if s.startswith("_:") else f"<{s}>"
    obj = '"x"' if o is None else f"<{o}>"
    return f"{subject} <{p}> {obj} .\n"


def presidential_kb() -> KnowledgeBase:
    """KB holding one instance whose properties span the table above."""
    schema = [
        domain(prop, cls)
        for prop, domains in sorted(PRESIDENTIAL_TABLE.items())
        for cls in domains
    ]
    kb, leftover = load_schema(schema)
    assert not leftover
    kb.add_instance_triples([t_lit(KIM, prop) for prop in sorted(PRESIDENTIAL_TABLE)])
    return kb


def kb_instance_state(kb: KnowledgeBase) -> dict[str, tuple[str | None, tuple[str, ...], bool]]:
    """Comparable snapshot of instance records."""
    return {
        key: (rec.assigned_type, tuple(sorted(rec.properties)), rec.placeholder)
        for key, rec in kb.instances.items()
    }


def assert_typing_matches_oracle(
    kb: KnowledgeBase, made: list[TypingDecision], expected: list[TypingDecision]
) -> None:
    """``made`` is what ``assign_types`` returned and ``expected`` what the
    dense oracle pass returned on an equal KB. Every decision made equals
    the oracle's, the changed ones are exactly the oracle's changed ones,
    and the instances with a type_score are exactly those the oracle
    decided, each holding the oracle's (chosen, score) as its (type,
    type_score)."""
    oracle = {d.instance: d for d in expected}
    assert all(oracle[d.instance] == d for d in made)
    assert [d for d in made if d.chosen != d.previous] == [d for d in expected if d.chosen != d.previous]
    assert {
        k: (rec.assigned_type, rec.type_score) for k, rec in kb.instances.items() if rec.type_score is not None
    } == {k: (d.chosen, d.score) for k, d in oracle.items()}


def _instance_record(kb: KnowledgeBase, instance_iri: str) -> InstanceRecord:
    rec = kb.instances.get(instance_iri)
    if rec is None:
        raise UnknownEntityError(f"unknown instance: {instance_iri}")
    return rec


def kernel_scores(kernel: _Kernel, properties: set[str]) -> dict[str, float]:
    """Positive score of every non-root class the properties hit."""
    dot: dict[str, float] = {}
    hits = 0
    for prop in sorted(properties):
        entry = kernel.table.get(prop)
        if entry is None:
            continue
        weight, domains = entry
        hits += len(domains)
        for cls in domains:
            dot[cls] = dot.get(cls, 0.0) + weight
    dot.pop(OWL_THING, None)
    if kernel.norms is None:
        return {cls: d / hits for cls, d in dot.items()}
    n_props = len(properties)
    return {cls: min(1.0, d / math.sqrt(kernel.norms[cls] * n_props)) for cls, d in dot.items()}


def decide(
    kb: KnowledgeBase, instance_iri: str, previous: str | None, scores: dict[str, float]
) -> TypingDecision:
    """Argmax, ties going to kb.deeper_class; the incumbent stays unless strictly beaten."""
    best, best_score = None, 0.0
    for cls, score in scores.items():
        if score > best_score:
            best, best_score = cls, score
        elif score == best_score and best is not None:
            best = kb.deeper_class(best, cls)
    if previous is not None and scores.get(previous, 0.0) >= best_score:
        best = previous
    return TypingDecision(instance_iri, previous, best, scores.get(best, 0.0))


def class_scores(kb: KnowledgeBase, instance_iri: str, method: str) -> dict[str, float]:
    """Score of every non-root class the instance's properties give
    evidence for; classes missing from the result score 0.0."""
    rec = _instance_record(kb, instance_iri)
    return kernel_scores(_Kernel(kb, method), rec.properties)


def naive_assign(kb: KnowledgeBase, instance_iri: str) -> TypingDecision:
    """Choose the class with the most (property, domain) pair hits; the
    score is its hit count over the instance's total pair count."""
    rec = _instance_record(kb, instance_iri)
    scores = class_scores(kb, instance_iri, METHOD_NAIVE)
    return decide(kb, instance_iri, rec.assigned_type, scores)


def pfidf_score(kb: KnowledgeBase, instance_iri: str, class_iri: str) -> float:
    """Cosine with idf reweighting applied to the type side only. The
    root class scores 0.0: it is never a candidate."""
    if class_iri not in kb.classes:
        raise UnknownEntityError(f"unknown class: {class_iri}")
    return class_scores(kb, instance_iri, METHOD_PFIDF).get(class_iri, 0.0)
