"""Shared test builders: terms, triples, the presidential fixture KB, and
per-instance scorers over the typing kernel that ``assign_types`` runs."""

from __future__ import annotations

from kbevolve.errors import UnknownEntityError
from kbevolve.kb import RDFS_DOMAIN, RDFS_SUBCLASSOF, InstanceRecord, KnowledgeBase, load_schema
from kbevolve.ntriples import Triple, iri, literal
from kbevolve.type_inference import METHOD_NAIVE, METHOD_PFIDF, TypingDecision, _decide, _Kernel

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


def t(subject: str, predicate: str, obj: str) -> Triple:
    return Triple(iri(subject), iri(predicate), iri(obj))


def t_lit(subject: str, predicate: str, value: str = "x") -> Triple:
    return Triple(iri(subject), iri(predicate), literal(value))


def subclass(child: str, parent: str) -> Triple:
    return t(child, RDFS_SUBCLASSOF, parent)


def domain(prop: str, cls: str) -> Triple:
    return t(prop, RDFS_DOMAIN, cls)


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
    and the typing cache holds the oracle's (chosen, score, method) for
    every instance the oracle decided."""
    oracle = {d.instance: d for d in expected}
    assert all(oracle[d.instance] == d for d in made)
    assert [d for d in made if d.chosen != d.previous] == [d for d in expected if d.chosen != d.previous]
    assert {k: (d.chosen, d.score, d.method) for k, d in kb.typing_cache.items()} == {
        k: (d.chosen, d.score, d.method) for k, d in oracle.items()
    }


def _instance_record(kb: KnowledgeBase, instance_iri: str) -> InstanceRecord:
    rec = kb.instances.get(instance_iri)
    if rec is None:
        raise UnknownEntityError(f"unknown instance: {instance_iri}")
    return rec


def class_scores(kb: KnowledgeBase, instance_iri: str, method: str) -> dict[str, float]:
    """Score of every non-root class the instance's properties give
    evidence for; classes missing from the result score 0.0."""
    rec = _instance_record(kb, instance_iri)
    return _Kernel(kb, method).scores(rec.properties)


def naive_assign(kb: KnowledgeBase, instance_iri: str) -> TypingDecision:
    """Choose the class with the most (property, domain) pair hits; the
    score is its hit count over the instance's total pair count."""
    rec = _instance_record(kb, instance_iri)
    scores = class_scores(kb, instance_iri, METHOD_NAIVE)
    return _decide(kb, instance_iri, rec.assigned_type, scores, METHOD_NAIVE)


def pfidf_score(kb: KnowledgeBase, instance_iri: str, class_iri: str) -> float:
    """Cosine with idf reweighting applied to the type side only. The
    root class scores 0.0: it is never a candidate."""
    if class_iri not in kb.classes:
        raise UnknownEntityError(f"unknown class: {class_iri}")
    return class_scores(kb, instance_iri, METHOD_PFIDF).get(class_iri, 0.0)
