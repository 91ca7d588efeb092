"""Instance type scoring and assignment.

All three methods share one sparse kernel over the property -> domain
table: each of an instance's properties adds its weight to every domain it
has. naive weighs every property 1 and divides a class's hits by the
instance's total hits (the root's included); cosine weighs every property 1
and pfidf weighs it by inverse domain frequency, and both divide by the
class and instance norms. A full pass computes decisions against the
pre-pass state and applies them in lexicographic instance order, so a pass
is not order-dependent. Reassignment requires a strictly better score than
the incumbent type; the root class is never assigned (it means
unclassified).

A pass rescores only the instances the KB marked dirty while the method
and the domain table stay what they were at the last pass; any other
instance's decision is its cached one, which is stable: rescoring it
against unchanged inputs would keep the type its last decision chose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from kbevolve.errors import UnknownEntityError
from kbevolve.kb import OWL_THING, InstanceRecord, KnowledgeBase

METHOD_NAIVE = "naive"
METHOD_COSINE = "cosine"
METHOD_PFIDF = "pfidf"
METHODS = (METHOD_NAIVE, METHOD_COSINE, METHOD_PFIDF)


@dataclass(frozen=True)
class TypingDecision:
    instance: str
    previous: str | None
    chosen: str | None
    score: float
    method: str


def _instance_record(kb: KnowledgeBase, instance_iri: str) -> InstanceRecord:
    rec = kb.instances.get(instance_iri)
    if rec is None:
        raise UnknownEntityError(f"unknown instance: {instance_iri}")
    return rec


def idf_weight(kb: KnowledgeBase, property_iri: str) -> float:
    """ln(class count / domain count); exactly 0 for a property whose
    domains cover every class. Undefined when the property has no domains."""
    record = kb.properties.get(property_iri)
    if record is None:
        raise UnknownEntityError(f"unknown property: {property_iri}")
    df = len(record.domains)
    if df == 0:
        raise ValueError(f"idf undefined for property without domains: {property_iri}")
    class_count = len(kb.classes)
    if df == class_count:
        return 0.0
    return math.log(class_count / df)


def _class_norms(table: dict[str, tuple[float, tuple[str, ...]]]) -> dict[str, float]:
    """Squared norm of each class's weighted profile, summed in table
    order so that it equals the per-pair cosine's bit for bit."""
    squares: dict[str, list[float]] = {}
    for weight, domains in table.values():
        for cls in domains:
            squares.setdefault(cls, []).append(weight * weight)
    return {cls: sum(sq) for cls, sq in squares.items()}


class _Kernel:
    """Scoring tables for one state of the KB, built once per pass.

    table maps every property with domains and a positive weight, in
    sorted order, to its weight and domains; norms holds the class norms
    cosine and pfidf divide by.
    """

    def __init__(self, kb: KnowledgeBase, method: str):
        if method not in METHODS:
            raise ValueError(f"unknown method: {method}")
        self.table: dict[str, tuple[float, tuple[str, ...]]] = {}
        for prop in sorted(kb.properties):
            domains = tuple(kb.properties[prop].domains)
            if domains:
                weight = idf_weight(kb, prop) if method == METHOD_PFIDF else 1.0
                if weight > 0.0:
                    self.table[prop] = (weight, domains)
        self.norms = None if method == METHOD_NAIVE else _class_norms(self.table)

    def scores(self, properties: set[str]) -> dict[str, float]:
        """Positive score of every non-root class the properties hit."""
        dot: dict[str, float] = {}
        hits = 0
        for prop in sorted(properties):
            entry = self.table.get(prop)
            if entry is None:
                continue
            weight, domains = entry
            hits += len(domains)
            for cls in domains:
                dot[cls] = dot.get(cls, 0.0) + weight
        dot.pop(OWL_THING, None)
        if self.norms is None:
            return {cls: d / hits for cls, d in dot.items()}
        n_props = len(properties)
        # sqrt of the product keeps identical binary supports at exactly 1.0
        return {cls: min(1.0, d / math.sqrt(self.norms[cls] * n_props)) for cls, d in dot.items()}


def class_scores(kb: KnowledgeBase, instance_iri: str, method: str) -> dict[str, float]:
    """Score of every non-root class the instance's properties give
    evidence for; classes missing from the result score 0.0."""
    rec = _instance_record(kb, instance_iri)
    return _Kernel(kb, method).scores(rec.properties)


def _decide(
    kb: KnowledgeBase,
    instance_iri: str,
    previous: str | None,
    scores: dict[str, float],
    method: str,
) -> TypingDecision:
    """Argmax with ties going to the deeper class, then the smaller IRI;
    the incumbent type is kept unless strictly beaten."""
    best, best_score, best_depth = None, 0.0, -1
    for cls in sorted(scores):
        score, depth = scores[cls], kb.classes[cls].depth
        if score > best_score or (score == best_score and depth > best_depth):
            best, best_score, best_depth = cls, score, depth
    if previous is not None and scores.get(previous, 0.0) >= best_score:
        best = previous
    return TypingDecision(instance_iri, previous, best, scores.get(best, 0.0), method)


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


def assign_types(kb: KnowledgeBase, method: str) -> list[TypingDecision]:
    """One typing pass over every non-placeholder instance with properties.

    An unclassified instance takes the best class when its score is
    positive; a classified one is reassigned only when some class strictly
    beats the incumbent's score under the same method. Instances with no
    scorable evidence yield a no-change decision. Returns the applied
    decision list in instance order.
    """
    inputs = (method, kb.table_version)
    rescore_all = kb.typed_against != inputs
    if rescore_all:
        kb.typing_kernel = _Kernel(kb, method)
        kb.typed_against = inputs
    kernel, cache, dirty = kb.typing_kernel, kb.typing_cache, kb.dirty_instances
    decisions: list[TypingDecision] = []
    for ikey, rec in sorted(kb.instances.items()):
        if rec.placeholder or not rec.properties:
            continue
        if rescore_all or ikey in dirty:
            scores = kernel.scores(rec.properties)
            decision = cache[ikey] = _decide(kb, ikey, rec.assigned_type, scores, method)
        else:
            decision = cache[ikey]
            if decision.chosen != decision.previous:
                decision = cache[ikey] = TypingDecision(
                    ikey, decision.chosen, decision.chosen, decision.score, method
                )
        decisions.append(decision)
    for decision in decisions:
        if decision.chosen != decision.previous:
            kb.set_type(decision.instance, decision.chosen)
    # Types set just above follow from stable decisions: nothing to rescore.
    dirty.clear()
    return decisions
