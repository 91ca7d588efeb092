"""Instance type scoring and assignment.

All three methods share one sparse kernel over the property -> domain
table: each of an instance's properties adds its weight to every domain it
has. naive weighs every property 1 and divides a class's hits by the
instance's total hits (the root's included); cosine weighs every property 1
and pfidf weighs it by inverse domain frequency, and both divide by the
class and instance norms. Reassignment requires a strictly better score
than the incumbent type; equal scores go to KnowledgeBase.deeper_class.
The root class is never assigned (it means unclassified).

A pass scores exactly the instances the KB marked dirty, after rebuilding
the kernel and marking every instance dirty when the method or the domain
table changed. A decision reads only the kernel, the class depths and the
instance's own type and properties, which the pass does not change, so it
is applied at once and instance order does not matter. The pass returns
only the decisions it made; kb.typing_cache keeps each scored instance's
last decision, in the stable (chosen, chosen) form, for the typing audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from kbevolve.errors import UnknownEntityError
from kbevolve.kb import OWL_THING, KnowledgeBase

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


def _decide(
    kb: KnowledgeBase,
    instance_iri: str,
    previous: str | None,
    scores: dict[str, float],
    method: str,
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
    return TypingDecision(instance_iri, previous, best, scores.get(best, 0.0), method)


def assign_types(kb: KnowledgeBase, method: str) -> list[TypingDecision]:
    """One typing pass over the dirty instances that have properties.

    An unclassified instance takes the best class when its score is
    positive; a classified one is reassigned only when some class strictly
    beats the incumbent's score under the same method. Instances with no
    scorable evidence yield a no-change decision. Returns the decisions
    this pass made, applied, in instance order; a clean instance keeps its
    last decision in kb.typing_cache and is not listed.
    """
    inputs = (method, kb.table_version)
    if kb.typed_against != inputs:
        kb.typing_kernel = _Kernel(kb, method)
        kb.typed_against = inputs
        kb.dirty_instances.update(kb.instances)
    kernel, cache = kb.typing_kernel, kb.typing_cache
    decisions: list[TypingDecision] = []
    for ikey in sorted(kb.dirty_instances):
        rec = kb.instances[ikey]
        if not rec.properties:
            continue
        scores = kernel.scores(rec.properties)
        decision = cache[ikey] = _decide(kb, ikey, rec.assigned_type, scores, method)
        if decision.chosen != decision.previous:
            kb.set_type(ikey, decision.chosen)
            cache[ikey] = replace(decision, previous=decision.chosen)
        decisions.append(decision)
    # Types set just above follow from stable decisions: nothing to rescore.
    kb.dirty_instances.clear()
    return decisions
