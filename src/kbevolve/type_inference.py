"""Instance type scoring and assignment.

All three methods share one sparse kernel over the property -> domain
table: each of an instance's properties adds its weight to every domain it
has. naive weighs every property 1 and divides a class's hits by the
instance's total hits (the root's included); cosine weighs every property 1
and pfidf weighs it by inverse domain frequency, and both divide by the
class and instance norms. Reassignment requires a strictly better score
than the incumbent type; equal scores go to KnowledgeBase.deeper_class.
The root class is never assigned (it means unclassified).

A pass scores exactly the instances the KB marked dirty. When the method
changed, it first rebuilds the kernel and marks every instance dirty; when
only the domain table changed, it rebuilds the kernel, diffs it against
the last one and marks only the instances the diff can affect. A decision
reads only the kernel, the class depths and the instance's own type and
properties, which the pass does not change, so it is applied at once and
instance order does not matter. The pass returns only the decisions it
made, and leaves on each instance it scored the score of its type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _affected(kb: KnowledgeBase, old: _Kernel, new: _Kernel) -> set[str]:
    """Instances whose decision or score can differ between two kernels of
    one method: the users of every property whose table entry changed;
    under cosine and pfidf also the direct instances of every class whose
    norm changed, and the users of every property with a domain among the
    classes whose norm fell. Any other instance keeps its dot sums and
    hits, and every class it hits keeps or raises its norm, so its
    incumbent keeps its score and no rival gains."""
    users = kb.property_users
    dirty: set[str] = set()
    for prop in old.table.keys() | new.table.keys():
        if old.table.get(prop) != new.table.get(prop):
            dirty.update(users.get(prop, ()))
    if new.norms is None:
        return dirty
    fell: set[str] = set()
    for cls in old.norms.keys() | new.norms.keys():
        before, after = old.norms.get(cls, 0.0), new.norms.get(cls, 0.0)
        if before != after:
            dirty.update(kb.direct_instance_index.get(cls, ()))
            if after < before:
                fell.add(cls)
    if fell:
        for prop, (_, domains) in new.table.items():
            if not fell.isdisjoint(domains):
                dirty.update(users.get(prop, ()))
    return dirty


def assign_types(kb: KnowledgeBase, method: str) -> list[TypingDecision]:
    """One typing pass over the dirty instances that have properties.

    An unclassified instance takes the best class when its score is
    positive; a classified one is reassigned only when some class strictly
    beats the incumbent's score under the same method. Instances with no
    scorable evidence yield a no-change decision. A new method marks every
    instance dirty; a domain write under the same method marks only the
    instances _affected by the rebuilt kernel. Sets type_score on every
    instance it scores, and returns the decisions this pass made, applied,
    in instance order; a clean instance keeps its type_score and is not
    listed.
    """
    inputs = (method, kb.table_version)
    if kb.typed_against != inputs:
        kernel = _Kernel(kb, method)
        if kb.typed_against is not None and kb.typed_against[0] == method:
            kb.dirty_instances.update(_affected(kb, kb.typing_kernel, kernel))
        else:
            kb.dirty_instances.update(kb.instances)
        kb.typing_kernel = kernel
        kb.typed_against = inputs
    kernel = kb.typing_kernel
    decisions: list[TypingDecision] = []
    for ikey in sorted(kb.dirty_instances):
        rec = kb.instances[ikey]
        if not rec.properties:
            continue
        scores = kernel.scores(rec.properties)
        decision = _decide(kb, ikey, rec.assigned_type, scores)
        rec.type_score = decision.score
        if decision.chosen != decision.previous:
            kb.set_type(ikey, decision.chosen)
        decisions.append(decision)
    # Types set just above follow from stable decisions: nothing to rescore.
    kb.dirty_instances.clear()
    return decisions
