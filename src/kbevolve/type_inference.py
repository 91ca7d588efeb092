"""Instance type scoring and assignment.

All three methods share one sparse kernel over the property -> domain
table: each of an instance's properties adds its weight to every domain it
has. naive weighs every property 1 and divides a class's hits by the
instance's total hits (the root's included); cosine weighs every property 1
and pfidf weighs it by inverse domain frequency, and both divide by the
class and instance norms. Every method walks the instance's interned
property tuple, which ingest sorted, so pfidf sums its weights in sorted
order as the per-pair scorers do. One pass over the classes hit keeps the
best. Under the unit weights of naive and cosine, a property on every
non-root class adds the same 1 to each, so decide counts such properties
instead of walking their domains and ends its walk of the other classes at
the first one nothing else hits; the counts are exact integers in floats,
so the scores are the walked ones bit for bit. Reassignment requires a strictly
better score than the incumbent type; equal scores go to the smaller
KnowledgeBase.class_rank. The root class is never assigned.

A pass scores exactly the instances the KB marked dirty. A new method
builds a kernel and marks every instance dirty; after domain writes
(kb.dirty_properties) the kernel refreshes those properties' entries and
marks dirty every instance the change can affect. A decision reads only
the kernel and the instance's interned property set and incumbent, so it
is applied at once, instance order does not matter, and a pass memoizes
it on that pair: instances that share it cost one kernel call per pass.
The pass returns only the decisions it made, one per instance scored, and
leaves on each instance it scored the score of its type.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, NamedTuple

from kbevolve.errors import UnknownEntityError
from kbevolve.kb import OWL_THING, KnowledgeBase

METHOD_NAIVE = "naive"
METHOD_COSINE = "cosine"
METHOD_PFIDF = "pfidf"
METHODS = (METHOD_NAIVE, METHOD_COSINE, METHOD_PFIDF)


class TypingDecision(NamedTuple):
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


class _Kernel:
    """Scoring tables for one method, which refresh builds and keeps current.

    table maps every property with domains and a positive weight to its
    weight and domains, and index maps each class to its table properties
    and their squared weights. norms holds the class norms cosine and pfidf
    divide by, each summed in sorted property order as the per-pair cosine
    sums it, bit for bit; a class without table properties has none. rank
    is the KB's class_rank.

    Under naive and cosine, universal holds the table's properties whose
    domains include every non-root class: each adds 1 to every class, so
    decide counts them instead of walking their domains. background orders
    the non-root classes by falling score for such a count alone: by
    class_rank under naive, which scores every class the same for it, and
    by norm, then class_rank, under cosine, whose score falls as the norm
    grows. pfidf's weights are not 1: it drops a property on every class
    (idf 0) and walks one that misses only the root like any other, so both
    stay empty, and decide neither tests a property nor adds a count.
    """

    def __init__(self, kb: KnowledgeBase, method: str):
        if method not in METHODS:
            raise ValueError(f"unknown method: {method}")
        self.method = method
        self.rank = kb.class_rank
        self.table: dict[str, tuple[float, tuple[str, ...]]] = {}
        self.index: defaultdict[str, dict[str, float]] = defaultdict(dict)
        self.norms: dict[str, float] | None = None if method == METHOD_NAIVE else {}
        self.universal: set[str] = set()
        self.refresh(kb, kb.properties)

    def refresh(self, kb: KnowledgeBase, props: Iterable[str]) -> set[str]:
        """Re-read the table entries of props, which must hold every property
        whose domains changed since the last refresh (the class count idf
        reads is fixed), and return the instances whose decision or score can
        change: the users of each property whose entry changed and, under
        cosine and pfidf, the direct instances of each class whose norm
        changed and the users of each property on a non-root class whose norm
        fell. Any other instance keeps its dot sums and its incumbent's score,
        and no rival gains: every class it hits keeps or lowers its score.
        Gathers none while every instance is dirty, as on a kernel's build."""
        table, index, universal, norms = self.table, self.index, self.universal, self.norms
        users, pfidf = kb.property_users, self.method == METHOD_PFIDF
        gather = len(kb.dirty_instances) < len(kb.instances)
        # A property on this many non-root classes is universal; the root alone has none.
        covers = len(kb.classes) - 1
        affected, touched = set(), set()
        for prop in props:
            domains = kb.properties[prop].domains
            weight = (idf_weight(kb, prop) if pfidf else 1.0) if domains else 0.0
            entry = (weight, tuple(domains)) if weight > 0.0 else None
            old = table.get(prop)
            if entry == old:
                continue
            if gather:
                affected.update(users.get(prop, ()))
            universal.discard(prop)
            if old is not None:
                del table[prop]
                for cls in old[1]:
                    del index[cls][prop]
                touched.update(old[1])
            if entry is not None:
                table[prop] = entry
                touched.update(domains)
                square = weight * weight
                for cls in domains:
                    index[cls][prop] = square
                if not pfidf and len(domains) - (OWL_THING in domains) == covers > 0:
                    universal.add(prop)
        for cls in touched:
            squares = index[cls]
            if not squares:
                del index[cls]
            if norms is None:
                continue
            before, after = norms.pop(cls, 0.0), 0.0
            if squares:
                after = norms[cls] = sum([squares[prop] for prop in sorted(squares)])
            if gather and after != before:
                affected.update(kb.direct_instance_index.get(cls, ()))
                if after < before and cls != OWL_THING:
                    for prop in squares:
                        affected.update(users.get(prop, ()))
        # class_rank lists its classes in rank order, and the sort is stable.
        self.background: list[str] = [cls for cls in self.rank if cls != OWL_THING] if universal else []
        if universal and norms is not None:
            # Every non-root class is a domain of each universal property, so each has a norm.
            self.background.sort(key=norms.__getitem__)
        return affected

    def decide(self, properties: tuple[str, ...], previous: str | None) -> tuple[str | None, float]:
        """(type, score): the best non-root class, ties going to the smaller
        class_rank, unless the incumbent previous scores at least as high.

        properties is walked as given: ingest stores it sorted, and pfidf's
        sums depend on the order. A property in universal adds 1 to every
        non-root class, so it is counted once in count instead of walked: a
        class the other properties hit scores at its dot plus count, and
        every other non-root class at count alone. Unit weights make each
        dot an exact integer held in a float, so the sum is the walked one
        bit for bit. The best class count alone reaches is the first unhit
        class of background. Under naive every such class scores the same.
        Under cosine every non-root class's norm is a whole number, at least
        len(universal); that is at least count, as is n_props, so such a
        score is at most 1 and needs no cap, and distinct whole norms never
        round to one score, so background's order (norm, then class_rank)
        puts the best first. A non-root incumbent that no other property
        hits gets its score for count; a root incumbent is never scored.
        """
        table, universal, dot = self.table, self.universal, {}
        hits = count = 0
        for prop in properties:
            entry = table.get(prop)
            if entry is not None:
                weight, domains = entry
                hits += len(domains)
                if universal and prop in universal:
                    count += 1
                    continue
                for cls in domains:
                    dot[cls] = dot.get(cls, 0.0) + weight
        dot.pop(OWL_THING, None)
        norms, rank, n_props = self.norms, self.rank, len(properties)
        best, best_score, kept = None, 0.0, 0.0
        for cls, d in dot.items():
            if count:
                d += count
            if norms is None:
                score = d / hits
            else:
                # sqrt of the product keeps identical binary supports at exactly 1.0
                score = d / math.sqrt(norms[cls] * n_props)
                if score > 1.0:
                    score = 1.0
            if score > best_score:
                best, best_score = cls, score
            elif score == best_score and rank[cls] < rank[best]:
                best = cls
            if cls == previous:
                kept = score
        if count:
            if previous is not None and previous != OWL_THING and previous not in dot:
                kept = count / hits if norms is None else count / math.sqrt(norms[previous] * n_props)
            for cls in self.background:
                if cls not in dot:
                    score = count / hits if norms is None else count / math.sqrt(norms[cls] * n_props)
                    if score > best_score or score == best_score and rank[cls] < rank[best]:
                        best, best_score = cls, score
                    break
        if previous is not None and kept >= best_score:
            return previous, kept
        return best, best_score


def assign_types(kb: KnowledgeBase, method: str) -> list[TypingDecision]:
    """One typing pass over the dirty instances that have properties.

    An unclassified instance takes the best class when its score is
    positive; a classified one is reassigned only when some class strictly
    beats the incumbent's score under the same method. Instances with no
    scorable evidence yield a no-change decision. A new method marks every
    instance dirty and builds a kernel; under the same method, dirty
    properties refresh it and rescore only the instances it finds affected,
    and a provenance-only domain rewrite marks no property. Sets type_score
    on every instance it scores and never reads it, clears
    kb.dirty_properties, and returns the decisions this pass made, applied,
    in instance order; a clean instance keeps its type_score and is not
    listed.
    """
    kernel = kb.typing_kernel
    if kernel is None or kernel.method != method:
        kb.dirty_instances.update(kb.instances)
        kb.typing_kernel = kernel = _Kernel(kb, method)
    elif kb.dirty_properties:
        kb.dirty_instances.update(kernel.refresh(kb, kb.dirty_properties))
    kb.dirty_properties.clear()
    memo: dict[tuple, tuple[str | None, float]] = {}  # (interned set, incumbent) -> decide's result
    decisions: list[TypingDecision] = []
    instances, recall, decide, set_type = kb.instances, memo.get, kernel.decide, kb.set_type
    # TypingDecision checks nothing, so its tuple is made without the Python call of its __new__.
    append, make = decisions.append, tuple.__new__
    for ikey in sorted(kb.dirty_instances):
        rec = instances[ikey]
        props = rec.properties
        if not props:
            continue
        previous = rec.assigned_type
        key = (props, previous)
        result = recall(key)
        if result is None:
            result = memo[key] = decide(props, previous)
        chosen, score = result
        rec.type_score = score
        if chosen != previous:
            set_type(ikey, chosen)
        append(make(TypingDecision, (ikey, previous, chosen, score)))
    # Types set just above follow from stable decisions: nothing to rescore.
    kb.dirty_instances.clear()
    return decisions
