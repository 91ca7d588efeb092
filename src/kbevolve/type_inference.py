"""Instance type scoring and assignment.

All three methods share one sparse kernel over the property -> domain
table: each of an instance's properties adds its weight to every domain it
has. naive weighs every property 1 and divides a class's hits by the
instance's total hits (the root's included); cosine weighs every property 1
and pfidf weighs it by inverse domain frequency, and both divide by the
class and instance norms. One pass over the classes hit keeps the best.
Under the unit weights of naive and cosine, a property on every non-root
class adds the same 1 to each, so decide counts such properties instead
of walking their domains; the counts are exact integers in floats, so the
scores are the walked ones bit for bit. Reassignment requires a strictly
better score than the incumbent type; equal scores go to the smaller
KnowledgeBase.class_rank. The root class is never assigned.

A pass scores exactly the instances the KB marked dirty. When the method
changed, it first rebuilds the kernel and marks every instance dirty; when
some properties' domains changed (kb.dirty_properties), it rebuilds the
kernel and compares the table entries of those properties and the class
norms with the last kernel's. An instance the change can affect is
rescored in full or, when only classes whose norm fell can beat its type,
challenged: scored against those classes alone and compared with its
type_score. A decision reads only the kernel and the instance's own
record, so it is applied at once and instance order does not matter. As
it reads only the record's interned property set and incumbent (and, for a
challenge, its type_score), a pass memoizes the kernel's result on that
key: instances that share it cost one kernel call per pass. The pass
returns only the decisions it made, one per instance scored, and leaves
on each instance it scored the score of its type.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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


def _class_norms(table: dict[str, tuple[float, tuple[str, ...]]]) -> dict[str, float]:
    """Squared norm of each class's weighted profile, summed in table
    order so that it equals the per-pair cosine's bit for bit."""
    squares: dict[str, list[float]] = {}
    for weight, domains in table.values():
        square = weight * weight
        for cls in domains:
            squares.setdefault(cls, []).append(square)
    return {cls: sum(sq) for cls, sq in squares.items()}


class _Kernel:
    """Scoring tables for one state of the KB, built once per pass.

    table maps every property with domains and a positive weight, in
    sorted order, to its weight and domains; norms holds the class norms
    cosine and pfidf divide by, and rank is the KB's class_rank. order is
    how a score walks an instance's properties: pfidf sums its idf weights
    in sorted order, as the per-pair scorers do, while the unit weights of
    naive and cosine sum to exact counts in any order.

    Under naive and cosine, universal holds the table's properties whose
    domains include every non-root class: each adds 1 to every class, so
    _best counts them instead of walking their domains. background orders
    the non-root classes by falling score for such a count alone: by
    class_rank under naive, which scores every class the same for it, and
    by norm, then class_rank, under cosine, whose score falls as the norm
    grows. pfidf's weights are not 1: it drops a property on every class
    (idf 0) and walks one that misses only the root like any other, so both
    stay empty.
    """

    def __init__(self, kb: KnowledgeBase, method: str):
        if method not in METHODS:
            raise ValueError(f"unknown method: {method}")
        self.method = method
        self.table: dict[str, tuple[float, tuple[str, ...]]] = {}
        table, universal = self.table, set()
        # A property with this many domains besides the root is universal; a KB of the
        # root alone has none.
        covers = len(kb.classes) - 1
        properties, pfidf = kb.properties, method == METHOD_PFIDF
        for prop in sorted(properties):
            domains = properties[prop].domains
            if not domains:
                continue
            if pfidf:
                weight = idf_weight(kb, prop)
                if weight > 0.0:
                    table[prop] = (weight, tuple(domains))
            else:
                table[prop] = (1.0, tuple(domains))
                if len(domains) >= covers > 0 and len(domains) - (OWL_THING in domains) == covers:
                    universal.add(prop)
        self.norms = norms = None if method == METHOD_NAIVE else _class_norms(table)
        self.rank = rank = kb.class_rank
        self.order = sorted if pfidf else iter
        self.universal = frozenset(universal)
        self.background: list[str] = []
        if universal:
            # class_rank lists its classes in rank order, and the sort is stable.
            self.background = [cls for cls in rank if cls != OWL_THING]
            if norms is not None:
                # Every non-root class is a domain of each universal property, so each has a norm.
                self.background.sort(key=norms.__getitem__)

    def decide(self, properties: frozenset[str], previous: str | None) -> tuple[str | None, float]:
        """(type, score): the best non-root class, ties going to the smaller
        class_rank, unless the incumbent previous scores at least as high."""
        return self._best(self.table, self.universal, properties, previous, 0.0)

    def challenge(self, properties: frozenset[str], previous: str | None, score: float, challengers: dict):
        """decide for an instance whose incumbent keeps its score and whose only
        possible rivals are the classes in challengers, a restricted table."""
        return self._best(challengers, frozenset(), properties, previous, score)

    def _best(
        self, table: dict, universal: frozenset, properties: frozenset[str], previous: str | None, kept: float
    ):
        """The argmax of decide over the classes table gives evidence for.

        A property in universal adds 1 to every non-root class, so it is
        counted once in count instead of walked: a class the other
        properties hit scores at its dot plus count, and every other
        non-root class at count alone. Unit weights make each dot an exact
        integer held in a float, so the sum is the walked one bit for bit.
        The best class count alone reaches is the first unhit class of
        background; a later one can tie it only under cosine, so the walk
        goes on there until a score falls below the best. A non-root
        incumbent that no other property hits gets its score for count; a
        root incumbent is never scored.
        """
        dot: dict[str, float] = {}
        hits = count = 0
        for prop in self.order(properties):
            entry = table.get(prop)
            if entry is not None:
                weight, domains = entry
                hits += len(domains)
                if prop in universal:
                    count += 1
                    continue
                for cls in domains:
                    dot[cls] = dot.get(cls, 0.0) + weight
        dot.pop(OWL_THING, None)
        norms, rank, n_props = self.norms, self.rank, len(properties)
        best, best_score = None, 0.0
        for cls, d in dot.items():
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
                if norms is None:
                    kept = count / hits
                else:
                    kept = min(1.0, count / math.sqrt(norms[previous] * n_props))
            for cls in self.background:
                if cls in dot:
                    continue
                if norms is None:
                    score = count / hits
                else:
                    score = count / math.sqrt(norms[cls] * n_props)
                    if score > 1.0:
                        score = 1.0
                if score < best_score:
                    break
                if score > best_score or rank[cls] < rank[best]:
                    best, best_score = cls, score
                if norms is None:
                    break
        if previous is not None and kept >= best_score:
            return previous, kept
        return best, best_score


def _affected(kb: KnowledgeBase, old: _Kernel, new: _Kernel) -> tuple[set[str], set[str], dict]:
    """Instances whose decision or score can differ between two kernels of one
    method, old built before and new after the domain writes that marked
    kb.dirty_properties. Only those properties' table entries can differ, as
    the class count idf reads is fixed. full: the users of every dirty
    property whose table entry changed and, under cosine and pfidf, the
    direct instances of every class whose norm changed. challenged: the other
    users of every property with a domain among the non-root classes whose
    norm fell; challengers is new's table restricted to those classes. A
    challenged instance keeps its dot sums and its incumbent's score, and
    every other class keeps or lowers its score: only a challenger can beat
    the incumbent. Any other instance keeps its incumbent's score, and no
    rival gains."""
    users = kb.property_users
    full: set[str] = set()
    for prop in kb.dirty_properties:
        if old.table.get(prop) != new.table.get(prop):
            full.update(users.get(prop, ()))
    if new.norms is None:
        return full, set(), {}
    fell: set[str] = set()
    for cls in old.norms.keys() | new.norms.keys():
        before, after = old.norms.get(cls, 0.0), new.norms.get(cls, 0.0)
        if before != after:
            full.update(kb.direct_instance_index.get(cls, ()))
            if after < before and cls != OWL_THING:
                fell.add(cls)
    challengers = {
        prop: (weight, tuple(cls for cls in domains if cls in fell))
        for prop, (weight, domains) in new.table.items()
        if not fell.isdisjoint(domains)
    }
    challenged = {ikey for prop in challengers for ikey in users.get(prop, ())} - full
    return full, challenged, challengers


def assign_types(kb: KnowledgeBase, method: str) -> list[TypingDecision]:
    """One typing pass over the dirty instances that have properties.

    An unclassified instance takes the best class when its score is
    positive; a classified one is reassigned only when some class strictly
    beats the incumbent's score under the same method. Instances with no
    scorable evidence yield a no-change decision. A new method marks every
    instance dirty; dirty properties under the same method rescore only the
    instances _affected by the rebuilt kernel, in full or challenged; a
    provenance-only domain rewrite marks no property and keeps the kernel.
    Sets type_score on every instance it scores, clears kb.dirty_properties,
    and returns the decisions this pass made, applied, in instance order; a
    clean instance keeps its type_score and is not listed.
    """
    old = kb.typing_kernel
    challenged, challengers = set(), {}
    if old is None or old.method != method:
        kb.typing_kernel = _Kernel(kb, method)
        kb.dirty_instances.update(kb.instances)
    elif kb.dirty_properties:
        kb.typing_kernel = _Kernel(kb, method)
        full, challenged, challengers = _affected(kb, old, kb.typing_kernel)
        kb.dirty_instances.update(full)
        challenged -= kb.dirty_instances
    kb.dirty_properties.clear()
    kernel = kb.typing_kernel
    # The kernel's result per (interned set, incumbent, kept): kept is the
    # stored type_score for a challenge and None for a full decide.
    memo: dict[tuple, tuple[str | None, float]] = {}
    decisions: list[TypingDecision] = []
    for ikey in sorted(kb.dirty_instances | challenged):
        rec = kb.instances[ikey]
        props = rec.properties
        if not props:
            continue
        previous = rec.assigned_type
        kept = rec.type_score if ikey in challenged else None
        key = (props, previous, kept)
        result = memo.get(key)
        if result is None:
            if kept is None:
                result = kernel.decide(props, previous)
            else:
                result = kernel.challenge(props, previous, kept, challengers)
            memo[key] = result
        chosen, score = result
        rec.type_score = score
        if chosen != previous:
            kb.set_type(ikey, chosen)
        decisions.append(TypingDecision(ikey, previous, chosen, score))
    # Types set just above follow from stable decisions: nothing to rescore.
    kb.dirty_instances.clear()
    return decisions
