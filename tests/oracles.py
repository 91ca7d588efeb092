"""Per-pair reference scorers, the dense typing pass, and the full-scan
generalization pass.

This is the typing code kbevolve ran before its three methods shared one
sparse kernel: one (property, domain) count table or one pair of profile
vectors per (instance, class), and a pass that scores every instance
against every class. The generalization pass is the one kbevolve ran
before its passes kept dirty sets: it evaluates every class with direct
instances and scans the whole property table for the class's generalized
domains, writing the domain table directly. Neither reads nor updates the
KB's incremental state. The tests compare ``kbevolve.type_inference`` and
``kbevolve.generalization`` against them for exact equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from kbevolve.errors import UnknownEntityError
from kbevolve.generalization import (
    ACTION_ADDED,
    ACTION_REMOVED,
    DomainChange,
    ThresholdPolicy,
    generalization_threshold,
    property_support,
)
from kbevolve.kb import OWL_THING, PROV_GENERALIZED, KnowledgeBase
from kbevolve.type_inference import (
    METHOD_COSINE,
    METHOD_NAIVE,
    METHODS,
    TypingDecision,
    _instance_record,
    idf_weight,
)


@dataclass
class DomainCountTable:
    """Counts of (property, domain) pairs contributed by one instance."""

    instance: str
    entries: dict[str, int] = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.entries.values())


@dataclass
class InstanceProfile:
    instance: str
    vector: dict[str, float] = field(default_factory=dict)


@dataclass
class TypeProfile:
    class_iri: str
    vector: dict[str, float] = field(default_factory=dict)
    weighting: str = "binary"


def domain_frequency(kb: KnowledgeBase, instance_iri: str) -> DomainCountTable:
    """Count one hit per (property, domain) pair over the instance's
    property set; properties without domains contribute nothing."""
    rec = _instance_record(kb, instance_iri)
    entries: dict[str, int] = {}
    for prop in rec.properties:
        record = kb.properties.get(prop)
        if record is None:
            continue
        for dom in record.domains:
            entries[dom] = entries.get(dom, 0) + 1
    return DomainCountTable(instance_iri, entries)


def _pick_best(kb: KnowledgeBase, scores: dict[str, float]) -> str:
    """Argmax with ties going to the deeper class, then the smaller IRI."""
    best = ""
    best_score = -1.0
    best_depth = -1
    for cls in sorted(scores):
        score, depth = scores[cls], kb.classes[cls].depth
        if score > best_score or (score == best_score and depth > best_depth):
            best, best_score, best_depth = cls, score, depth
    return best


def oracle_naive_assign(kb: KnowledgeBase, instance_iri: str) -> TypingDecision:
    """Choose the class with the most pair hits.

    The incumbent type is kept unless strictly beaten. The reported score
    is the chosen class's count over the total pair count (a reporting
    normalization only).
    """
    table = domain_frequency(kb, instance_iri)
    prev = kb.instances[instance_iri].assigned_type
    candidates = {cls: float(n) for cls, n in table.entries.items() if cls != OWL_THING}
    if not candidates:
        return TypingDecision(instance_iri, prev, prev, 0.0, METHOD_NAIVE)
    best = _pick_best(kb, candidates)
    if prev is not None and candidates.get(prev, 0.0) >= candidates[best]:
        chosen = prev
    else:
        chosen = best
    score = candidates.get(chosen, 0.0) / table.total()
    return TypingDecision(instance_iri, prev, chosen, score, METHOD_NAIVE)


def build_instance_profile(kb: KnowledgeBase, instance_iri: str) -> InstanceProfile:
    rec = _instance_record(kb, instance_iri)
    return InstanceProfile(instance_iri, {prop: 1.0 for prop in sorted(rec.properties)})


def build_type_profile(kb: KnowledgeBase, class_iri: str, weighting: str = "binary") -> TypeProfile:
    """Profile over the properties whose domains contain the class;
    idf-weighted entries that weigh zero are dropped."""
    if class_iri not in kb.classes:
        raise UnknownEntityError(f"unknown class: {class_iri}")
    vector: dict[str, float] = {}
    for prop in sorted(kb.properties):
        if class_iri not in kb.properties[prop].domains:
            continue
        if weighting == "binary":
            vector[prop] = 1.0
        else:
            weight = idf_weight(kb, prop)
            if weight > 0.0:
                vector[prop] = weight
    return TypeProfile(class_iri, vector, weighting)


def cosine_score(type_profile: TypeProfile, instance_profile: InstanceProfile) -> float:
    """dot / (norm * norm), 0.0 when either vector is empty or zero."""
    tv, iv = type_profile.vector, instance_profile.vector
    if not tv or not iv:
        return 0.0
    small, large = (tv, iv) if len(tv) <= len(iv) else (iv, tv)
    dot = 0.0
    for key, weight in small.items():
        other = large.get(key)
        if other is not None:
            dot += weight * other
    if dot == 0.0:
        return 0.0
    norm_sq_t = sum(w * w for w in tv.values())
    norm_sq_i = sum(w * w for w in iv.values())
    # sqrt of the product keeps identical binary supports at exactly 1.0
    return min(1.0, dot / math.sqrt(norm_sq_t * norm_sq_i))


def _weighting(method: str) -> str:
    return "binary" if method == METHOD_COSINE else "pfidf"


def oracle_class_scores(kb: KnowledgeBase, instance_iri: str, method: str) -> dict[str, float]:
    """Every positive per-pair score of the instance against a non-root
    class: count over total hits for naive, profile cosine otherwise."""
    if method == METHOD_NAIVE:
        table = domain_frequency(kb, instance_iri)
        return {
            cls: float(n) / table.total() for cls, n in table.entries.items() if cls != OWL_THING
        }
    iprof = build_instance_profile(kb, instance_iri)
    scores = {
        cls: cosine_score(build_type_profile(kb, cls, _weighting(method)), iprof)
        for cls in sorted(kb.classes)
        if cls != OWL_THING
    }
    return {cls: score for cls, score in scores.items() if score > 0.0}


def oracle_assign_types(kb: KnowledgeBase, method: str) -> list[TypingDecision]:
    """The dense typing pass: every instance against every class profile."""
    if method not in METHODS:
        raise ValueError(f"unknown method: {method}")
    decisions: list[TypingDecision] = []
    if method == METHOD_NAIVE:
        for ikey in sorted(kb.instances):
            rec = kb.instances[ikey]
            if rec.placeholder or not rec.properties:
                continue
            decisions.append(oracle_naive_assign(kb, ikey))
    else:
        weighting = _weighting(method)
        profiles = {
            cls: build_type_profile(kb, cls, weighting)
            for cls in sorted(kb.classes)
            if cls != OWL_THING
        }
        for ikey in sorted(kb.instances):
            rec = kb.instances[ikey]
            if rec.placeholder or not rec.properties:
                continue
            iprof = build_instance_profile(kb, ikey)
            scores: dict[str, float] = {}
            for cls, tprof in profiles.items():
                score = cosine_score(tprof, iprof)
                if score > 0.0:
                    scores[cls] = score
            prev = rec.assigned_type
            if not scores:
                decisions.append(TypingDecision(ikey, prev, prev, 0.0, method))
                continue
            best = _pick_best(kb, scores)
            if prev is None or scores[best] > scores.get(prev, 0.0):
                chosen = best
            else:
                chosen = prev
            decisions.append(TypingDecision(ikey, prev, chosen, scores.get(chosen, 0.0), method))
    for decision in decisions:
        if decision.chosen != decision.previous:
            kb.set_type(decision.instance, decision.chosen)
    return decisions


def _oracle_generalize(kb: KnowledgeBase, class_iri: str) -> list[DomainChange]:
    stats = property_support(kb, class_iri)
    if stats.n == 0:
        return []
    threshold = generalization_threshold(stats.n)
    changes: list[DomainChange] = []
    for prop in sorted(stats.per_property):
        _, ratio = stats.per_property[prop]
        if ratio < threshold:
            continue
        record = kb.properties[prop]
        if class_iri in record.domains:
            continue
        record.domains[class_iri] = PROV_GENERALIZED
        changes.append(DomainChange(class_iri, prop, ACTION_ADDED, ratio, threshold))
    return changes


def _oracle_delete(
    kb: KnowledgeBase, class_iri: str, policy: ThresholdPolicy
) -> list[DomainChange]:
    stats = property_support(kb, class_iri)
    if stats.n == 0:
        return []
    threshold = policy.deletion_threshold(stats.n)
    changes: list[DomainChange] = []
    for prop in sorted(kb.properties):
        record = kb.properties[prop]
        if record.domains.get(class_iri) != PROV_GENERALIZED:
            continue
        count_ratio = stats.per_property.get(prop)
        ratio = count_ratio[1] if count_ratio else 0.0
        if ratio < threshold:
            del record.domains[class_iri]
            changes.append(DomainChange(class_iri, prop, ACTION_REMOVED, ratio, threshold))
    return changes


def oracle_generalization_pass(
    kb: KnowledgeBase, policy: ThresholdPolicy, *, deletion_enabled: bool = True
) -> list[DomainChange]:
    """Generalize then delete for every class with direct instances,
    leaf-first."""
    changes: list[DomainChange] = []
    for class_iri in kb.leaf_first_order():
        if not kb.direct_instance_index.get(class_iri):
            continue
        changes.extend(_oracle_generalize(kb, class_iri))
        if deletion_enabled:
            changes.extend(_oracle_delete(kb, class_iri, policy))
    return changes
