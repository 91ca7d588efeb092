"""Property-domain generalization and deletion from instance evidence.

A class with N direct instances generalizes a property (gains it as a
domain) when the property's support ratio reaches 1/(1 + log10 N), and a
generalized domain is dropped when support falls below a hysteresis band
(deletion_factor times that threshold). Schema-asserted domains are never
deleted. A pass walks the class tree leaf-first and evaluates only the
classes the KB marked dirty since the last pass, or every class when the
policy or the deletion switch differs from the last pass: a class's
outcome depends only on its own direct instances and domain entries, so
a clean class would change nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from kbevolve.kb import PROV_GENERALIZED, KnowledgeBase

ACTION_ADDED = "added"
ACTION_REMOVED = "removed"


def generalization_threshold(n: int) -> float:
    """Support ratio required to generalize for a class with n direct
    instances: 1/(1 + log10 n). Undefined for n < 1."""
    if n < 1:
        raise ValueError("threshold undefined for a class with no direct instances")
    return 1.0 / (1.0 + math.log10(n))


@dataclass(frozen=True)
class ThresholdPolicy:
    """Generalization ratio plus the deletion hysteresis factor.

    deletion_factor scales the generalization threshold downward so
    borderline properties do not oscillate between add and delete;
    1.0 recovers symmetric thresholds.
    """

    deletion_factor: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.deletion_factor <= 1.0:
            raise ValueError("deletion_factor must be in (0, 1]")

    def deletion_threshold(self, n: int) -> float:
        return self.deletion_factor * generalization_threshold(n)


@dataclass
class SupportStats:
    """Per-property support among a class's direct instances."""

    class_iri: str
    n: int
    per_property: dict[str, tuple[int, float]] = field(default_factory=dict)


@dataclass(frozen=True)
class DomainChange:
    class_iri: str
    property_iri: str
    action: str
    support_ratio: float
    threshold: float


def property_support(kb: KnowledgeBase, class_iri: str) -> SupportStats:
    instances = kb.direct_instances(class_iri)
    n = len(instances)
    counts: dict[str, int] = {}
    for ikey in instances:
        for prop in kb.instances[ikey].properties:
            counts[prop] = counts.get(prop, 0) + 1
    per_property = {prop: (c, c / n) for prop, c in counts.items()} if n else {}
    return SupportStats(class_iri, n, per_property)


def generalize_properties(kb: KnowledgeBase, class_iri: str) -> list[DomainChange]:
    """Add the class as a (generalized) domain of every property whose
    support ratio reaches the threshold. Never removes anything."""
    stats = property_support(kb, class_iri)
    if stats.n == 0:
        return []
    threshold = generalization_threshold(stats.n)
    changes: list[DomainChange] = []
    for prop in sorted(stats.per_property):
        _, ratio = stats.per_property[prop]
        if ratio < threshold:
            continue
        if class_iri in kb.properties[prop].domains:
            continue
        kb.add_domain(prop, class_iri, PROV_GENERALIZED)
        changes.append(DomainChange(class_iri, prop, ACTION_ADDED, ratio, threshold))
    return changes


def delete_properties(
    kb: KnowledgeBase, class_iri: str, policy: ThresholdPolicy
) -> list[DomainChange]:
    """Drop the class from generalized domains whose support ratio fell
    below the deletion threshold. Schema-provenance domains stay; a class
    with no direct instances deletes nothing."""
    stats = property_support(kb, class_iri)
    if stats.n == 0:
        return []
    threshold = policy.deletion_threshold(stats.n)
    changes: list[DomainChange] = []
    for prop in sorted(kb.generalized_index.get(class_iri, ())):
        count_ratio = stats.per_property.get(prop)
        ratio = count_ratio[1] if count_ratio else 0.0
        if ratio < threshold:
            kb.remove_domain(prop, class_iri)
            changes.append(DomainChange(class_iri, prop, ACTION_REMOVED, ratio, threshold))
    return changes


def run_generalization_pass(
    kb: KnowledgeBase, policy: ThresholdPolicy, *, deletion_enabled: bool = True
) -> list[DomainChange]:
    """Generalize then delete for every dirty class, leaf-first.

    Support statistics are computed against the KB state current at each
    class's turn. Classes with no direct instances are skipped. With
    unchanged instance data the pass is idempotent: a second run returns
    an empty change list.
    """
    settings = (policy, deletion_enabled)
    evaluate_all = kb.generalized_with != settings
    changes: list[DomainChange] = []
    for class_iri in kb.leaf_first_order():
        if not (evaluate_all or class_iri in kb.dirty_classes):
            continue
        if not kb.direct_instance_index.get(class_iri):
            continue
        changes.extend(generalize_properties(kb, class_iri))
        if deletion_enabled:
            changes.extend(delete_properties(kb, class_iri, policy))
    # A class's own domain writes mark only itself, and it is now settled.
    kb.dirty_classes.clear()
    kb.generalized_with = settings
    return changes
