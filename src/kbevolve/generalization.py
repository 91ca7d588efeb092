"""Property-domain generalization and deletion from instance evidence.

One step per class: evaluate_class reads the per-property counts of the
class's N direct instances that the KB keeps (kb.class_property_counts),
generalizes every property whose support ratio reaches 1/(1 + log10 N) (the
class gains it as a domain), then drops every generalized domain whose
support fell below a hysteresis band (deletion_factor times that
threshold). Adding a domain cannot change support, so the same counts feed
both rules. Schema-asserted domains are never deleted. A pass evaluates
exactly the classes the KB marked dirty, in kb.class_rank order (every
class before its ancestors), after marking every class dirty when the
policy or the deletion switch changed: a class's outcome depends only on
those settings and its own direct instances and domain entries.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from kbevolve.kb import PROV_GENERALIZED, KnowledgeBase
from kbevolve.record import checked_make

ACTION_ADDED = "added"
ACTION_REMOVED = "removed"


def generalization_threshold(n: int) -> float:
    """Support ratio required to generalize for a class with n direct
    instances: 1/(1 + log10 n). Undefined for n < 1."""
    if n < 1:
        raise ValueError("threshold undefined for a class with no direct instances")
    return 1.0 / (1.0 + math.log10(n))


class _PolicyFields(NamedTuple):
    deletion_factor: float = 0.5


class ThresholdPolicy(_PolicyFields):
    """Generalization ratio plus the deletion hysteresis factor.

    deletion_factor scales the generalization threshold downward so
    borderline properties do not oscillate between add and delete;
    1.0 recovers symmetric thresholds.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.deletion_factor <= 1.0:
            raise ValueError("deletion_factor must be in (0, 1]")
        return self

    _make = classmethod(checked_make)

    def deletion_threshold(self, n: int) -> float:
        return self.deletion_factor * generalization_threshold(n)


class DomainChange(NamedTuple):
    class_iri: str
    property_iri: str
    action: str
    support_ratio: float
    threshold: float


def evaluate_class(
    kb: KnowledgeBase, class_iri: str, policy: ThresholdPolicy, *, deletion_enabled: bool = True
) -> list[DomainChange]:
    """Generalize, then drop, the domains of one class.

    Reads the KB's counts of the properties of the class's direct
    instances. Adds the class as a generalized domain of every property
    whose support ratio reaches the generalization threshold; with
    deletion enabled, then drops every generalized domain of the class
    whose ratio is below the deletion threshold. Schema-provenance domains
    stay, and a class with no direct instances changes nothing.
    """
    n = len(kb.direct_instances(class_iri))
    if n == 0:
        return []
    counts = kb.class_property_counts[class_iri]
    threshold = generalization_threshold(n)
    changes: list[DomainChange] = []
    for prop in sorted(counts):
        ratio = counts[prop] / n
        if ratio >= threshold and class_iri not in kb.properties[prop].domains:
            kb.add_domain(prop, class_iri, PROV_GENERALIZED)
            changes.append(DomainChange(class_iri, prop, ACTION_ADDED, ratio, threshold))
    if deletion_enabled:
        threshold = policy.deletion_threshold(n)
        for prop in sorted(kb.generalized_index.get(class_iri, ())):
            ratio = counts.get(prop, 0) / n
            if ratio < threshold:
                kb.remove_domain(prop, class_iri)
                changes.append(DomainChange(class_iri, prop, ACTION_REMOVED, ratio, threshold))
    return changes


def run_generalization_pass(
    kb: KnowledgeBase, policy: ThresholdPolicy, *, deletion_enabled: bool = True
) -> list[DomainChange]:
    """Evaluate every dirty class with direct instances, in class_rank order.

    Each class is evaluated against the KB state current at its turn.
    With unchanged instance data the pass is idempotent: a second run
    returns an empty change list.
    """
    settings = (policy, deletion_enabled)
    if kb.generalized_with != settings:
        kb.dirty_classes.update(kb.classes)
        kb.generalized_with = settings
    changes: list[DomainChange] = []
    for class_iri in sorted(kb.dirty_classes, key=kb.class_rank.__getitem__):
        if kb.direct_instance_index.get(class_iri):
            changes.extend(evaluate_class(kb, class_iri, policy, deletion_enabled=deletion_enabled))
    # A class's own domain writes mark only itself, and it is now settled.
    kb.dirty_classes.clear()
    return changes
