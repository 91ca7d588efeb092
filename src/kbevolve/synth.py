"""Synthetic knowledge bases with planted class signatures, and accuracy
measurement against the generated ground truth.

The generator builds a two-level hierarchy (root plus leaves). Each leaf
class owns a set of unique signature properties; shared properties get a
domain on every class, the root included, so their inverse domain
frequency is exactly zero. Instances carry signature properties with
probability 1 - noise_rate and shared properties with probability 0.9;
a deterministic fraction per class omits the type assertion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from kbevolve.errors import ConfigError, ConsistencyError
from kbevolve.kb import (
    OWL_THING,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_SUBCLASSOF,
    UNCLASSIFIED_LABEL,
    KnowledgeBase,
)
from kbevolve.ntriples import Triple, iri, literal

CLASS_NS = "http://synth.example/class/"
PROP_NS = "http://synth.example/prop/"
INST_NS = "http://synth.example/inst/"

SHARED_CARRY_PROBABILITY = 0.9


@dataclass(frozen=True)
class SynthSpec:
    class_count: int
    signature_properties_per_class: int
    shared_properties: int
    instances_per_class: int
    hidden_type_fraction: float
    noise_rate: float
    seed: int

    def __post_init__(self):
        if self.class_count < 1:
            raise ConfigError("class_count must be >= 1")
        if self.signature_properties_per_class < 1:
            raise ConfigError("signature_properties_per_class must be >= 1")
        if self.shared_properties < 0:
            raise ConfigError("shared_properties must be >= 0")
        if self.instances_per_class < 1:
            raise ConfigError("instances_per_class must be >= 1")
        if not 0.0 <= self.hidden_type_fraction <= 1.0:
            raise ConfigError("hidden_type_fraction must be in [0, 1]")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ConfigError("noise_rate must be in [0, 1)")


@dataclass
class GroundTruth:
    true_classes: dict[str, str] = field(default_factory=dict)
    signatures: dict[str, set[str]] = field(default_factory=dict)
    hidden: set[str] = field(default_factory=set)


def generate_kb(spec: SynthSpec) -> tuple[list[Triple], list[Triple], GroundTruth]:
    """Build (schema triples, instance triples, ground truth).

    Identical specs (same seed included) produce byte-identical triple
    lists. Instance blocks are shuffled so batches mix classes. The truth's
    hidden set holds the instances emitted without a type assertion, each
    the subject of at least one triple.
    """
    rng = random.Random(spec.seed)
    classes = [f"{CLASS_NS}C{k:03d}" for k in range(spec.class_count)]
    signatures = {
        cls: [f"{PROP_NS}sig_c{k:03d}_p{m:02d}" for m in range(spec.signature_properties_per_class)]
        for k, cls in enumerate(classes)
    }
    shared = [f"{PROP_NS}shared_p{m:02d}" for m in range(spec.shared_properties)]

    schema: list[Triple] = []
    for cls in classes:
        schema.append(Triple(iri(cls), iri(RDFS_SUBCLASSOF), iri(OWL_THING)))
    for cls in classes:
        for prop in signatures[cls]:
            schema.append(Triple(iri(prop), iri(RDFS_DOMAIN), iri(cls)))
    for prop in shared:
        schema.append(Triple(iri(prop), iri(RDFS_DOMAIN), iri(OWL_THING)))
        for cls in classes:
            schema.append(Triple(iri(prop), iri(RDFS_DOMAIN), iri(cls)))

    truth = GroundTruth(signatures={cls: set(props) for cls, props in signatures.items()})
    hidden_per_class = int(spec.hidden_type_fraction * spec.instances_per_class + 0.5)
    value = literal("x")
    blocks: list[list[Triple]] = []
    for k, cls in enumerate(classes):
        for i in range(spec.instances_per_class):
            inst = f"{INST_NS}c{k:03d}_i{i:03d}"
            truth.true_classes[inst] = cls
            is_hidden = i < hidden_per_class
            rows: list[Triple] = []
            for prop in signatures[cls]:
                if rng.random() < 1.0 - spec.noise_rate:
                    rows.append(Triple(iri(inst), iri(prop), value))
            for prop in shared:
                if rng.random() < SHARED_CARRY_PROBABILITY:
                    rows.append(Triple(iri(inst), iri(prop), value))
            if not is_hidden:
                rows.append(Triple(iri(inst), iri(RDF_TYPE), iri(cls)))
            elif rows:  # noise can drop every triple; such an instance never reaches the KB
                truth.hidden.add(inst)
            blocks.append(rows)
    rng.shuffle(blocks)
    instance_triples = [t for block in blocks for t in block]
    return schema, instance_triples, truth


def evaluate_accuracy(
    kb: KnowledgeBase, truth: GroundTruth
) -> tuple[float, dict[tuple[str, str], int]]:
    """Fraction of hidden-typed instances with at least one property whose
    assigned type matches the truth, plus (true, assigned) confusion counts."""
    correct = total = 0
    confusion: dict[tuple[str, str], int] = {}
    for inst in sorted(truth.hidden):
        rec = kb.instances.get(inst)
        if rec is None:
            raise ConsistencyError(f"ground-truth instance missing from kb: {inst}")
        if not rec.properties:
            continue
        total += 1
        true_cls = truth.true_classes[inst]
        assigned = rec.assigned_type if rec.assigned_type is not None else UNCLASSIFIED_LABEL
        key = (true_cls, assigned)
        confusion[key] = confusion.get(key, 0) + 1
        if assigned == true_cls:
            correct += 1
    accuracy = correct / total if total else 0.0
    return accuracy, confusion
