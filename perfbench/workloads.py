"""Seeded input generation for the benchmark workloads.

Every workload starts from ``kbevolve.synth.generate_kb`` (5 signature and
3 shared properties per class, 50% hidden types, 10% noise) and is then
altered here:

- ``stream``: the synthetic KB unchanged, read in 16 batches, typed with
  pfidf. Typing re-scores the whole KB every round, and the complete schema
  leaves generalization nothing to write.
- ``drift``: the schema loses 3 of the 5 signature domains of each class,
  and each class gets one "fad" property that only the first 10% of the
  stream carries. Generalization has to re-learn the removed domains and
  later drop the fad ones, so domain changes invalidate typing scores.
  Instances arrive round-robin over classes, which keeps the number of
  rounds, and so the work, nearly the same from seed to seed.
- ``bulk``: one batch, typed with naive counting, with hostile lines mixed
  in at fixed rates, so that parsing dominates.

``generate`` writes the schema and instance files the program reads, the
ground truth, and a manifest of what a correct run must report about them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from kbevolve.kb import OWL_THING, RDF_TYPE, RDFS_DOMAIN, RDFS_SUBCLASSOF
from kbevolve.ntriples import Triple, TermKind, iri, literal, triple_to_line
from kbevolve.synth import PROP_NS, SynthSpec, generate_kb

OWL_CLASS = "http://www.w3.org/2002/07/owl#Class"
RDF_PROPERTY = "http://www.w3.org/1999/02/22-rdf-syntax-ns#Property"
XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
EXT_NS = "http://synth.example/ext/"
FOREIGN_NS = "http://synth.example/foreign/"

DRIFT_REMOVED_PER_CLASS = 3
FAD_STREAM_SHARE = 0.10
EXT_POOL = 500
FOREIGN_CLASSES = 5


@dataclass(frozen=True)
class Workload:
    classes: int
    instances_per_class: int
    method: str
    batches: int
    drift: bool = False
    hostile: bool = False


WORKLOADS = {
    "stream": Workload(classes=100, instances_per_class=6, method="pfidf", batches=16),
    "drift": Workload(classes=50, instances_per_class=8, method="cosine", batches=16, drift=True),
    "bulk": Workload(classes=10, instances_per_class=300, method="naive", batches=1, hostile=True),
}


# Hostile lines for `bulk`, injected after an instance triple with these
# probabilities (cumulative draw, so at most one injection per triple).
HOSTILE_RATES = (
    ("comment", 0.02),
    ("blank", 0.02),
    ("malformed", 0.03),
    ("uescape", 0.03),
    ("literal", 0.03),
    ("unknown_object", 0.02),
    ("foreign_type", 0.002),
    ("schema_vocab", 0.002),
)

# One template per parser error category: (category, line), where {s} and
# {p} are the N-Triples forms of a real subject and predicate.
MALFORMED = (
    ("bad escape", '{s} {p} "bad \\q escape" .'),
    ("unterminated iri", "{s} {p} <http://synth.example/no-close ."),
    ("bad iri", "{s} {p} <http://synth.example/has space> ."),
    ("unterminated literal", '{s} {p} "never closed .'),
    ("bad datatype", '{s} {p} "v"^^xsd:string .'),
    ("bad language tag", '{s} {p} "v"@-en .'),
    ("missing subject", " . "),
    ("missing predicate", "{s} ."),
    ("missing object", "{s} {p} ."),
    ("literal in subject position", '"lit" {p} "o" .'),
    ("bad predicate", '{s} _:b "o" .'),
    ("bad blank node", "{s} {p} _:! ."),
    ("bad subject", 'x {p} "o" .'),
    ("bad object", "{s} {p} 42 ."),
    ("missing dot", '{s} {p} "o"'),
    ("trailing garbage", '{s} {p} "o" . extra'),
)

LITERAL_VARIANTS = (
    '"x"@en',
    '"x"@en-GB',
    f'"x"^^<{XSD_STRING}>',
    '"a\\"b\\\\c\\nd\\te\\u00e9\\U0001F600"',
    '"x" . # trailing comment',
)


def _escape_iri(value: str, rng: random.Random) -> str:
    """Spell an IRI with some characters as \\u / \\U escapes."""
    out = []
    for k, c in enumerate(value):
        if k == 0 or rng.random() < 0.2:
            out.append(f"\\u{ord(c):04X}" if rng.random() < 0.7 else f"\\U{ord(c):08X}")
        else:
            out.append(c)
    return "<" + "".join(out) + ">"


def _hostile_line(kind: str, t: Triple, rng: random.Random) -> tuple[str, str | None]:
    """One injected line derived from instance triple t, and its parse
    category: None for a well-formed triple, "skip" for a skipped line,
    otherwise the expected error category."""
    s, p = f"<{t.subject.value}>", f"<{t.predicate.value}>"
    if kind == "comment":
        return ("# injected comment" if rng.random() < 0.5 else "\t  # indented comment"), "skip"
    if kind == "blank":
        return ("" if rng.random() < 0.5 else " \t "), "skip"
    if kind == "malformed":
        category, template = MALFORMED[rng.randrange(len(MALFORMED))]
        return template.format(s=s, p=p), category
    if kind == "uescape":
        obj = t.object
        o = f"<{obj.value}>" if obj.kind is TermKind.IRI else '"x"'
        return f"{_escape_iri(t.subject.value, rng)} {p} {o} .", None
    if kind == "literal":
        return f"{s} {p} {LITERAL_VARIANTS[rng.randrange(len(LITERAL_VARIANTS))]} .", None
    if kind == "unknown_object":
        return f"{s} {p} <{EXT_NS}e{rng.randrange(EXT_POOL):04d}> .", None
    if kind == "foreign_type":
        return f"{s} <{RDF_TYPE}> <{FOREIGN_NS}F{rng.randrange(FOREIGN_CLASSES)}> .", None
    if rng.random() < 0.5:
        return f"{p} <{RDF_TYPE}> <{RDF_PROPERTY}> .", None
    return f"{s} <{RDF_TYPE}> <{OWL_CLASS}> .", None


def _blocks(triples: list[Triple]) -> list[list[Triple]]:
    """Split the generator's output into its per-instance blocks."""
    blocks: list[list[Triple]] = []
    for t in triples:
        if blocks and blocks[-1][0].subject == t.subject:
            blocks[-1].append(t)
        else:
            blocks.append([t])
    return blocks


def _interleave(blocks: list[list[Triple]], true_classes: dict[str, str]) -> list[list[Triple]]:
    """Round-robin the classes, keeping the seeded order within each class,
    so that every batch carries about the same number of each class."""
    by_class: dict[str, list[list[Triple]]] = {}
    for block in blocks:
        by_class.setdefault(true_classes[block[0].subject.value], []).append(block)
    queues = list(by_class.values())
    out = []
    for k in range(max(len(q) for q in queues)):
        out.extend(q[k] for q in queues if k < len(q))
    return out


def generate(name: str, seed: int, out_dir: Path, *, small: bool = False) -> dict:
    """Write schema.nt, instances.nt, truth.json and manifest.json into
    out_dir and return the manifest."""
    w = WORKLOADS[name]
    if small:  # the smoke test's size: a worker takes a fraction of a second
        w = replace(w, classes=min(w.classes, 6), instances_per_class=8)
    spec = SynthSpec(
        class_count=w.classes,
        signature_properties_per_class=5,
        shared_properties=3,
        instances_per_class=w.instances_per_class,
        hidden_type_fraction=0.5,
        noise_rate=0.1,
        seed=seed,
    )
    schema, instances, truth = generate_kb(spec)
    rng = random.Random(f"{name}:{seed}")
    removed: list[list[str]] = []
    fad: list[str] = []

    if w.drift:
        classes = sorted(truth.signatures)
        dropped = set()
        for cls in classes:
            for prop in rng.sample(sorted(truth.signatures[cls]), DRIFT_REMOVED_PER_CLASS):
                dropped.add((prop, cls))
                removed.append([cls, prop])
        schema = [
            t
            for t in schema
            if not (t.predicate.value == RDFS_DOMAIN and (t.subject.value, t.object.value) in dropped)
        ]
        fad_of = {cls: f"{PROP_NS}fad_c{k:03d}" for k, cls in enumerate(classes)}
        fad = sorted(fad_of.values())
        blocks = _interleave(_blocks(instances), truth.true_classes)
        early = int(len(blocks) * FAD_STREAM_SHARE)
        for block in blocks[:early]:
            cls = truth.true_classes[block[0].subject.value]
            block.append(Triple(block[0].subject, iri(fad_of[cls]), literal("x")))
        instances = [t for block in blocks for t in block]

    lines: list[str] = []
    skipped = 0
    error_lines: dict[str, str] = {}
    for t in instances:
        lines.append(triple_to_line(t))
        if not w.hostile or t.predicate.value == RDF_TYPE:
            continue
        u = rng.random()
        for kind, rate in HOSTILE_RATES:
            if u >= rate:
                u -= rate
                continue
            line, category = _hostile_line(kind, t, rng)
            lines.append(line)
            if category == "skip":
                skipped += 1
            elif category is not None:
                error_lines[str(len(lines))] = category
            break

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "schema.nt", "w", encoding="utf-8", newline="") as fh:
        fh.writelines(triple_to_line(t) + "\n" for t in schema)
    with open(out_dir / "instances.nt", "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + "\n" for line in lines)
    with open(out_dir / "truth.json", "w", encoding="utf-8") as fh:
        json.dump({"true_classes": truth.true_classes, "hidden": sorted(truth.hidden)}, fh)

    errors_by_category: dict[str, int] = {}
    for category in error_lines.values():
        errors_by_category[category] = errors_by_category.get(category, 0) + 1
    manifest = {
        "workload": name,
        "seed": seed,
        "method": w.method,
        "batch_lines": -(-len(lines) // w.batches),
        "lines": len(lines),
        "triples": len(lines) - skipped - len(error_lines),
        "skipped": skipped,
        "errors": len(error_lines),
        "errors_by_category": dict(sorted(errors_by_category.items())),
        "error_lines": error_lines,
        "removed_domains": removed,
        "fad_properties": fad,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest


# Inputs of the known-defect probes that `bulk` runs through the CLI.
PROBE_SCHEMA = (
    f"<http://probe.example/C1> <{RDFS_SUBCLASSOF}> <{OWL_THING}> .\n"
    f"<http://probe.example/p> <{RDFS_DOMAIN}> <http://probe.example/C1> .\n"
)
PROBE_BAD_ENCODING = (
    b'<http://probe.example/i1> <http://probe.example/p> "a" .\n'
    b'<http://probe.example/i2> <http://probe.example/p> "\xff\xfe" .\n'
    b'<http://probe.example/i3> <http://probe.example/p> "c" .\n'
)
PROBE_SCHEMA_IN_DATA = (
    '<http://probe.example/i1> <http://probe.example/p> "a" .\n'
    f"<http://probe.example/i2> <{RDFS_DOMAIN}> <http://probe.example/C1> .\n"
    f"<http://probe.example/C2> <{RDFS_SUBCLASSOF}> <http://probe.example/C1> .\n"
).encode("utf-8")
