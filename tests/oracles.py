"""Per-pair reference scorers, the dense typing pass, the full-scan
generalization pass, and the character-walking N-Triples line parser.

This is the typing code kbevolve ran before its three methods shared one
sparse kernel: one (property, domain) count table or one pair of profile
vectors per (instance, class), and a pass that scores every instance
against every class. The generalization pass is the one kbevolve ran
before its passes kept dirty sets: it evaluates every class with direct
instances, counts its support with its own code once to add and again to
drop, and scans the whole property table for the class's generalized
domains, writing the domain table directly. Neither reads nor updates the
KB's incremental state. ``oracle_affected`` finds the instances a domain
write can affect by comparing two typing kernels' whole tables.
``oracle_evolve_audits`` replays ``evolve``'s batch and round loop with the
two passes and writes both audits from what they return.
``oracle_add_instance_triples`` is the row-by-row ingest kbevolve ran
before it read a batch per subject.
``property_support`` and the two coverage scans recount what the KB keeps
as counters. The tests compare ``kbevolve.type_inference``,
``kbevolve.generalization``, the coverage functions and ``evolve``'s audits
against them for exact equality, and ``kbevolve.ntriples.parse_ntriple_line``
against ``oracle_parse_line``.
"""

from __future__ import annotations

import csv
import io
import math
import re
import string
from dataclasses import dataclass, field

from helpers import _instance_record
from kbevolve.errors import ParseError, UnknownEntityError
from kbevolve.evolution import (
    DOMAIN_AUDIT_COLUMNS,
    TYPING_AUDIT_COLUMNS,
    CoverageStats,
    DomainCoverageStats,
    EvolutionConfig,
)
from kbevolve.generalization import (
    ACTION_ADDED,
    ACTION_REMOVED,
    DomainChange,
    ThresholdPolicy,
    generalization_threshold,
)
from kbevolve.kb import (
    OWL_THING,
    PROV_GENERALIZED,
    RDF_TYPE,
    UNCLASSIFIED_LABEL,
    InstanceRecord,
    KnowledgeBase,
    PropertyRecord,
)
from kbevolve.ntriples import Term, TermKind, Triple, read_batch
from kbevolve.type_inference import (
    METHOD_COSINE,
    METHOD_NAIVE,
    METHODS,
    TypingDecision,
    _Kernel,
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
        return TypingDecision(instance_iri, prev, prev, 0.0)
    best = _pick_best(kb, candidates)
    if prev is not None and candidates.get(prev, 0.0) >= candidates[best]:
        chosen = prev
    else:
        chosen = best
    score = candidates.get(chosen, 0.0) / table.total()
    return TypingDecision(instance_iri, prev, chosen, score)


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
                decisions.append(TypingDecision(ikey, prev, prev, 0.0))
                continue
            best = _pick_best(kb, scores)
            if prev is None or scores[best] > scores.get(prev, 0.0):
                chosen = best
            else:
                chosen = prev
            decisions.append(TypingDecision(ikey, prev, chosen, scores.get(chosen, 0.0)))
    for decision in decisions:
        if decision.chosen != decision.previous:
            kb.set_type(decision.instance, decision.chosen)
    return decisions


def oracle_affected(kb: KnowledgeBase, old: _Kernel, new: _Kernel) -> set[str]:
    """The instances whose decision or score can differ between two kernels
    of one method, old built before and new after some domain writes, which
    ``_Kernel.refresh`` must return for those writes. It compares every
    table entry and class norm of two whole builds, not only those of the
    properties whose domains changed."""
    users = kb.property_users
    affected: set[str] = set()
    for prop in old.table.keys() | new.table.keys():
        if old.table.get(prop) != new.table.get(prop):
            affected.update(users.get(prop, ()))
    if new.norms is None:
        return affected
    fell: set[str] = set()
    for cls in old.norms.keys() | new.norms.keys():
        before, after = old.norms.get(cls, 0.0), new.norms.get(cls, 0.0)
        if before != after:
            affected.update(kb.direct_instance_index.get(cls, ()))
            if after < before and cls != OWL_THING:
                fell.add(cls)
    for prop, (_, domains) in new.table.items():
        if not fell.isdisjoint(domains):
            affected.update(users.get(prop, ()))
    return affected


def oracle_add_instance_triples(kb: KnowledgeBase, rows) -> None:
    """The row-by-row ingest kbevolve ran before it read a batch per
    subject: every row looks up its subject's record and, when its
    predicate is new to the subject, updates property_users and the class
    counts at once. It writes the KB through the same set_type and intern
    table as add_instance_triples."""
    asserted: dict[str, str] = {}
    gained: dict[str, set[str]] = {}
    objects: list[str] = []
    for skey, pv, okey in rows:
        rec = kb.instances.get(skey)
        if rec is None:
            rec = kb.instances[skey] = InstanceRecord()
        elif rec.placeholder:
            rec.placeholder = False
            kb.placeholders -= 1
        if okey is not None:
            if pv == RDF_TYPE and okey in kb.classes:
                if okey != OWL_THING:
                    prev = asserted.get(skey)
                    asserted[skey] = okey if prev is None else kb.deeper_class(prev, okey)
                continue
            objects.append(okey)
        if pv not in rec.properties and pv not in gained.setdefault(skey, set()):
            gained[skey].add(pv)
            kb.property_users.setdefault(pv, []).append(skey)
            if rec.assigned_type is not None:
                counts = kb.class_property_counts[rec.assigned_type]
                counts[pv] = counts.get(pv, 0) + 1
        kb.properties.setdefault(pv, PropertyRecord())
    for skey, new in gained.items():
        rec = kb.instances[skey]
        if not new:
            continue
        if not rec.properties:
            kb.instances_with_properties += 1
            kb.classified_with_properties += rec.assigned_type is not None
        if rec.assigned_type is not None:
            kb.dirty_classes.add(rec.assigned_type)
        kb.dirty_instances.add(skey)
        rec.properties = kb._intern(rec.properties, tuple(sorted(new | set(rec.properties))))
    for skey, cls in sorted(asserted.items()):
        current = kb.instances[skey].assigned_type
        kb.set_type(skey, cls if current is None else kb.deeper_class(current, cls))
    for okey in objects:
        if okey not in kb.classes and okey not in kb.properties and okey not in kb.instances:
            kb.instances[okey] = InstanceRecord(placeholder=True)
            kb.placeholders += 1


@dataclass
class SupportStats:
    """Per-property support among a class's direct instances."""

    class_iri: str
    n: int
    per_property: dict[str, tuple[int, float]] = field(default_factory=dict)


def property_support(kb: KnowledgeBase, class_iri: str) -> SupportStats:
    instances = kb.direct_instances(class_iri)
    n = len(instances)
    counts: dict[str, int] = {}
    for ikey in instances:
        for prop in kb.instances[ikey].properties:
            counts[prop] = counts.get(prop, 0) + 1
    per_property = {prop: (c, c / n) for prop, c in counts.items()} if n else {}
    return SupportStats(class_iri, n, per_property)


def oracle_classification_coverage(kb: KnowledgeBase) -> CoverageStats:
    """classification_coverage by a scan of every instance record."""
    total = len(kb.instances)
    with_properties = classified = classified_with_properties = placeholder = 0
    for rec in kb.instances.values():
        if rec.properties:
            with_properties += 1
        if rec.assigned_type is not None:
            classified += 1
            if rec.properties:
                classified_with_properties += 1
        if rec.placeholder:
            placeholder += 1
    defined = with_properties > 0
    ratio = classified_with_properties / with_properties if defined else 0.0
    return CoverageStats(
        total, with_properties, classified, classified_with_properties, placeholder, ratio, defined
    )


def oracle_property_domain_ratio(kb: KnowledgeBase) -> DomainCoverageStats:
    """property_domain_ratio by a scan of the property table."""
    total = len(kb.properties)
    with_domain = sum(1 for rec in kb.properties.values() if rec.domains)
    defined = total > 0
    ratio = with_domain / total if defined else 0.0
    return DomainCoverageStats(total, with_domain, ratio, defined)


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
    """Generalize then delete for every class with direct instances, in
    class_rank order (every class before its ancestors)."""
    changes: list[DomainChange] = []
    for class_iri in sorted(kb.classes, key=kb.class_rank.__getitem__):
        if not kb.direct_instance_index.get(class_iri):
            continue
        changes.extend(_oracle_generalize(kb, class_iri))
        if deletion_enabled:
            changes.extend(_oracle_delete(kb, class_iri, policy))
    return changes


def oracle_evolve_audits(kb: KnowledgeBase, lines: list[str], config: EvolutionConfig) -> tuple[str, str]:
    """The typing and domain audits of ``evolve`` over lines, replayed with
    the oracle passes on kb: per round, one domain row per change and one
    typing row per decision of the dense pass."""
    typing_audit, domain_audit = io.StringIO(), io.StringIO()
    typing_writer, domain_writer = csv.writer(typing_audit), csv.writer(domain_audit)
    typing_writer.writerow(TYPING_AUDIT_COLUMNS)
    domain_writer.writerow(DOMAIN_AUDIT_COLUMNS)
    source = iter(lines)
    while True:
        rows, parse_report = read_batch(source, config.batch_lines)
        if parse_report.lines_read == 0:
            break
        kb.add_instance_triples(rows)
        for _ in range(config.max_inner_rounds):
            changes = oracle_generalization_pass(kb, config.policy, deletion_enabled=config.deletion_enabled)
            decisions = oracle_assign_types(kb, config.method)
            for c in changes:
                domain_writer.writerow(
                    (c.class_iri, c.property_iri, c.action, repr(c.support_ratio), repr(c.threshold))
                )
            for d in decisions:
                typing_writer.writerow(
                    (
                        d.instance,
                        d.previous or UNCLASSIFIED_LABEL,
                        d.chosen or UNCLASSIFIED_LABEL,
                        repr(d.score),
                        config.method,
                    )
                )
            if not changes and all(d.chosen == d.previous for d in decisions):
                break
    return typing_audit.getvalue(), domain_audit.getvalue()


# The N-Triples line parser kbevolve ran before its term bodies were scanned
# by regexes: a character walker that decodes one escape at a time. It
# differs from that walker in requiring hex digits in \u and \U escapes
# (``int(digits, 16)`` also took a sign, spaces, underscores and ``0x``), and
# in rejecting the IRI characters ``Term`` rejects: U+0000 to U+0020, ``<``,
# ``>`` and ``\`` (the walker rejected only the space, tab, ``<`` and ``>``).

_HEX_DIGITS = set(string.hexdigits)
_IRI_FORBIDDEN = frozenset(map(chr, range(0x21))) | set("<>\\")
# Lone surrogates: how a file opened with errors="surrogateescape" carries
# bytes that are not UTF-8.
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")
_BLANK_LABEL_RE = re.compile(r"[A-Za-z0-9_-]+")
_LANG_TAG_RE = re.compile(r"[A-Za-z]+(?:-[A-Za-z0-9]+)*\Z")
_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _err(text: str, pos: int, category: str, detail: str = "") -> ParseError:
    return ParseError(category, _byte_offset(text, pos), detail)


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i] in " \t":
        i += 1
    return i


def _decode_uchar(text: str, i: int) -> tuple[str, int]:
    """Decode one \\uXXXX or \\UXXXXXXXX at text[i] (a backslash)."""
    marker = text[i + 1 : i + 2]
    width = 4 if marker == "u" else 8 if marker == "U" else 0
    if not width:
        raise _err(text, i, "bad escape")
    digits = text[i + 2 : i + 2 + width]
    if len(digits) != width or not _HEX_DIGITS.issuperset(digits):
        raise _err(text, i, "bad escape")
    code = int(digits, 16)
    if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
        raise _err(text, i, "bad escape", "invalid code point")
    return chr(code), i + 2 + width


def _read_iri(text: str, i: int) -> tuple[str, int]:
    end = text.find(">", i + 1)
    if end < 0:
        raise _err(text, i, "unterminated iri")
    raw = text[i + 1 : end]
    if "\\" in raw:
        out: list[str] = []
        k = i + 1
        while k < end:
            if text[k] == "\\":
                decoded, k = _decode_uchar(text, k)
                out.append(decoded)
            else:
                out.append(text[k])
                k += 1
        raw = "".join(out)
    if not raw or raw.startswith("_:") or not _IRI_FORBIDDEN.isdisjoint(raw):
        raise _err(text, i, "bad iri")
    return raw, end + 1


def _read_literal(text: str, i: int) -> tuple[Term, int]:
    out: list[str] = []
    k = i + 1
    while k < len(text) and text[k] != '"':
        if text[k] == "\\":
            esc = text[k + 1 : k + 2]
            if esc in _ECHAR:
                out.append(_ECHAR[esc])
                k += 2
            else:
                decoded, k = _decode_uchar(text, k)
                out.append(decoded)
        else:
            out.append(text[k])
            k += 1
    if k == len(text):
        raise _err(text, i, "unterminated literal")
    value = "".join(out)
    k += 1
    language = datatype = None
    if text[k : k + 2] == "^^":
        if text[k + 2 : k + 3] != "<":
            raise _err(text, k, "bad datatype")
        datatype, k = _read_iri(text, k + 2)
    elif text[k : k + 1] == "@":
        m = re.compile(r"[A-Za-z0-9-]*").match(text, k + 1)
        tag = m.group() if m else ""
        if not _LANG_TAG_RE.match(tag):
            raise _err(text, k, "bad language tag")
        language = tag
        k += 1 + len(tag)
    return Term(TermKind.LITERAL, value, language, datatype), k


def _read_term(text: str, i: int, role: str) -> tuple[Term, int]:
    if i == len(text) or text[i] == ".":
        raise _err(text, i, f"missing {role}")
    ch = text[i]
    if ch == '"' and role == "subject":
        raise _err(text, i, "literal in subject position")
    if role == "predicate" and ch != "<":
        raise _err(text, i, "bad predicate")
    if ch == "<":
        value, j = _read_iri(text, i)
        return Term(TermKind.IRI, value), j
    if ch == "_" and text[i + 1 : i + 2] == ":":
        m = _BLANK_LABEL_RE.match(text, i + 2)
        if m is None:
            raise _err(text, i, "bad blank node")
        return Term(TermKind.BLANK_NODE, text[i : m.end()]), m.end()
    if ch == '"':
        return _read_literal(text, i)
    raise _err(text, i, f"bad {role}")


def oracle_parse_line(line: str) -> Triple | None:
    """Parse one physical line.

    Returns a Triple for a well-formed statement, None for blank and
    comment lines, and raises ParseError (with byte offset and category)
    for anything else, including a line that holds a lone surrogate.
    """
    text = line.rstrip("\r\n")
    if not text.isascii():
        bad = _SURROGATE_RE.search(text)
        if bad is not None:
            raise _err(text, bad.start(), "bad encoding")
    i = _skip_ws(text, 0)
    if i == len(text) or text[i] == "#":
        return None
    subject, i = _read_term(text, i, "subject")
    i = _skip_ws(text, i)
    predicate, i = _read_term(text, i, "predicate")
    i = _skip_ws(text, i)
    obj, i = _read_term(text, i, "object")
    i = _skip_ws(text, i)
    if i == len(text) or text[i] != ".":
        raise _err(text, i, "missing dot")
    i = _skip_ws(text, i + 1)
    if i < len(text) and text[i] != "#":
        raise _err(text, i, "trailing garbage")
    return Triple(subject, predicate, obj)
