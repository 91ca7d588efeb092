"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

Derived expectations come from independent oracles computed inline:
set-based cosine brute force, direct log evaluation, raw-triple recounts,
and paired-seed comparisons.
"""

import io
import math
import random
import statistics
from contextlib import contextmanager

import pytest

from helpers import (
    EXPECTED_PRESIDENTIAL_COUNTS,
    KIM,
    PRESIDENT,
    class_scores,
    naive_assign,
    pfidf_score,
    presidential_kb,
)
from kbevolve.evolution import EvolutionConfig, evolve
from kbevolve.generalization import ThresholdPolicy, generalization_threshold, run_generalization_pass
from kbevolve.kb import OWL_THING, RDF_TYPE, RDFS_DOMAIN, RDFS_SUBCLASSOF, load_schema
from kbevolve.ntriples import iri, literal, read_batch, triple_to_line, Triple
from kbevolve.synth import SynthSpec, evaluate_accuracy, generate_kb
from kbevolve.type_inference import METHODS, assign_types, idf_weight
from oracles import InstanceProfile, TypeProfile, cosine_score, domain_frequency


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def evolve_synth(spec: SynthSpec, method: str, *, batch_lines: int | None = None, deletion=True):
    schema, instances, truth = generate_kb(spec)
    kb, leftover = load_schema(schema)
    assert leftover == []
    lines = [triple_to_line(t) + "\n" for t in instances]
    config = EvolutionConfig(
        batch_lines=batch_lines or max(1, len(lines)),
        method=method,
        deletion_enabled=deletion,
    )
    report = evolve(kb, iter(lines), config)
    return kb, truth, report, lines


def test_01_threshold_exactness():
    with criterion("criterion 01 threshold-exactness"):
        for n, expected in ((1, 1.0), (10, 0.5), (100, 1 / 3), (1000, 0.25)):
            assert abs(generalization_threshold(n) - expected) <= 1e-12


def kernel_cosine(type_support: set[str], instance_support: set[str]) -> float:
    """The production cosine of one class whose domains are type_support
    against one instance that carries instance_support."""
    cls, inst = "http://acc2/C", "http://acc2/i"
    schema = [Triple(iri(cls), iri(RDFS_SUBCLASSOF), iri(OWL_THING))]
    schema += [Triple(iri(f"http://acc2/{p}"), iri(RDFS_DOMAIN), iri(cls)) for p in sorted(type_support)]
    kb, _ = load_schema(schema)
    # The type assertion creates the instance even when it carries nothing.
    data = [Triple(iri(inst), iri(RDF_TYPE), iri(cls))]
    data += [Triple(iri(inst), iri(f"http://acc2/{p}"), literal("x")) for p in sorted(instance_support)]
    kb.add_instance_triples(data)
    return class_scores(kb, inst, "cosine").get(cls, 0.0)


def test_02_cosine_oracle_equivalence():
    with criterion("criterion 02 cosine-oracle-equivalence"):
        rng = random.Random(20240)
        dimension = 50
        checked = 0
        for _ in range(120):
            a = {f"p{k}" for k in rng.sample(range(dimension), rng.randint(0, 25))}
            b = {f"p{k}" for k in rng.sample(range(dimension), rng.randint(0, 25))}
            tp = TypeProfile("c", {p: 1.0 for p in a})
            ip = InstanceProfile("i", {p: 1.0 for p in b})
            # Independent brute-force dot/norm oracle over the raw sets.
            expected = len(a & b) / math.sqrt(len(a) * len(b)) if a and b else 0.0
            assert abs(cosine_score(tp, ip) - expected) <= 1e-9
            assert kernel_cosine(a, b) == cosine_score(tp, ip)
            checked += 1
        assert checked >= 100
        for size in (1, 2, 3, 7, 50):
            support = {f"p{k}" for k in range(size)}
            tp = TypeProfile("c", {p: 1.0 for p in support})
            ip = InstanceProfile("i", {p: 1.0 for p in support})
            assert cosine_score(tp, ip) == 1.0
            assert kernel_cosine(support, support) == 1.0


def test_03_presidential_fixture():
    with criterion("criterion 03 presidential-fixture"):
        kb = presidential_kb()
        table = domain_frequency(kb, KIM)
        ranked = sorted(table.entries.items(), key=lambda kv: (-kv[1], kv[0]))
        assert ranked[0] == (PRESIDENT, 25)
        for cls, count in EXPECTED_PRESIDENTIAL_COUNTS.items():
            assert table.entries[cls] == count
        assert naive_assign(kb, KIM).chosen == PRESIDENT


def test_04_idf_ubiquity_suppression():
    with criterion("criterion 04 idf-ubiquity-suppression"):
        classes = [f"http://acc4/C{k}" for k in range(5)]
        everywhere = "http://acc4/prop/everywhere"
        rare = "http://acc4/prop/rare"
        schema = [Triple(iri(c), iri(RDFS_SUBCLASSOF), iri(OWL_THING)) for c in classes]
        schema += [Triple(iri(everywhere), iri(RDFS_DOMAIN), iri(c)) for c in classes + [OWL_THING]]
        schema.append(Triple(iri(rare), iri(RDFS_DOMAIN), iri(classes[0])))
        kb, _ = load_schema(schema)
        assert idf_weight(kb, everywhere) == 0.0

        inst = "http://acc4/inst/i"
        kb.add_instance_triples(
            [
                Triple(iri(inst), iri(everywhere), literal("x")),
                Triple(iri(inst), iri(rare), literal("x")),
            ]
        )
        # The ubiquitous property is absent from every idf-weighted type
        # profile; only the rare property moves any score.
        scores = {c: pfidf_score(kb, inst, c) for c in classes}
        assert scores[classes[0]] > 0.0
        assert all(scores[c] == 0.0 for c in classes[1:])

        only_everywhere = "http://acc4/inst/j"
        kb.add_instance_triples([Triple(iri(only_everywhere), iri(everywhere), literal("x"))])
        assert all(pfidf_score(kb, only_everywhere, c) == 0.0 for c in classes)


def test_05_noise_free_recovery():
    with criterion("criterion 05 noise-free-recovery"):
        spec = SynthSpec(10, 4, 2, 20, 0.5, 0.0, seed=11)
        schema, instances, truth = generate_kb(spec)

        # Brute-force oracle over the raw triples, independent of the KB
        # modules: property domains, per-instance property sets, and the
        # per-class pair counts must have a unique maximizer at the truth.
        domains: dict[str, set[str]] = {}
        for t in schema:
            if t.predicate.value == RDFS_DOMAIN:
                domains.setdefault(t.subject.value, set()).add(t.object.value)
        carried: dict[str, set[str]] = {}
        for t in instances:
            if t.predicate.value != RDF_TYPE:
                carried.setdefault(t.subject.value, set()).add(t.predicate.value)
        class_count = spec.class_count + 1  # leaves plus the root
        for inst in sorted(truth.hidden):
            props = carried.get(inst, set())
            if not props:
                continue
            counts: dict[str, int] = {}
            for prop in props:
                for cls in domains.get(prop, ()):
                    if cls != OWL_THING:
                        counts[cls] = counts.get(cls, 0) + 1
            best = max(counts.values())
            maximizers = [c for c, n in counts.items() if n == best]
            assert maximizers == [truth.true_classes[inst]]
            # Idf-weighted oracle: signature properties alone carry weight.
            weighted = {
                cls: sum(
                    math.log(class_count / len(domains[p]))
                    for p in props
                    if cls in domains.get(p, ()) and len(domains[p]) < class_count
                )
                for cls in counts
            }
            top = max(weighted.values())
            assert [c for c, w in weighted.items() if w == top] == [truth.true_classes[inst]]

        for method in METHODS:
            kb, truth_run, _, _ = evolve_synth(spec, method)
            accuracy, _ = evaluate_accuracy(kb, truth_run)
            assert accuracy == 1.0, f"{method} accuracy {accuracy}"


def test_06_noisy_recovery_means():
    with criterion("criterion 06 noisy-recovery-means"):
        seeds = range(1, 11)
        pfidf_scores: list[float] = []
        cosine_scores: list[float] = []
        for seed in seeds:
            spec = SynthSpec(20, 5, 3, 50, 0.5, 0.1, seed=seed)
            kb, truth, _, _ = evolve_synth(spec, "pfidf")
            pfidf_scores.append(evaluate_accuracy(kb, truth)[0])
            kb, truth, _, _ = evolve_synth(spec, "cosine")
            cosine_scores.append(evaluate_accuracy(kb, truth)[0])
        mean_pfidf = statistics.mean(pfidf_scores)
        mean_cosine = statistics.mean(cosine_scores)
        print(f"  recorded mean accuracy: pfidf={mean_pfidf:.4f} cosine={mean_cosine:.4f}")
        assert mean_pfidf >= mean_cosine
        assert mean_pfidf >= 0.8


def test_07_monotone_coverage():
    with criterion("criterion 07 monotone-coverage"):
        spec = SynthSpec(8, 3, 2, 30, 0.5, 0.0, seed=5)
        schema, instances, _ = generate_kb(spec)
        lines = [triple_to_line(t) + "\n" for t in instances]
        batch = -(-len(lines) // 3)
        kb, _ = load_schema(schema)
        report = evolve(
            kb,
            iter(lines),
            EvolutionConfig(batch_lines=batch, method="pfidf", deletion_enabled=False),
        )
        assert len(report.records) == 3
        classified = [r.instances_classified for r in report.records]
        with_domain = [r.properties_with_domain for r in report.records]
        assert classified == sorted(classified), classified
        assert with_domain == sorted(with_domain), with_domain


def test_08_fixed_point_idempotence():
    with criterion("criterion 08 fixed-point-idempotence"):
        spec = SynthSpec(10, 4, 2, 20, 0.5, 0.0, seed=11)
        kb, _, _, _ = evolve_synth(spec, "pfidf")
        policy = ThresholdPolicy()
        assert run_generalization_pass(kb, policy) == []
        assert assign_types(kb, "pfidf") == []

        before = io.StringIO()
        kb.export_ntriples(before)
        report = evolve(kb, io.StringIO(""), EvolutionConfig())
        assert report.records == []
        after = io.StringIO()
        kb.export_ntriples(after)
        assert after.getvalue() == before.getvalue()


def test_09_round_trip_fixed_point():
    with criterion("criterion 09 round-trip-fixed-point"):
        spec = SynthSpec(20, 5, 3, 100, 0.5, 0.0, seed=23)
        schema, instances, _ = generate_kb(spec)
        assert len(schema) + len(instances) >= 10000
        kb, leftover = load_schema(schema)
        kb.add_instance_triples(leftover)
        kb.add_instance_triples(instances)

        first = io.StringIO()
        kb.export_ntriples(first)
        triples, report = read_batch(io.StringIO(first.getvalue()), 1 << 22)
        assert not report.errors
        reloaded, rest = load_schema(triples)
        reloaded.add_instance_triples(rest)
        second = io.StringIO()
        reloaded.export_ntriples(second)
        assert second.getvalue() == first.getvalue()


def test_10_parser_robustness():
    with criterion("criterion 10 parser-robustness"):
        corpus = [
            "<http://ex/s0> <http://ex/p> <http://ex/o0> .\n",
            "garbage that is not a triple\n",
            '<http://ex/s1> <http://ex/p> "v\\u0041l"@en .\n',
            "# interleaved comment\n",
            "<http://ex/s2> <http://ex/p> \n",
            "_:b1 <http://ex/p> _:b2 .\n",
            "\n",
            '<http://ex/s3> <http://ex/p> "bad\\q" .\n',
            "<http://ex/s4> <http://ex/p> <http://ex/o4> . # trailing\n",
            "<http://ex/s5> <http://ex/p> <http://ex/o5>\n",
            '"literal" <http://ex/p> <http://ex/o> .\n',
            "<http://ex/s6> <http://ex/p> <http://ex/o6> .\n",
        ]
        triples, report = read_batch(iter(corpus), len(corpus))
        # Exact accounting: every consumed line is a triple, a skip, or an error.
        assert report.lines_read == len(corpus)
        assert report.lines_read == report.triples_emitted + report.lines_skipped + len(report.errors)
        assert report.triples_emitted == 5
        assert report.lines_skipped == 2
        assert [line for line, _ in report.errors] == [2, 5, 8, 10, 11]
        # No cross-line corruption: the valid lines parse to exactly the
        # subjects written, in order.
        assert [t.subject.value for t in triples] == [
            "http://ex/s0",
            "http://ex/s1",
            "_:b1",
            "http://ex/s4",
            "http://ex/s6",
        ]
        assert triples[1].object.value == "vAl"
