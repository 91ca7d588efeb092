"""Scorer and typing-pass tests.

Derived expectations are frozen from independent brute-force computation:
the set-based cosine oracle and direct log evaluation (see inline oracles).
"""

import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    CLS,
    EXPECTED_PRESIDENTIAL_COUNTS,
    INST,
    KIM,
    PRESIDENT,
    PROP,
    assert_typing_matches_oracle,
    class_scores,
    decide,
    domain,
    kb_instance_state,
    kernel_scores,
    naive_assign,
    pfidf_score,
    subclass,
    t,
    t_lit,
)
from kbevolve.errors import UnknownEntityError
from kbevolve.generalization import ThresholdPolicy, run_generalization_pass
from kbevolve.kb import OWL_THING, RDF_TYPE, KnowledgeBase, load_schema
from kbevolve.ntriples import triple_to_row
from kbevolve.type_inference import METHODS, _Kernel, assign_types, idf_weight
from oracles import (
    InstanceProfile,
    TypeProfile,
    build_instance_profile,
    build_type_profile,
    cosine_score,
    domain_frequency,
    oracle_assign_types,
    oracle_class_scores,
    oracle_naive_assign,
)


def oracle_cosine(a: set, b: set) -> float:
    """Brute-force binary cosine, independent of the scored path."""
    if not a or not b:
        return 0.0
    return len(a & b) / math.sqrt(len(a) * len(b))


def binary_profiles(type_support: set, instance_support: set):
    return (
        TypeProfile("c", {p: 1.0 for p in type_support}),
        InstanceProfile("i", {p: 1.0 for p in instance_support}),
    )


class TestDomainFrequency:
    def test_presidential_counts(self, pres_kb):
        table = domain_frequency(pres_kb, KIM)
        top = max(table.entries.items(), key=lambda kv: kv[1])
        assert top == (PRESIDENT, 25)
        for cls, count in EXPECTED_PRESIDENTIAL_COUNTS.items():
            assert table.entries[cls] == count
        assert table.total() == 83

    def test_property_without_domains_contributes_nothing(self):
        kb = KnowledgeBase()
        kb.add_instance_triples([t_lit(INST + "i", PROP + "p")])
        assert domain_frequency(kb, INST + "i").entries == {}

    def test_pair_counting_by_hand(self):
        kb, _ = load_schema(
            [domain(PROP + "p1", CLS + "A"), domain(PROP + "p1", CLS + "B"), domain(PROP + "p2", CLS + "A")]
        )
        kb.add_instance_triples([t_lit(INST + "i", PROP + "p1"), t_lit(INST + "i", PROP + "p2")])
        assert domain_frequency(kb, INST + "i").entries == {CLS + "A": 2, CLS + "B": 1}

    def test_unknown_instance_raises(self):
        with pytest.raises(UnknownEntityError):
            domain_frequency(KnowledgeBase(), INST + "ghost")

    def test_no_properties_empty_table(self):
        kb = KnowledgeBase()
        kb.add_instance_triples([t(INST + "a", PROP + "p", INST + "b")])
        assert domain_frequency(kb, INST + "b").entries == {}


class TestNaiveAssign:
    def test_presidential_choice(self, pres_kb):
        decision = naive_assign(pres_kb, KIM)
        assert decision.chosen == PRESIDENT
        assert decision.score == pytest.approx(25 / 83)

    def test_no_evidence_keeps_previous(self):
        kb = KnowledgeBase()
        kb.add_instance_triples([t_lit(INST + "i", PROP + "p")])
        decision = naive_assign(kb, INST + "i")
        assert decision.previous is None and decision.chosen is None
        assert decision.score == 0.0

    def test_tie_goes_to_deeper_class(self):
        kb, _ = load_schema(
            [
                subclass(CLS + "B", CLS + "A"),
                domain(PROP + "p1", CLS + "A"),
                domain(PROP + "p1", CLS + "B"),
                domain(PROP + "p2", CLS + "A"),
                domain(PROP + "p2", CLS + "B"),
            ]
        )
        kb.add_instance_triples([t_lit(INST + "i", PROP + "p1"), t_lit(INST + "i", PROP + "p2")])
        assert naive_assign(kb, INST + "i").chosen == CLS + "B"

    @pytest.mark.parametrize("order", [("A", "B"), ("B", "A")])
    def test_equal_depth_tie_goes_to_smaller_iri(self, order):
        kb, _ = load_schema([subclass(CLS + "A", OWL_THING), subclass(CLS + "B", OWL_THING)])
        scores = {CLS + name: 0.5 for name in order}
        assert decide(kb, INST + "i", None, scores).chosen == CLS + "A"

    def test_incumbent_kept_on_tied_count(self):
        kb, _ = load_schema([domain(PROP + "p1", CLS + "A"), domain(PROP + "p1", CLS + "B")])
        kb.add_instance_triples([t_lit(INST + "i", PROP + "p1"), t(INST + "i", RDF_TYPE, CLS + "B")])
        decision = naive_assign(kb, INST + "i")
        assert decision.previous == CLS + "B"
        assert decision.chosen == CLS + "B"

    def test_chosen_is_always_a_maximizer(self):
        # Exhaustive-scan oracle over randomized small KBs.
        rng = random.Random(99)
        for _ in range(25):
            classes = [CLS + f"C{k}" for k in range(rng.randint(2, 6))]
            schema = [subclass(c, OWL_THING) for c in classes]
            props = [PROP + f"p{k}" for k in range(rng.randint(1, 8))]
            for prop in props:
                for cls in rng.sample(classes, rng.randint(0, len(classes))):
                    schema.append(domain(prop, cls))
            kb, _ = load_schema(schema)
            carried = rng.sample(props, rng.randint(1, len(props)))
            kb.add_instance_triples([t_lit(INST + "i", p) for p in carried])
            decision = naive_assign(kb, INST + "i")
            table = domain_frequency(kb, INST + "i").entries
            candidates = {c: n for c, n in table.items() if c != OWL_THING}
            if not candidates:
                assert decision.chosen is None
            else:
                assert candidates[decision.chosen] == max(candidates.values())


class TestProfiles:
    def test_binary_type_profile(self):
        kb, _ = load_schema([domain(PROP + "p1", CLS + "C"), domain(PROP + "p2", CLS + "C")])
        profile = build_type_profile(kb, CLS + "C")
        assert profile.vector == {PROP + "p1": 1.0, PROP + "p2": 1.0}

    def test_pfidf_profile_drops_zero_idf(self):
        # p1's domains cover every class, so its weight vanishes.
        kb, _ = load_schema(
            [
                domain(PROP + "p1", CLS + "C"),
                domain(PROP + "p1", OWL_THING),
                domain(PROP + "p2", CLS + "C"),
            ]
        )
        profile = build_type_profile(kb, CLS + "C", "pfidf")
        assert set(profile.vector) == {PROP + "p2"}
        assert profile.vector[PROP + "p2"] == pytest.approx(math.log(2))

    def test_class_in_no_domains_empty(self):
        kb, _ = load_schema([subclass(CLS + "C", OWL_THING)])
        assert build_type_profile(kb, CLS + "C").vector == {}

    def test_unknown_class_raises(self):
        with pytest.raises(UnknownEntityError):
            build_type_profile(KnowledgeBase(), CLS + "Nope")

    def test_instance_profile_binary_set_semantics(self):
        kb = KnowledgeBase()
        kb.add_instance_triples(
            [t_lit(INST + "i", PROP + "p1"), t_lit(INST + "i", PROP + "p3"), t_lit(INST + "i", PROP + "p1")]
        )
        assert build_instance_profile(kb, INST + "i").vector == {PROP + "p1": 1.0, PROP + "p3": 1.0}

    def test_placeholder_profile_empty(self):
        kb = KnowledgeBase()
        kb.add_instance_triples([t(INST + "a", PROP + "p", INST + "b")])
        assert build_instance_profile(kb, INST + "b").vector == {}


class TestCosineScore:
    def test_identical_supports_exactly_one(self):
        tp, ip = binary_profiles({"p1", "p2", "p3"}, {"p1", "p2", "p3"})
        assert cosine_score(tp, ip) == 1.0

    def test_disjoint_supports_zero(self):
        tp, ip = binary_profiles({"p1"}, {"p2"})
        assert cosine_score(tp, ip) == 0.0

    def test_partial_overlap_frozen_value(self):
        # Oracle: 2 / sqrt(2 * 3) = 0.8164965809277261
        tp, ip = binary_profiles({"p1", "p2", "p3"}, {"p1", "p2"})
        assert cosine_score(tp, ip) == pytest.approx(0.8164965809277261, abs=1e-12)

    def test_empty_vector_scores_zero(self):
        tp, ip = binary_profiles(set(), {"p1"})
        assert cosine_score(tp, ip) == 0.0

    @given(
        st.sets(st.integers(0, 49), max_size=25),
        st.sets(st.integers(0, 49), max_size=25),
    )
    @settings(max_examples=200)
    def test_matches_set_oracle(self, a, b):
        tp, ip = binary_profiles({f"p{k}" for k in a}, {f"p{k}" for k in b})
        expected = oracle_cosine({f"p{k}" for k in a}, {f"p{k}" for k in b})
        assert cosine_score(tp, ip) == pytest.approx(expected, abs=1e-9)

    @given(
        st.sets(st.integers(0, 20), min_size=1, max_size=10),
        st.sets(st.integers(0, 20), min_size=1, max_size=10),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=100)
    def test_symmetry_and_scale_invariance(self, a, b, scale):
        va = {f"p{k}": 1.0 for k in a}
        vb = {f"p{k}": 1.0 for k in b}
        forward = cosine_score(TypeProfile("c", va), InstanceProfile("i", vb))
        backward = cosine_score(TypeProfile("c", vb), InstanceProfile("i", va))
        assert forward == pytest.approx(backward, abs=1e-12)
        scaled = cosine_score(
            TypeProfile("c", {k: w * scale for k, w in va.items()}), InstanceProfile("i", vb)
        )
        assert scaled == pytest.approx(forward, rel=1e-9)

    def test_scores_bounded(self):
        tp = TypeProfile("c", {"p1": 3.5, "p2": 0.2})
        ip = InstanceProfile("i", {"p1": 1.0, "p2": 1.0})
        assert 0.0 <= cosine_score(tp, ip) <= 1.0


class TestIdfWeight:
    def _kb_with_df(self, class_count: int, df: int) -> KnowledgeBase:
        classes = [CLS + f"C{k:03d}" for k in range(class_count - 1)]  # root makes class_count
        schema = [subclass(c, OWL_THING) for c in classes]
        for cls in ([OWL_THING] + classes)[:df]:
            schema.append(domain(PROP + "p", cls))
        kb, _ = load_schema(schema)
        assert len(kb.classes) == class_count
        return kb

    def test_domain_in_every_class_is_zero(self):
        kb = self._kb_with_df(10, 10)
        assert idf_weight(kb, PROP + "p") == 0.0

    def test_frozen_log_values(self):
        # Oracle: direct evaluation, math.log(100) and math.log(2).
        assert idf_weight(self._kb_with_df(100, 1), PROP + "p") == pytest.approx(
            4.605170185988092, abs=1e-12
        )
        assert idf_weight(self._kb_with_df(10, 5), PROP + "p") == pytest.approx(
            0.6931471805599453, abs=1e-12
        )

    def test_unknown_property_raises(self):
        with pytest.raises(UnknownEntityError):
            idf_weight(KnowledgeBase(), PROP + "ghost")

    def test_no_domains_undefined(self):
        kb, _ = load_schema([t(PROP + "p", RDF_TYPE, "http://www.w3.org/1999/02/22-rdf-syntax-ns#Property")])
        with pytest.raises(ValueError):
            idf_weight(kb, PROP + "p")


class TestPfidfScore:
    def test_parallel_vectors_score_one(self):
        kb, _ = load_schema(
            [subclass(CLS + "C", OWL_THING), subclass(CLS + "D", OWL_THING)]
            + [domain(PROP + f"p{k}", CLS + "C") for k in range(3)]
        )
        kb.add_instance_triples([t_lit(INST + "i", PROP + f"p{k}") for k in range(3)])
        assert pfidf_score(kb, INST + "i", CLS + "C") == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_idf_zero_score(self):
        schema = [subclass(CLS + "C", OWL_THING), domain(PROP + "p", CLS + "C"), domain(PROP + "p", OWL_THING)]
        kb, _ = load_schema(schema)
        kb.add_instance_triples([t_lit(INST + "i", PROP + "p")])
        assert pfidf_score(kb, INST + "i", CLS + "C") == 0.0

    def test_ubiquitous_property_cannot_change_ranking(self):
        # Rare signature properties dominate; a domain-everywhere property
        # adds nothing to any numerator, so the winner is unchanged.
        classes = [CLS + "C0", CLS + "C1", CLS + "C2"]
        schema = [subclass(c, OWL_THING) for c in classes]
        schema += [domain(PROP + "rare0", CLS + "C0"), domain(PROP + "rare1", CLS + "C1")]
        schema += [domain(PROP + "everywhere", c) for c in [OWL_THING] + classes]
        kb, _ = load_schema(schema)
        kb.add_instance_triples(
            [t_lit(INST + "i", PROP + "rare0"), t_lit(INST + "i", PROP + "everywhere")]
        )
        assert idf_weight(kb, PROP + "everywhere") == 0.0
        with_shared = {c: pfidf_score(kb, INST + "i", c) for c in classes}
        assert with_shared[CLS + "C0"] > with_shared[CLS + "C1"] == with_shared[CLS + "C2"] == 0.0

        kb2, _ = load_schema(schema)
        kb2.add_instance_triples([t_lit(INST + "i", PROP + "rare0")])
        without_shared = {c: pfidf_score(kb2, INST + "i", c) for c in classes}
        assert max(with_shared, key=with_shared.get) == max(without_shared, key=without_shared.get)

    def test_dot_summed_in_sorted_property_order(self):
        # 39 classes; property q<k> has the target and 2k other classes as
        # domains, so its 20 idf weights are distinct and float addition
        # rounds differently in other orders. Each other class also has a
        # property of its own, unused, whose weight raises its norm enough
        # that the target wins.
        classes = [CLS + f"K{k:02d}" for k in range(39)]
        target = classes[0]
        schema = [subclass(c, OWL_THING) for c in classes]
        props = [PROP + f"q{k:02d}" for k in range(20)]
        for k, prop in enumerate(props):
            schema += [domain(prop, c) for c in classes[: 1 + 2 * k]]
        schema += [domain(PROP + f"r{k:02d}", c) for k, c in enumerate(classes[1:])]
        kb, _ = load_schema(schema)
        kb.add_instance_triples([t_lit(INST + "i", prop) for prop in reversed(props)])
        stored = kb.instances[INST + "i"].properties
        assert stored == tuple(sorted(props))
        weights = [idf_weight(kb, prop) for prop in stored]
        assert len(set(weights)) == 20

        def score(order):
            dot = 0.0
            for w in order:
                dot += w
            norm = sum(w * w for w in weights)
            return min(1.0, dot / math.sqrt(norm * len(props)))

        assert score(weights) != score(weights[::-1])
        assert class_scores(kb, INST + "i", "pfidf")[target] == score(weights)
        kernel = _Kernel(kb, "pfidf")
        assert kernel.decide(stored, None) == (target, score(weights))
        assert kernel.decide(stored[::-1], None) == (target, score(weights[::-1]))  # walked as given


class TestAssignTypes:
    def _signature_kb(self):
        schema = [subclass(CLS + "A", OWL_THING), subclass(CLS + "B", OWL_THING)]
        schema += [domain(PROP + "a0", CLS + "A"), domain(PROP + "a1", CLS + "A")]
        schema += [domain(PROP + "b0", CLS + "B"), domain(PROP + "b1", CLS + "B")]
        kb, _ = load_schema(schema)
        return kb

    @pytest.mark.parametrize("method", METHODS)
    def test_fresh_instance_assigned(self, method):
        kb = self._signature_kb()
        kb.add_instance_triples([t_lit(INST + "i", PROP + "a0"), t_lit(INST + "i", PROP + "a1")])
        decisions = assign_types(kb, method)
        assert kb.instances[INST + "i"].assigned_type == CLS + "A"
        assert len(decisions) == 1 and decisions[0].chosen == CLS + "A"
        assert 0.0 <= decisions[0].score <= 1.0

    @pytest.mark.parametrize("method", METHODS)
    def test_tied_score_keeps_previous(self, method):
        kb = self._signature_kb()
        # Instance holds one property of each signature: A and B tie.
        kb.add_instance_triples(
            [
                t_lit(INST + "i", PROP + "a0"),
                t_lit(INST + "i", PROP + "b0"),
                t(INST + "i", RDF_TYPE, CLS + "B"),
            ]
        )
        decisions = assign_types(kb, method)
        assert kb.instances[INST + "i"].assigned_type == CLS + "B"
        assert decisions[0].chosen == CLS + "B"

    @pytest.mark.parametrize("method", METHODS)
    def test_strictly_better_class_reassigns(self, method):
        kb = self._signature_kb()
        kb.add_instance_triples(
            [
                t_lit(INST + "i", PROP + "a0"),
                t_lit(INST + "i", PROP + "a1"),
                t(INST + "i", RDF_TYPE, CLS + "B"),
            ]
        )
        assign_types(kb, method)
        assert kb.instances[INST + "i"].assigned_type == CLS + "A"

    def test_no_evidence_no_assignment(self):
        kb = KnowledgeBase()
        kb.add_instance_triples([t_lit(INST + "i", PROP + "undomained")])
        for method in METHODS:
            decisions = assign_types(kb, method)
            assert decisions[0].chosen is None
            assert kb.instances[INST + "i"].assigned_type is None

    def test_placeholders_and_bare_instances_skipped(self):
        kb = self._signature_kb()
        kb.add_instance_triples(
            [t(INST + "i", PROP + "a0", INST + "ph"), t(INST + "typed", RDF_TYPE, CLS + "A")]
        )
        decisions = assign_types(kb, "cosine")
        assert {d.instance for d in decisions} == {INST + "i"}

    def test_never_unclassifies(self):
        kb = self._signature_kb()
        kb.add_instance_triples(
            [t_lit(INST + "i", PROP + "undomained"), t(INST + "i", RDF_TYPE, CLS + "A")]
        )
        for method in METHODS:
            assign_types(kb, method)
            assert kb.instances[INST + "i"].assigned_type == CLS + "A"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            assign_types(KnowledgeBase(), "jaccard")

    @pytest.mark.parametrize("method", METHODS)
    def test_hidden_types_recovered_on_planted_signatures(self, method):
        # Ground-truth oracle: the generator knows each instance's class.
        from kbevolve.synth import SynthSpec, evaluate_accuracy, generate_kb

        spec = SynthSpec(5, 3, 1, 8, 0.5, 0.0, seed=13)
        schema, instances, truth = generate_kb(spec)
        kb, leftover = load_schema(map(triple_to_row, schema))
        kb.add_instance_triples(leftover)
        kb.add_instance_triples(map(triple_to_row, instances))
        assign_types(kb, method)
        accuracy, _ = evaluate_accuracy(kb, truth)
        assert accuracy == 1.0

    def test_pass_is_deterministic(self):
        kb1 = self._signature_kb()
        kb2 = self._signature_kb()
        batch = [t_lit(INST + f"i{k}", PROP + ("a0" if k % 2 else "b0")) for k in range(10)]
        kb1.add_instance_triples(batch)
        kb2.add_instance_triples(batch)
        assert assign_types(kb1, "pfidf") == assign_types(kb2, "pfidf")

    @pytest.mark.parametrize("method", METHODS)
    def test_all_scores_in_unit_interval(self, method):
        from kbevolve.synth import SynthSpec, generate_kb

        schema, instances, _ = generate_kb(SynthSpec(6, 4, 2, 10, 0.5, 0.3, seed=29))
        kb, leftover = load_schema(map(triple_to_row, schema))
        kb.add_instance_triples(leftover)
        kb.add_instance_triples(map(triple_to_row, instances))
        decisions = assign_types(kb, method)
        assert decisions
        assert all(0.0 <= d.score <= 1.0 for d in decisions)


@st.composite
def random_kb_triples(draw):
    """Schema and data of a small KB: a random class tree of any depth,
    domains that may include the root or be empty, instances that may
    assert a type (the root included) and may point at placeholders."""
    classes = [CLS + f"C{k}" for k in range(draw(st.integers(1, 8)))]
    schema = [
        subclass(cls, draw(st.sampled_from([OWL_THING] + classes[:k])))
        for k, cls in enumerate(classes)
    ]
    props = [PROP + f"p{k}" for k in range(draw(st.integers(1, 10)))]
    for prop in props:
        for cls in sorted(draw(st.sets(st.sampled_from([OWL_THING] + classes), max_size=4))):
            schema.append(domain(prop, cls))
    data = []
    for k in range(draw(st.integers(1, 6))):
        inst = INST + f"i{k}"
        for prop in sorted(draw(st.sets(st.sampled_from(props), max_size=6))):
            if draw(st.booleans()):
                data.append(t_lit(inst, prop))
            else:
                data.append(t(inst, prop, INST + f"i{draw(st.integers(0, 8))}"))
        incumbent = draw(st.none() | st.sampled_from([OWL_THING] + classes))
        if incumbent is not None:
            data.append(t(inst, RDF_TYPE, incumbent))
    return schema, data


@st.composite
def decide_inputs(draw):
    """A method, a KB's schema, a property set and an incumbent for
    _Kernel.decide. A class may copy the domains of another, so equal
    scores are common, among siblings too; the property set may be exactly
    one class's support, which cosine scores 1.0 and pfidf may round above
    1.0 before the cap. The set is built in a shuffled insertion order and
    may hold a property without domains."""
    classes = [CLS + f"C{k}" for k in range(draw(st.integers(1, 8)))]
    schema = [
        subclass(cls, draw(st.sampled_from([OWL_THING] + classes[:k])))
        for k, cls in enumerate(classes)
    ]
    props = [PROP + f"p{k}" for k in range(draw(st.integers(1, 8)))]
    support = {}
    for cls in [OWL_THING] + classes:
        twin = draw(st.none() | st.sampled_from(sorted(support))) if support else None
        support[cls] = support[twin] if twin is not None else draw(st.sets(st.sampled_from(props)))
        schema.extend(domain(prop, cls) for prop in sorted(support[cls]))
    if draw(st.booleans()):
        chosen = set(support[draw(st.sampled_from(classes))])
    else:
        chosen = draw(st.sets(st.sampled_from(props + [PROP + "free"]), min_size=1))
    properties = set()
    for prop in draw(st.permutations(sorted(chosen))):
        properties.add(prop)
    previous = draw(st.none() | st.sampled_from([OWL_THING] + classes))
    return draw(st.sampled_from(METHODS)), schema, properties, previous


@st.composite
def universal_decide_inputs(draw):
    """decide_inputs for the count of universal properties under naive and
    cosine: three to six classes, one to three properties on every non-root
    class (the root a domain too or not), a near miss that lacks one
    non-root class, and two twin classes of equal norm, which besides those
    only the twin property has as a domain. The set holds at least one
    universal property, maybe nothing else (then only the count hits the
    twins), and maybe a property without domains; the incumbent is None,
    the root, a class the other properties hit or one they do not."""
    classes = [CLS + f"C{k}" for k in range(draw(st.integers(3, 6)))]
    schema = [
        subclass(cls, draw(st.sampled_from([OWL_THING] + classes[:k])))
        for k, cls in enumerate(classes)
    ]
    universal = [PROP + f"u{k}" for k in range(draw(st.integers(1, 3)))]
    for prop in universal:
        schema.extend(domain(prop, cls) for cls in ([OWL_THING] if draw(st.booleans()) else []) + classes)
    missed, *twins = draw(st.permutations(classes))[:3]
    schema.extend(domain(PROP + "near", cls) for cls in classes if cls != missed)
    schema.extend(domain(PROP + "twin", cls) for cls in twins)
    others = [cls for cls in [OWL_THING] + classes if cls not in twins]
    props = [PROP + f"p{k}" for k in range(draw(st.integers(1, 4)))]
    for prop in props:
        for cls in sorted(draw(st.sets(st.sampled_from(others), max_size=4))):
            schema.append(domain(prop, cls))
    properties = set(draw(st.sets(st.sampled_from(universal), min_size=1)))
    if draw(st.booleans()):
        properties |= draw(st.sets(st.sampled_from(props + [PROP + "near", PROP + "twin"])))
    if draw(st.booleans()):
        properties.add(PROP + "free")
    kb, _ = load_schema(schema)
    hit = set()
    for prop in properties - set(universal):
        record = kb.properties.get(prop)
        hit.update(record.domains if record is not None else ())
    unhit = [cls for cls in classes if cls not in hit]
    incumbents = [st.none(), st.just(OWL_THING)]
    incumbents += [st.sampled_from(group) for group in (sorted(hit - {OWL_THING}), unhit) if group]
    previous = draw(st.one_of(incumbents))
    return draw(st.sampled_from(["naive", "cosine"])), schema, properties, previous


class TestKernelDecide:
    """_Kernel.decide fuses scoring and the argmax into one pass; it must
    equal the per-class scores followed by the separate argmax of
    helpers.decide, bit for bit."""

    @given(decide_inputs())
    @settings(max_examples=500, deadline=None)
    def test_equals_scores_then_argmax(self, inputs):
        method, schema, properties, previous = inputs
        kb, _ = load_schema(schema)
        kernel = _Kernel(kb, method)
        expected = decide(kb, INST + "i", previous, kernel_scores(kernel, properties))
        assert kernel.decide(tuple(sorted(properties)), previous) == (expected.chosen, expected.score)

    @given(decide_inputs() | universal_decide_inputs(), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_unit_weights_decide_alike_in_any_order(self, inputs, rnd):
        # The unit weights of naive and cosine make their dot sums and counts exact.
        method, schema, properties, previous = inputs
        assume(method != "pfidf")
        kernel = _Kernel(load_schema(schema)[0], method)
        ordered = tuple(sorted(properties))
        shuffled = tuple(rnd.sample(ordered, len(ordered)))
        assert kernel.decide(ordered, previous) == kernel.decide(shuffled, previous)

    def test_score_rounded_above_one_is_capped(self):
        # The root, C and D: each of p0..p4 has C as its only domain, so
        # weight ln 3, and the quotient rounds to just above 1.0.
        kb, _ = load_schema(
            [subclass(CLS + "C", OWL_THING), subclass(CLS + "D", OWL_THING)]
            + [domain(PROP + f"p{k}", CLS + "C") for k in range(5)]
        )
        properties = {PROP + f"p{k}" for k in range(5)}
        kernel = _Kernel(kb, "pfidf")
        dot = 0.0
        for _ in range(5):
            dot += math.log(3)
        assert dot / math.sqrt(kernel.norms[CLS + "C"] * 5) > 1.0
        assert kernel.decide(properties, None) == (CLS + "C", 1.0)
        assert kernel_scores(kernel, properties) == {CLS + "C": 1.0}

    @pytest.mark.parametrize("method", METHODS)
    def test_equal_depth_tie_goes_to_smaller_iri(self, method):
        kb, _ = load_schema(
            [subclass(CLS + name, OWL_THING) for name in "BA"]
            + [domain(PROP + "p", CLS + name) for name in "BA"]
            + [domain(PROP + "q", CLS + "C")]
        )
        kernel = _Kernel(kb, method)
        assert kernel.decide({PROP + "p"}, None)[0] == CLS + "A"
        assert kernel.decide({PROP + "p"}, CLS + "B")[0] == CLS + "B"  # the incumbent keeps a tie
        assert kernel.decide({PROP + "p"}, CLS + "C") == (CLS + "A", kernel_scores(kernel, {PROP + "p"})[CLS + "A"])


class TestUniversalCount:
    """Under naive and cosine, decide counts the properties on every
    non-root class instead of walking their domains; it must still equal
    the walked scores followed by the separate argmax of helpers.decide,
    bit for bit."""

    @given(universal_decide_inputs())
    # A root incumbent and a set of universal properties alone: the root is never scored.
    @example(
        ("cosine", [domain(PROP + "u", cls) for cls in (OWL_THING, CLS + "A", CLS + "B")], {PROP + "u"}, OWL_THING)
    )
    # A KB of the root alone: no property is universal.
    @example(("naive", [domain(PROP + "u", OWL_THING)], {PROP + "u"}, OWL_THING))
    @settings(max_examples=500, deadline=None)
    def test_equals_scores_then_argmax(self, inputs):
        method, schema, properties, previous = inputs
        kb, _ = load_schema(schema)
        kernel = _Kernel(kb, method)
        others = set(kb.classes) - {OWL_THING}
        assert kernel.universal == {
            prop for prop, (_, domains) in kernel.table.items() if others and others <= set(domains)
        }
        if method == "cosine":
            # Whole norms, none below the count: a score from the count alone is at most 1,
            # and the first unhit class of background scores highest of the unhit.
            assert all(kernel.norms[cls] == int(kernel.norms[cls]) >= len(kernel.universal) for cls in others)
        expected = decide(kb, INST + "i", previous, kernel_scores(kernel, properties))
        assert kernel.decide(tuple(sorted(properties)), previous) == (expected.chosen, expected.score)
        # pfidf weighs a property on every class 0 and drops it; it counts nothing.
        pfidf = _Kernel(kb, "pfidf")
        assert not pfidf.universal
        assert all(len(domains) < len(kb.classes) for _, domains in pfidf.table.values())

    def test_tie_across_norms_goes_to_smaller_rank(self):
        # u is on both classes; hit also holds p, q and r, so its norm is 4 to unhit's 1.
        # For {u, p}, unhit scores 1/sqrt(1*2) on the count alone and hit 2/sqrt(4*2):
        # one float, so the smaller IRI must win whether the class is hit or unhit.
        properties = (PROP + "p", PROP + "u")
        for unhit, hit in [(CLS + "A", CLS + "B"), (CLS + "B", CLS + "A")]:
            kb, _ = load_schema(
                [domain(PROP + "u", unhit), domain(PROP + "u", hit)] + [domain(PROP + p, hit) for p in "pqr"]
            )
            kernel = _Kernel(kb, "cosine")
            assert kernel.universal == {PROP + "u"}
            assert kernel.background == [unhit, hit]
            assert (kernel.norms[unhit], kernel.norms[hit]) == (1.0, 4.0)
            scores = kernel_scores(kernel, set(properties))
            assert scores[unhit] == scores[hit] == 1 / math.sqrt(2)
            expected = decide(kb, INST + "i", None, scores)
            assert expected.chosen == CLS + "A"
            assert kernel.decide(properties, None) == (expected.chosen, expected.score)
            assert kernel.decide(properties, CLS + "B") == (CLS + "B", expected.score)  # the incumbent keeps a tie


class TestKernelMatchesOracle:
    """The sparse kernel against the per-pair scorers and the dense pass
    it replaced: scores, decisions and resulting types must be equal, not
    merely close."""

    @staticmethod
    def _build(schema, data) -> KnowledgeBase:
        kb, leftover = load_schema(schema)
        assert leftover == []
        kb.add_instance_triples(data)
        return kb

    @given(random_kb_triples(), st.sampled_from(METHODS))
    @settings(max_examples=300, deadline=None)
    def test_scores_decisions_and_types_equal(self, triples, method):
        kb, oracle_kb = self._build(*triples), self._build(*triples)
        # Round two re-scores against round one's incumbents and domains
        # generalized in between.
        for _ in range(2):
            for ikey in sorted(kb.instances):
                assert class_scores(kb, ikey, method) == oracle_class_scores(oracle_kb, ikey, method)
                if method == "naive":
                    assert naive_assign(kb, ikey) == oracle_naive_assign(oracle_kb, ikey)
                if method == "pfidf":
                    iprof = build_instance_profile(oracle_kb, ikey)
                    for cls in sorted(kb.classes):
                        tprof = build_type_profile(oracle_kb, cls, "pfidf")
                        expected = cosine_score(tprof, iprof) if cls != OWL_THING else 0.0
                        assert pfidf_score(kb, ikey, cls) == expected
            assert_typing_matches_oracle(kb, assign_types(kb, method), oracle_assign_types(oracle_kb, method))
            assert kb_instance_state(kb) == kb_instance_state(oracle_kb)
            run_generalization_pass(kb, ThresholdPolicy())
            run_generalization_pass(oracle_kb, ThresholdPolicy())
