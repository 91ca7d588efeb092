"""kbevolve: evolve an incomplete RDF knowledge base from its instances.

Triples arrive in line batches; unclassified instances get types inferred
from the domains of their properties (naive counting, cosine, or
idf-weighted cosine), and property domains are generalized or dropped from
instance support, the two steps reinforcing each other per cycle.
"""

from kbevolve.errors import (
    ConfigError,
    ConsistencyError,
    KbError,
    ParseError,
    SchemaError,
    UnknownEntityError,
)
from kbevolve.evolution import (
    CoverageStats,
    DomainCoverageStats,
    EvolutionConfig,
    EvolutionReport,
    IterationRecord,
    classification_coverage,
    evolve,
    property_domain_ratio,
    write_report,
)
from kbevolve.generalization import (
    DomainChange,
    SupportStats,
    ThresholdPolicy,
    delete_properties,
    generalization_threshold,
    generalize_properties,
    property_support,
    run_generalization_pass,
)
from kbevolve.kb import (
    KnowledgeBase,
    IngestSummary,
    load_schema,
    OWL_THING,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_SUBCLASSOF,
)
from kbevolve.ntriples import (
    ParseReport,
    Term,
    TermKind,
    Triple,
    blank,
    iri,
    literal,
    parse_ntriple_line,
    read_batch,
    triple_to_line,
)
from kbevolve.synth import GroundTruth, SynthSpec, evaluate_accuracy, generate_kb
from kbevolve.type_inference import (
    METHODS,
    TypingDecision,
    assign_types,
    class_scores,
    idf_weight,
    naive_assign,
    pfidf_score,
)

__version__ = "0.1.0"
