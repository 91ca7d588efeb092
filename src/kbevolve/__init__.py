"""kbevolve: evolve an incomplete RDF knowledge base from its instances.

Triples arrive in line batches; unclassified instances get types inferred
from the domains of their properties (naive counting, cosine, or
idf-weighted cosine), and property domains are generalized or dropped from
instance support, the two steps reinforcing each other per cycle.
"""

from kbevolve.evolution import (
    EvolutionConfig,
    EvolutionReport,
    IterationRecord,
    classification_coverage,
    evolve,
    property_domain_ratio,
    write_report,
)
from kbevolve.generalization import run_generalization_pass
from kbevolve.kb import load_schema
from kbevolve.ntriples import read_batch
from kbevolve.synth import GroundTruth, evaluate_accuracy
from kbevolve.type_inference import assign_types
