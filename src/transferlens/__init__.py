"""Measure transfer between learning domains and explain it with evidence.

The pipeline: parse ontologies and materialize entailment closures
(:mod:`.ontology`, :mod:`.reasoner`), bundle observations into learning
domains (:mod:`.domain`, :mod:`.corpus`), mine root entailments
(:mod:`.mining`), import external knowledge gated by consistency
(:mod:`.kb`), measure pairwise transfer (:mod:`.harness`), correlate
evidence with transfer success (:mod:`.evidence`, :mod:`.contexts`) and
render the findings (:mod:`.report`, :mod:`.cli`).
"""

from .contexts import (
    CoreContextScan,
    SearchConfig,
    SearchStats,
    SyncClusters,
    core_context_search,
    early_stop,
    fast_extend,
    sync_clusters,
)
from .corpus import Corpus, load_corpus
from .domain import (
    FeatureVector,
    LearningDomain,
    Lso,
    boe_encode,
    build_vocabulary,
    domain_annotation,
    encode_dataset,
    split_indices,
    value_properties,
)
from .errors import DataError, UsageError
from .evidence import (
    ChangeRates,
    CoreContext,
    EvidenceResult,
    EvidenceSpace,
    FactorKind,
    GeneralFactor,
    ParticularNarrator,
    change_rates,
    change_rates_from_counts,
    correlative_reason,
    dec,
    p_value,
    pearson,
)
from .harness import (
    Model,
    TrainConfig,
    TransferRecord,
    auc,
    evaluate_pair,
    fti_from_records,
    fti_matrix,
    predict_proba,
    prepare_datasets,
    records_from_csv,
    records_to_csv,
    train_within,
    transfer,
)
from .kb import (
    AuditRecord,
    FileKbAdapter,
    HttpKbAdapter,
    KbEntity,
    VocabularyMapping,
    extract_axioms,
    import_external,
)
from .mining import (
    MiningParams,
    RootSet,
    effective_subsets,
    frequent_entailments,
    mine_roots,
    root_individuals,
)
from .ontology import (
    Atomic,
    ClassAssertion,
    Conjunction,
    Equality,
    Existential,
    Gci,
    Inequality,
    Nominal,
    NormalizedTBox,
    Ontology,
    OntologyError,
    ParseError,
    RoleAssertion,
    RoleChain,
    SignatureError,
    SubRole,
    axioms_to_text,
    normalize_tbox,
    parse_abox,
    parse_ontology,
    parse_tbox,
)
from .reasoner import (
    Entailment,
    EntailmentClosure,
    entails,
    is_consistent,
    materialize,
)
from .report import Report, build_report, render_result, sort_results

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
