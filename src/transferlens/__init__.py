"""Measure transfer between learning domains and explain it with evidence.

The pipeline: parse ontologies and materialize entailment closures
(:mod:`.ontology`, :mod:`.reasoner`), bundle observations into learning
domains (:mod:`.domain`, :mod:`.corpus`), mine root entailments
(:mod:`.mining`), import external knowledge gated by consistency
(:mod:`.kb`), measure pairwise transfer (:mod:`.harness`), correlate
evidence with transfer success (:mod:`.evidence`, :mod:`.contexts`) and
render the findings (:mod:`.report`, :mod:`.cli`).

Every name in ``__all__`` is imported from its module on first use
(PEP 562), so ``import transferlens`` loads no submodule and a stage that
computes nothing with numpy never loads it.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it provides
_EXPORTS = {
    "config": ("MiningParams", "SearchConfig", "TrainConfig"),
    "contexts": (
        "CoreContextScan", "SearchStats", "SyncClusters", "core_context_search",
        "fast_extend", "sync_clusters",
    ),
    "corpus": ("Corpus", "load_corpus"),
    "domain": (
        "LearningDomain", "Lso", "domain_annotation", "encode_dataset", "feature_space",
        "split_indices",
    ),
    "errors": ("DataError", "UsageError"),
    "evidence": (
        "ChangeRates", "CoreContext", "EvidenceResult", "EvidenceSpace", "FactorKind",
        "GeneralFactor", "ParticularNarrator", "change_rates",
        "change_rates_from_counts", "correlative_reason", "dec", "p_value", "pearson",
    ),
    "harness": (
        "Model", "TransferRecord", "auc", "evaluate_pair", "fti_from_records",
        "fti_matrix", "predict_proba", "prepare_datasets", "records_from_csv",
        "records_to_csv", "train_within", "transfer",
    ),
    "kb": (
        "AuditRecord", "FileKbAdapter", "HttpKbAdapter", "KbEntity",
        "VocabularyMapping", "extract_axioms", "import_external",
    ),
    "mining": (
        "RootSet", "effective_subsets", "frequent_entailments", "mine_roots",
        "root_individuals",
    ),
    "ontology": (
        "Atomic", "ClassAssertion", "Conjunction", "Equality", "Existential", "Gci",
        "Inequality", "Nominal", "NormalizedTBox", "Ontology", "OntologyError",
        "ParseError", "RoleAssertion", "RoleChain", "SignatureError", "SubRole",
        "axioms_to_text", "normalize_tbox", "parse_abox", "parse_ontology",
        "parse_tbox",
    ),
    "reasoner": (
        "Entailment", "EntailmentClosure", "entails", "is_consistent", "materialize",
    ),
    "report": ("Report", "build_report", "render_result", "sort_results"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
