import importlib

import pytest

import transferlens
import transferlens.cli
import transferlens.config
import transferlens.contexts
import transferlens.evidence
import transferlens.harness
import transferlens.mining

# the public surface: every name ``from transferlens import *`` gives
PUBLIC = {
    "Atomic", "AuditRecord", "ChangeRates", "ClassAssertion", "Conjunction",
    "CoreContext", "CoreContextScan", "Corpus", "DataError", "Entailment",
    "EntailmentClosure", "Equality", "EvidenceResult", "EvidenceSpace", "Existential",
    "FactorKind", "FileKbAdapter", "Gci", "GeneralFactor", "HttpKbAdapter",
    "Inequality", "KbEntity", "LearningDomain", "Lso", "MiningParams", "Model",
    "Nominal", "NormalizedTBox", "Ontology", "OntologyError", "ParseError",
    "ParticularNarrator", "Report", "RoleAssertion", "RoleChain", "RootSet",
    "SearchConfig", "SearchStats", "SignatureError", "SubRole", "SyncClusters",
    "TrainConfig", "TransferRecord", "UsageError", "VocabularyMapping", "auc",
    "axioms_to_text", "build_report", "change_rates", "change_rates_from_counts",
    "core_context_search", "correlative_reason", "dec", "domain_annotation",
    "effective_subsets", "encode_dataset", "entails", "evaluate_pair", "extract_axioms",
    "fast_extend", "feature_space", "frequent_entailments", "fti_from_records",
    "fti_matrix", "import_external", "is_consistent", "load_corpus", "materialize",
    "mine_roots", "normalize_tbox", "p_value", "parse_abox", "parse_ontology",
    "parse_tbox", "pearson", "predict_proba", "prepare_datasets", "records_from_csv",
    "records_to_csv", "render_result", "root_individuals", "sort_results",
    "split_indices", "sync_clusters", "train_within", "transfer",
}
SUBMODULES = (
    "contexts", "corpus", "domain", "errors", "evidence", "harness", "kb", "mining",
    "ontology", "reasoner", "report",
)


def test_every_public_name_resolves_lazily_and_through_star_import():
    assert len(PUBLIC) == 86
    assert set(transferlens.__all__) == PUBLIC
    assert PUBLIC <= set(dir(transferlens))
    star: dict = {}
    exec("from transferlens import *", star)
    for name in PUBLIC:
        value = getattr(transferlens, name)
        assert star[name] is value, name
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_submodules_stay_reachable():
    for name in SUBMODULES:
        module = importlib.import_module(f"transferlens.{name}")
        assert getattr(transferlens, name) is module
        assert name not in transferlens.__all__


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'Nonexistent'"):
        transferlens.Nonexistent  # noqa: B018


def test_tuning_dataclasses_have_one_home():
    assert transferlens.harness.TrainConfig is transferlens.config.TrainConfig
    assert transferlens.contexts.SearchConfig is transferlens.config.SearchConfig
    assert transferlens.evidence.check_thresholds is transferlens.config.check_thresholds
    assert transferlens.TrainConfig is transferlens.config.TrainConfig
    assert transferlens.SearchConfig is transferlens.config.SearchConfig
    assert transferlens.mining.MiningParams is transferlens.config.MiningParams
    assert transferlens.harness.check_weights is transferlens.config.check_weights
    assert transferlens.cli.PipelineConfig is transferlens.config.PipelineConfig
    assert transferlens.MiningParams is transferlens.config.MiningParams
