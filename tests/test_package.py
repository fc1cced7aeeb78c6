import importlib
import inspect
from dataclasses import fields

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


# every tuning key's default, written here once and in the package only in
# transferlens.config
DEFAULTS = {
    "sigma": 0.99, "kappa": 2, "tau": 0.49, "kappa_cap": 2,
    "hidden": 16, "epochs": 200, "lr": 0.05, "batch_size": 16, "ensemble": 10,
    "train_frac": 0.8, "seed": 0,
    "max_dim": 4, "epsilon": 0.1, "alpha": 0.05, "n_min": 3,
    "omega1": 1.0, "omega2": 1.0,
}
# the functions outside transferlens.config whose parameters default to a
# tuning key's value
LIBRARY_DEFAULTS = {
    ("evidence", "EvidenceSpace.build"): {"epsilon", "alpha", "n_min"},
    ("evidence", "correlative_reason"): {"epsilon", "alpha", "n_min"},
    ("domain", "split_indices"): {"train_frac", "seed"},
    ("harness", "TransferRecord.fti"): {"omega1", "omega2"},
    ("harness", "fti_matrix"): {"omega1", "omega2"},
    ("harness", "fti_from_records"): {"omega1", "omega2"},
}


def _typed(values: dict) -> dict:
    return {key: (type(v), v) for key, v in values.items()}


def test_every_tuning_default_is_the_config_default():
    cfg = transferlens.config.PipelineConfig()
    assert _typed({f.name: getattr(cfg, f.name) for f in fields(cfg)}) == _typed(DEFAULTS)


def _functions(module):
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield value
        elif inspect.isclass(value):
            for name in vars(value):
                attr = getattr(value, name)
                if inspect.isfunction(attr):
                    yield attr


def test_library_parameters_default_to_the_config():
    found = {}
    for name in SUBMODULES + ("cli", "selfcheck"):
        module = importlib.import_module(f"transferlens.{name}")
        for fn in _functions(module):
            for p in inspect.signature(fn).parameters.values():
                if p.name in DEFAULTS and p.default is not p.empty:
                    assert (type(p.default), p.default) == _typed(DEFAULTS)[p.name], (
                        f"{name}.{fn.__qualname__}({p.name}={p.default!r})"
                    )
                    found.setdefault((name, fn.__qualname__), set()).add(p.name)
    assert found == LIBRARY_DEFAULTS
