"""Explain a transfer matrix: general factors, narrators and core contexts.

Builds the full transfer matrix for the bundled corpus, correlates change
rates and shared-entailment evidence against it, and prints the assembled
report.  Takes a few seconds to train the ensemble.

    python3 demos/04_evidence_and_report.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from transferlens.contexts import SearchConfig, core_context_search
from transferlens.corpus import load_corpus
from transferlens.evidence import EvidenceSpace, FactorKind, GeneralFactor
from transferlens.harness import TrainConfig, fti_matrix
from transferlens.report import build_report

corpus = load_corpus(Path(__file__).resolve().parents[1] / "corpora" / "mini_flights")

records, fti = fti_matrix(corpus.domains, TrainConfig(epochs=60, ensemble=4))
print(f"trained {len(records)} ordered pairs over {len(corpus.domains)} domains")

space = EvidenceSpace.build(corpus.domains, fti)
general = [space.score(GeneralFactor(kind)) for kind in FactorKind]

scan = core_context_search(corpus.domains, fti, SearchConfig())
contexts = list(scan.concept_rows())
stats = scan.stats
print(f"context search: {stats.clusters} clusters form {stats.evaluated} concepts "
      f"covering {stats.covered} contexts, {stats.valid} of them valid")
print()

report = build_report(
    [d.id for d in corpus.domains],
    n_pairs=len(space.pair_src),
    fti=fti,
    general=general,
    narrators=[],
    contexts=contexts,
    max_listed=5,
)
print(report.text)
