"""Exhaustive core-context scan through the public ``core_context_search``.

    python perfbench/scan.py CORPUS AUC_CSV MAX_DIM OUT_TSV

Loads the corpus, ingests the measured AUCs, runs the scan with early
stopping off and writes every scored cluster set.  The first lines list
the clusters (``#cluster``: index, representative), then ``#stats`` holds
the scan's counters, then one row per scored set: the sorted cluster
indices joined by ``,`` and the result fields as ``transferlens report``
writes them.
"""

from __future__ import annotations

import sys

from transferlens.contexts import SearchConfig, core_context_search
from transferlens.corpus import load_corpus
from transferlens.harness import fti_from_records, records_from_csv


def _fmt(x) -> str:
    return "NA" if x is None else "%.17g" % x


def main(argv: list[str]) -> int:
    corpus_dir, auc_csv, max_dim, out_path = argv
    corpus = load_corpus(corpus_dir)
    fti = fti_from_records(records_from_csv(auc_csv))
    scan = core_context_search(
        corpus.domains, fti, SearchConfig(max_dim=int(max_dim), early_stop=False)
    )
    st = scan.stats
    lines = [f"#cluster\t{i}\t{c[0]}" for i, c in enumerate(scan.clusters.clusters)]
    lines.append(
        f"#stats\tuniverse={st.universe}\tclusters={st.clusters}\tenumerable={st.enumerable}"
        f"\tevaluated={st.evaluated}\tcovered={st.covered}"
    )
    for key, res in scan.results.items():
        lines.append(
            "\t".join(
                [
                    ",".join(map(str, sorted(key))),
                    _fmt(res.gamma),
                    _fmt(res.rho),
                    str(res.n),
                    "yes" if res.valid else "no",
                    res.reason or "-",
                ]
            )
        )
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
