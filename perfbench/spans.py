"""Layer spans around the public entry points of the transferlens modules.

    python perfbench/spans.py SPANS_JSON cli ARGS...    one CLI stage
    python perfbench/spans.py SPANS_JSON scan ARGS...   perfbench/scan.py

The wrappers are installed from outside: every module attribute that holds
a traced function is replaced, so calls go through the span whether a
module calls its own function or one it imported.  Each span records its
name, parent, start and end; spans and counters stay in memory and are
written to SPANS_JSON when the stage ends.  ``layer_metrics`` turns the
span files of one round into per-layer self times and counts.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

# span name -> the per-layer metric its self time is reported under
SELF_TIME = {
    "corpus.load": "corpus.load_s",
    "reasoner.materialize": "reasoner.materialize_s",
    "reasoner.is_consistent": "reasoner.materialize_s",
    "domain.atoms": "domain.atoms_s",
    "domain.encode": "domain.encode_s",
    "mining.mine": "mining.mine_s",
    "kb.import": "kb.import_s",
    "harness.fti": "harness.fti_s",
    "harness.fit": "harness.fit_s",
    "harness.auc": "harness.auc_s",
    "evidence.space": "evidence.space_s",
    "evidence.score": "evidence.score_s",
    "contexts.search": "contexts.search_s",
    "report.render": "report.render_s",
    "cli.main": "cli.self_s",
}

COUNTS = (
    "corpus.loads",
    "corpus.lsos",
    "reasoner.closures",
    "reasoner.insertions",
    "mining.roots",
    "kb.consistency_checks",
    "kb.accepted",
    "kb.rejected",
    "harness.fits",
    "harness.minibatch_steps",
    "evidence.scored",
    "contexts.evaluated",
    "contexts.distinct_masks",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name index, parent span, t0 ns, t1 ns]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.mask_sink: set | None = None

    def wrap(self, name: str, fn, after=None):
        self.names.append(name)
        idx = len(self.names) - 1
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [idx, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps({"names": self.names, "spans": self.spans, "counters": self.counters})
        )


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer."""
    import transferlens.cli  # noqa: F401  (loads every module the stages use)
    from transferlens import contexts, corpus, harness, kb, mining, reasoner, report
    from transferlens.domain import LearningDomain
    from transferlens.evidence import EvidenceSpace
    from transferlens.reasoner import EntailmentClosure

    mods = [m for name, m in sys.modules.items() if name.startswith("transferlens")]
    c = tracer.counters

    def patch(module, attr, name, after=None, around=None):
        orig = getattr(module, attr)
        traced = tracer.wrap(name, around(orig) if around else orig, after)
        for m in mods:
            for key in [k for k, v in vars(m).items() if v is orig]:
                setattr(m, key, traced)

    def patch_method(cls, attr, name, after=None):
        orig = cls.__dict__[attr]
        if isinstance(orig, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, orig.__func__, after)))
        else:
            setattr(cls, attr, tracer.wrap(name, orig, after))

    def loaded(args, out):
        c["corpus.loads"] += 1
        c["corpus.lsos"] += sum(len(d.lsos) for d in out.domains)

    def materialized(args, out):
        c["reasoner.closures"] += 1
        c["reasoner.insertions"] += out.insertions

    def checked(args, out):
        c["kb.consistency_checks"] += 1

    def mined(args, out):
        c["mining.roots"] += len(out.root_individuals)

    def imported(args, out):
        for rec in out[1]:
            if rec.status in ("accepted", "rejected"):
                c["kb." + rec.status] += 1

    def fitted(args, out):
        # train_within(x, y, cfg, seed) and transfer(source, x, y, cfg, seed, mode)
        y, cfg = (args[1], args[2]) if len(args) == 4 else (args[2], args[3])
        c["harness.fits"] += 1
        c["harness.minibatch_steps"] += cfg.epochs * math.ceil(len(y) / cfg.batch_size)

    def scored(args, out):
        c["evidence.scored"] += 1

    def scored_mask(args, out):
        c["evidence.scored"] += 1
        if tracer.mask_sink is not None:
            tracer.mask_sink.add(args[2].tobytes())

    def searched(args, out):
        c["contexts.evaluated"] += out.stats.evaluated

    patch(corpus, "load_corpus", "corpus.load", loaded)
    patch(reasoner, "materialize", "reasoner.materialize", materialized)
    patch(reasoner, "is_consistent", "reasoner.is_consistent", checked)
    patch_method(EntailmentClosure, "atoms", "domain.atoms")
    patch_method(LearningDomain, "entailment_closure", "domain.atoms")
    patch_method(LearningDomain, "closure_atom_sets", "domain.atoms")
    patch(harness, "prepare_datasets", "domain.encode")
    patch(mining, "mine_roots", "mining.mine", mined)
    patch(kb, "import_external", "kb.import", imported)
    for fn in ("fti_matrix", "records_from_csv", "fti_from_records", "records_to_csv"):
        patch(harness, fn, "harness.fti")
    patch(harness, "train_within", "harness.fit", fitted)
    patch(harness, "transfer", "harness.fit", fitted)
    patch(harness, "auc", "harness.auc")
    patch(harness, "predict_proba", "harness.auc")
    patch_method(EvidenceSpace, "build", "evidence.space")
    patch_method(EvidenceSpace, "score", "evidence.score")
    patch_method(EvidenceSpace, "score_general", "evidence.score", scored)
    patch_method(EvidenceSpace, "score_membership", "evidence.score", scored_mask)
    for fn in ("build_report", "render_result", "sort_results"):
        patch(report, fn, "report.render")

    def collecting_masks(search):
        @functools.wraps(search)
        def run(*args, **kwargs):
            tracer.mask_sink = set()
            try:
                return search(*args, **kwargs)
            finally:
                c["contexts.distinct_masks"] += len(tracer.mask_sink)
                tracer.mask_sink = None

        return run

    patch(contexts, "core_context_search", "contexts.search", searched, collecting_masks)


def layer_metrics(span_files) -> dict[str, float]:
    """Self times and counts summed over the stages of one traced round."""
    totals = {metric: 0.0 for metric in SELF_TIME.values()}
    counts: Counter = Counter()
    for path in span_files:
        data = json.loads(Path(path).read_text())
        names, spans = data["names"], data["spans"]
        child_ns = [0] * len(spans)
        for _, parent, t0, t1 in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        for (idx, _, t0, t1), inner in zip(spans, child_ns):
            metric = SELF_TIME.get(names[idx])
            if metric is not None:
                totals[metric] += (t1 - t0 - inner) / 1e9
        counts.update(data["counters"])
    out = dict(totals)
    out.update({k: float(counts.get(k, 0)) for k in COUNTS})

    def ratio(num, den):
        return num / den if den else 0.0

    out["reasoner.closures_per_s"] = ratio(out["reasoner.closures"], out["reasoner.materialize_s"])
    out["harness.fits_per_s"] = ratio(out["harness.fits"], out["harness.fit_s"])
    out["kb.accept_ratio"] = ratio(out["kb.accepted"], out["kb.accepted"] + out["kb.rejected"])
    out["contexts.distinct_mask_ratio"] = ratio(
        out["contexts.distinct_masks"], out["contexts.evaluated"]
    )
    return out


def main(argv: list[str]) -> int:
    spans_path, kind, *rest = argv
    tracer = Tracer()
    install(tracer)
    if kind == "cli":
        import transferlens.cli as entry

        root = tracer.wrap("cli.main", entry.main)
    elif kind == "scan":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import scan as entry

        root = tracer.wrap("scan.main", entry.main)
    else:
        print(f"unknown stage kind {kind!r}", file=sys.stderr)
        return 1
    try:
        return root(rest)
    finally:
        tracer.dump(Path(spans_path))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
