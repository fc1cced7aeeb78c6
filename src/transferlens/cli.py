"""Command-line pipeline over a corpus directory.

Stages write their outputs under ``--outdir`` and later stages pick those
artifacts up, so the pipeline is resumable and each stage can be rerun in
isolation:

    materialize      closures/<domain>.atoms
    mine-roots       roots/<domain>.roots, roots/<domain>.inds
    import-external  external/<domain>.axioms, external/<domain>.audit
    fti              fti/auc.csv, fti/matrix.tsv
    report           evidence/*.tsv, report.txt, report.json
    explain          one evidence item, printed
    selftest         embedded correctness checks, no corpus needed

Each stage that reads ``--corpus`` attaches the axioms an earlier
``import-external`` left in the outdir, except ``mine-roots`` and
``import-external``, which start from the bare corpus.  ``import-external``
mines its roots itself with its own config, so ``roots/`` is output only.
``fti --auc-csv`` and ``selftest`` read no corpus.

Exit codes: 0 success, 1 usage errors, 2 data errors.  Tuning values come
from flags first, then a ``key = value`` config file, then defaults; the
tuning keys are the fields of :class:`.config.PipelineConfig`.  Every stage
makes one before it reads the corpus, and making one checks every value,
so a value any stage would refuse is a data error everywhere.  ``report``
writes ``evidence/*.tsv`` from the rows :func:`.report.build_report` ranks;
``contexts.tsv`` has one row per concept of the core-context search that
covers a context, its least generator's representatives with its cover.
The transfer and evidence modules (harness, evidence, contexts, report)
are imported inside the commands that use them.  Of these, only
``harness``'s training functions load numpy (and ``scipy.special``), so
``fti`` training and ``selftest`` are the only stages that load it.
``kb`` and ``mining``, which only ``mine-roots`` and ``import-external``
use, are imported the same way, so the other stages start without them.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .config import PipelineConfig
from .corpus import Corpus, load_corpus
from .errors import DataError, UsageError
from .ontology import axioms_to_text, parse_abox
from .reasoner import Entailment

_CFG_DEFAULTS = {f.name: f.default for f in fields(PipelineConfig)}
_FLOAT_FIELDS = {k for k, v in _CFG_DEFAULTS.items() if isinstance(v, float)}


def _coerce(key: str, value: str):
    try:
        return float(value) if key in _FLOAT_FIELDS else int(value)
    except ValueError:
        kind = "a number" if key in _FLOAT_FIELDS else "an integer"
        raise DataError(f"config value for {key} must be {kind}, got {value!r}") from None


def load_config_file(path: str | Path) -> dict:
    """Flat ``key = value`` file; keys match PipelineConfig fields."""
    out: dict = {}
    path = Path(path)
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _CFG_DEFAULTS:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in out:
            raise DataError(f"{path}:{lineno}: duplicate config key {key!r}")
        out[key] = _coerce(key, value)
    return out


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults, overridden by the config file, overridden by flags.

    Making the config checks every value, whichever stage runs, so a value
    that any stage would refuse fails before the corpus is read.
    """
    values = load_config_file(args.config) if getattr(args, "config", None) else {}
    values.update(
        (name, getattr(args, name))
        for name in _CFG_DEFAULTS
        if getattr(args, name, None) is not None
    )
    return PipelineConfig(**values)


# ---------------------------------------------------------------------------
# artifact helpers

def _fmt(x) -> str:
    return "NA" if x is None else "%.17g" % x


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_lines(path: Path, lines: list[str]) -> None:
    _write(path, "\n".join(lines) + "\n")


def _load_corpus(args, outdir: Path | None) -> Corpus:
    """The corpus, with the axioms an earlier import left in ``outdir``
    attached to each domain; ``outdir=None`` gives the bare corpus."""
    if not args.corpus:
        raise UsageError("--corpus is required for this command")
    corpus = load_corpus(args.corpus)
    if outdir is not None:
        for d in corpus.domains:
            f = outdir / "external" / f"{d.id}.axioms"
            if f.exists():
                d.set_external_axioms(parse_abox(f.read_text()))
    return corpus


def _load_fti(args, cfg: PipelineConfig, outdir: Path, domains) -> dict:
    from .harness import fti_from_records, records_from_csv

    csv_path = Path(args.auc_csv or outdir / "fti" / "auc.csv")
    if not csv_path.exists():
        raise DataError(
            f"no transfer results at {csv_path}; run the fti stage first "
            f"or pass --auc-csv"
        )
    records = records_from_csv(csv_path)
    unknown = {x for r in records for x in (r.source, r.target)} - {d.id for d in domains}
    if unknown:
        raise DataError(f"{csv_path}: domains not in the corpus: {', '.join(sorted(unknown))}")
    return fti_from_records(records, cfg.omega1, cfg.omega2)


def parse_evidence(text: str):
    """d_new/d_obs/d_inv, one entailment, or a '+'-joined context."""
    from .evidence import CoreContext, FactorKind, GeneralFactor, ParticularNarrator

    text = text.strip()
    if text in {k.value for k in FactorKind}:
        return GeneralFactor.parse(text)
    if "+" in text:
        try:
            atoms = frozenset(Entailment.parse(p.strip()) for p in text.split("+"))
        except ValueError as err:
            raise DataError(f"bad context: {err}") from None
        return CoreContext(atoms)
    try:
        return ParticularNarrator(Entailment.parse(text))
    except ValueError as err:
        raise DataError(f"bad evidence {text!r}: {err}") from None


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed args, the resolved config and the outdir

def cmd_materialize(args, cfg: PipelineConfig, outdir: Path) -> int:
    for d in _load_corpus(args, outdir).domains:
        closures = d.lso_closures()
        bad = sum(1 for c in closures if c.inconsistent)
        lines = [f"# domain {d.id}: {len(closures)} LSOs, {bad} inconsistent"]
        lines += sorted(str(g) for g in d.entailment_closure())
        _write_lines(outdir / "closures" / f"{d.id}.atoms", lines)
        print(f"{d.id}: {len(lines) - 1} entailments, {bad} inconsistent LSOs")
    return 0


def cmd_mine_roots(args, cfg: PipelineConfig, outdir: Path) -> int:
    from .mining import mine_roots

    params = cfg.mining
    # the bare corpus, as in import-external, so that reruns mine the same roots
    for d in _load_corpus(args, None).domains:
        rs = mine_roots(d, params)
        lines = [
            f"# domain {d.id} sigma={params.sigma} kappa={params.kappa} tau={params.tau}"
        ]
        for g in sorted(rs.frequent, key=str):
            lines.append(f"frequent\t{g}")
        for subset in sorted(rs.effective, key=lambda s: sorted(map(str, s))):
            r_e, r_i = rs.effective[subset]
            names = " | ".join(sorted(map(str, subset)))
            lines.append(f"effective\t{_fmt(r_e)}\t{_fmt(r_i)}\t{names}")
        for g in sorted(rs.root_entailments, key=str):
            lines.append(f"root-entailment\t{g}")
        for x in rs.root_individuals:
            lines.append(f"root-individual\t{x}")
        _write_lines(outdir / "roots" / f"{d.id}.roots", lines)
        _write(
            outdir / "roots" / f"{d.id}.inds",
            "".join(f"{x}\n" for x in rs.root_individuals),
        )
        print(
            f"{d.id}: {len(rs.frequent)} frequent, {len(rs.effective)} effective, "
            f"{len(rs.root_individuals)} root individuals"
        )
    return 0


def _make_adapter(args, corpus: Corpus):
    from .kb import FileKbAdapter, HttpKbAdapter

    if getattr(args, "kb_lookup_url", None) or getattr(args, "kb_describe_url", None):
        if not (args.kb_lookup_url and args.kb_describe_url):
            raise UsageError("--kb-lookup-url and --kb-describe-url go together")
        return HttpKbAdapter(args.kb_lookup_url, args.kb_describe_url)
    kb_path = getattr(args, "kb", None) or corpus.kb_path
    if kb_path is None:
        raise DataError(
            "no knowledge base: add kb.txt to the corpus, or pass --kb, "
            "or pass --kb-lookup-url/--kb-describe-url"
        )
    return FileKbAdapter(kb_path)


def _make_mapping(args, corpus: Corpus):
    from .kb import VocabularyMapping

    map_path = getattr(args, "kb_map", None) or corpus.kb_map_path
    if map_path is None:
        raise DataError(
            "no vocabulary mapping: add kb_map.txt to the corpus or pass --kb-map"
        )
    return VocabularyMapping.load(map_path)


def cmd_import_external(args, cfg: PipelineConfig, outdir: Path) -> int:
    from .kb import import_external
    from .mining import mine_roots

    # The bare corpus: this import replaces external/*.axioms, so the axioms
    # of an earlier import must not reach its roots or its consistency gate.
    corpus = _load_corpus(args, None)
    adapter = _make_adapter(args, corpus)
    mapping = _make_mapping(args, corpus)
    for d in corpus.domains:
        # mined with this stage's config: roots/ may hold another config's roots
        roots = list(mine_roots(d, cfg.mining).root_individuals)
        axioms, audit = import_external(
            d, roots, adapter, mapping, constraints=corpus.constraints
        )
        _write(
            outdir / "external" / f"{d.id}.axioms",
            axioms_to_text(axioms) if axioms else "",
        )
        audit_lines = ["# domain\tindividual\tentity\tstatus\twitness"]
        audit_lines += [a.to_line() for a in audit]
        _write_lines(outdir / "external" / f"{d.id}.audit", audit_lines)
        n_acc = sum(1 for a in audit if a.status == "accepted")
        print(f"{d.id}: {len(axioms)} axioms imported ({n_acc} entities accepted)")
    return 0


def cmd_fti(args, cfg: PipelineConfig, outdir: Path) -> int:
    from .harness import fti_from_records, fti_matrix, records_from_csv, records_to_csv

    if args.auc_csv:
        records = records_from_csv(args.auc_csv)
        fti = fti_from_records(records, cfg.omega1, cfg.omega2)
    else:
        records, fti = fti_matrix(
            _load_corpus(args, outdir).domains,
            cfg.train,
            cfg.omega1,
            cfg.omega2,
        )
    rows = ["source\ttarget\tauc_base\tauc_hard\tauc_soft\tfsi\tfgi\tfti"]
    for r in records:
        values = (r.auc_base, r.auc_hard, r.auc_soft, r.fsi, r.fgi, fti[(r.source, r.target)])
        rows.append("\t".join([r.source, r.target] + [_fmt(v) for v in values]))
    _write_lines(outdir / "fti" / "matrix.tsv", rows)  # also creates fti/
    records_to_csv(records, outdir / "fti" / "auc.csv")
    print(f"{len(records)} transfer records over {len({r.source for r in records})} domains")
    return 0


def cmd_explain(args, cfg: PipelineConfig, outdir: Path) -> int:
    from .evidence import correlative_reason
    from .report import render_result

    corpus = _load_corpus(args, outdir)
    fti = _load_fti(args, cfg, outdir, corpus.domains)
    evidence = parse_evidence(args.evidence)
    res = correlative_reason(
        corpus.domains, evidence, fti,
        epsilon=cfg.epsilon, alpha=cfg.alpha, n_min=cfg.n_min,
    )
    print(render_result(res))
    print(
        f"evidence={res.evidence}\tgamma={_fmt(res.gamma)}\trho={_fmt(res.rho)}"
        f"\tn={res.n}\tvalid={res.valid}\treason={res.reason or '-'}"
    )
    return 0


def _result_row(res, cover: int | None) -> str:
    cells = [str(res.evidence)] + ([] if cover is None else [str(cover)])
    cells += [_fmt(res.gamma), _fmt(res.rho), str(res.n), "yes" if res.valid else "no"]
    return "\t".join(cells + [res.reason or "-"])


def cmd_report(args, cfg: PipelineConfig, outdir: Path) -> int:
    from .contexts import core_context_search
    from .evidence import FactorKind, GeneralFactor, ParticularNarrator
    from .report import build_report

    domains = _load_corpus(args, outdir).domains
    fti = _load_fti(args, cfg, outdir, domains)
    # the scan's evidence space and universe serve the other two tables too
    scan = core_context_search(domains, fti, cfg.search)
    space = scan.space
    rep = build_report(
        [d.id for d in domains],
        n_pairs=len(space.pair_src),
        fti=fti,
        general=[space.score(GeneralFactor(k)) for k in FactorKind],
        narrators=[space.score(ParticularNarrator(g)) for g in scan.clusters.universe],
        contexts=list(scan.concept_rows()),
    )
    for name, rows in rep.ranked.items():
        cover = "\tcover" if name == "contexts" else ""
        _write_lines(
            outdir / "evidence" / f"{name}.tsv",
            [f"evidence{cover}\tgamma\trho\tn\tvalid\treason"]
            + [_result_row(r, c) for r, c in rows],
        )
    _write(outdir / "report.txt", rep.text)
    _write(outdir / "report.json", rep.to_json() + "\n")
    stats = scan.stats
    print(rep.text)
    print(
        f"context search: {stats.clusters} clusters form {stats.evaluated} concepts "
        f"covering {stats.covered} contexts, {stats.valid} of them valid"
    )
    return 0


def cmd_selftest(args, cfg: PipelineConfig, outdir: Path) -> int:
    from . import selfcheck

    failures = selfcheck.run(print)
    return 0 if failures == 0 else 2


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--corpus", help="corpus directory")
    common.add_argument("--outdir", default="out", help="artifact directory (default: out)")
    common.add_argument("--config", help="key = value config file")
    for name, default in sorted(_CFG_DEFAULTS.items()):
        common.add_argument(
            "--" + name.replace("_", "-"),
            type=float if name in _FLOAT_FIELDS else int,
            default=None,
            help=f"override {name} (default {default})",
        )

    p = _Parser(
        prog="transferlens",
        description="Mine, import, measure and explain transfer between learning domains.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("materialize", parents=[common], help="compute domain closures")
    sp.set_defaults(func=cmd_materialize)

    sp = sub.add_parser("mine-roots", parents=[common], help="mine frequent and effective roots")
    sp.set_defaults(func=cmd_mine_roots)

    sp = sub.add_parser(
        "import-external", parents=[common], help="import knowledge-base axioms for roots"
    )
    sp.add_argument("--kb", help="knowledge-base file (default: corpus kb.txt)")
    sp.add_argument("--kb-map", help="vocabulary mapping file (default: corpus kb_map.txt)")
    sp.add_argument("--kb-lookup-url", help="HTTP lookup template with {term}")
    sp.add_argument("--kb-describe-url", help="HTTP describe template with {entity}")
    sp.set_defaults(func=cmd_import_external)

    sp = sub.add_parser("fti", parents=[common], help="compute or ingest the transfer matrix")
    sp.add_argument("--auc-csv", help="ingest measured AUCs instead of training")
    sp.set_defaults(func=cmd_fti)

    sp = sub.add_parser("explain", parents=[common], help="score one evidence item")
    sp.add_argument("--evidence", required=True, help="d_new|d_obs|d_inv, an entailment, or a '+'-joined context")
    sp.add_argument("--auc-csv", help="transfer results CSV (default: outdir artifact)")
    sp.set_defaults(func=cmd_explain)

    sp = sub.add_parser("report", parents=[common], help="full evidence tables and report")
    sp.add_argument("--auc-csv", help="transfer results CSV (default: outdir artifact)")
    sp.set_defaults(func=cmd_report)

    sp = sub.add_parser("selftest", parents=[common], help="run embedded correctness checks")
    sp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        return args.func(args, cfg, Path(args.outdir))
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError) as err:
        # an input path (--config, --kb, --kb-map, --auc-csv) naming no file, or a directory
        print(f"data error: cannot read {err.filename}: {err.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
