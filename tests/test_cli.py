import argparse
import json
import random
import shutil
import subprocess
import sys
from dataclasses import fields
from types import SimpleNamespace

import pytest

import transferlens.cli as cli
from conftest import MINI_FLIGHTS
from transferlens.cli import (
    PipelineConfig,
    build_parser,
    load_config_file,
    main,
    parse_evidence,
    resolve_config,
)
from transferlens.errors import DataError
from transferlens.evidence import CoreContext, GeneralFactor, ParticularNarrator
from transferlens.report import rank_key

TBOX = "SubClassOf(P Marker)\nSubClassOf(Airport Location)\n"
CONSTRAINTS = "SubClassOf(And(Location Song) Bottom)\n"
KB = (
    "SONG1\tLAX\tSong\t\n"
    "APT1\tLAX\tCivilAirport\tiata=LAX\n"
)
KB_MAP = (
    "type Song -> Song\n"
    "type CivilAirport -> Airport\n"
    "prop iata -> iataCode\n"
)
FAST_CFG = (
    "# quick training settings\n"
    "epochs = 8\n"
    "ensemble = 2\n"
    "hidden = 4\n"
    "batch-size = 8\n"
    "lr = 0.1\n"
    "sigma = 0.9\n"
)

LABELS = {
    "da": [1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0],
    "db": [0, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1],
    "dc": [1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0],
    "dd": [0, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1],
}
FLIPS = {"da": (), "db": (), "dc": (3,), "dd": (5,)}


def _lso(i: int, label: int, feature: int) -> str:
    lines = [
        f"@ann dat 2026-01-{i + 1:02d}",
        "ClassAssert(Dep d)",
        "RoleAssert(hasOri d LAX)",
        "ClassAssert(Airport LAX)",
    ]
    if feature:
        lines.append("ClassAssert(P d)")
    if label:
        lines.append("ClassAssert(Tgt d)")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("clicorpus")
    (root / "tbox.ont").write_text(TBOX)
    (root / "constraints.ont").write_text(CONSTRAINTS)
    (root / "kb.txt").write_text(KB)
    (root / "kb_map.txt").write_text(KB_MAP)
    for did, labels in LABELS.items():
        dom = root / "domains" / did
        (dom / "lsos").mkdir(parents=True)
        (dom / "manifest.txt").write_text(f"id = {did}\ntarget = Tgt(d)\n")
        for i, y in enumerate(labels):
            feature = 1 - y if i in FLIPS[did] else y
            (dom / "lsos" / f"lso-{i:03d}.ont").write_text(_lso(i, y, feature))
    return root


@pytest.fixture(scope="module")
def fast_cfg(tmp_path_factory):
    p = tmp_path_factory.mktemp("clicfg") / "fast.cfg"
    p.write_text(FAST_CFG)
    return p


# -- config resolution ---------------------------------------------------------------


def test_resolve_config_flags_beat_file_beat_defaults(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("sigma = 0.7\nepochs = 9\ntrain-frac = 0.6\n")
    args = build_parser().parse_args(
        ["fti", "--corpus", "x", "--config", str(cfg_file), "--sigma", "0.5"]
    )
    cfg = resolve_config(args)
    assert cfg.sigma == 0.5      # flag wins
    assert cfg.epochs == 9       # file beats default
    assert cfg.train_frac == 0.6  # hyphen alias for the underscore key
    assert cfg.kappa == PipelineConfig().kappa  # untouched default


def test_load_config_file_errors(tmp_path):
    with pytest.raises(DataError, match=r"^cannot read .*absent\.cfg: No such file"):
        load_config_file(tmp_path / "absent.cfg")

    p = tmp_path / "c.cfg"
    for text, pattern in [
        ("epochs\n", "key = value"),
        ("color = red\n", "unknown config key"),
        ("epochs = 5\nepochs = 6\n", "duplicate"),
        ("epochs = many\n", "must be an integer"),
        ("sigma = high\n", "must be a number"),
    ]:
        p.write_text(text)
        with pytest.raises(DataError, match=pattern):
            load_config_file(p)


TUNING = {
    "sigma", "kappa", "tau", "kappa_cap", "epsilon", "alpha", "omega1", "omega2",
    "max_dim", "n_min", "train_frac", "epochs", "ensemble", "hidden", "lr",
    "batch_size", "seed",
}
COMMON_FLAGS = {"-h", "--help", "--corpus", "--outdir", "--config"} | {
    "--" + name.replace("_", "-") for name in TUNING
}
EXTRA_FLAGS = {
    "materialize": set(),
    "mine-roots": set(),
    "import-external": {"--kb", "--kb-map", "--kb-lookup-url", "--kb-describe-url"},
    "fti": {"--auc-csv"},
    "explain": {"--evidence", "--auc-csv"},
    "report": {"--auc-csv"},
    "selftest": set(),
}


def test_cli_surface_is_pinned(tmp_path):
    (sub,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert set(sub.choices) == set(EXTRA_FLAGS)
    for name, parser in sub.choices.items():
        assert set(parser._option_string_actions) == COMMON_FLAGS | EXTRA_FLAGS[name], name
    assert {f.name for f in fields(PipelineConfig)} == TUNING

    p = tmp_path / "all.cfg"
    p.write_text("".join(f"{key} = 1\n" for key in sorted(TUNING)))
    assert set(load_config_file(p)) == TUNING
    p.write_text("early_stop = 0\n")
    with pytest.raises(DataError, match="unknown config key"):
        load_config_file(p)


def test_parse_evidence_forms():
    assert isinstance(parse_evidence("d_obs"), GeneralFactor)
    narr = parse_evidence(" Hub(x) ")
    assert isinstance(narr, ParticularNarrator)
    assert str(narr) == "Hub(x)"
    ctx = parse_evidence("A(d) + B(d)")
    assert isinstance(ctx, CoreContext)
    assert len(ctx.entailments) == 2
    with pytest.raises(DataError, match="bad evidence"):
        parse_evidence("A(d")
    with pytest.raises(DataError, match="bad context"):
        parse_evidence("A(d + B(d)")


def test_outdir_defaults_to_out():
    assert build_parser().parse_args(["materialize"]).outdir == "out"


# -- exit codes -----------------------------------------------------------------


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["bogus-command"]) == 1
    assert main(["materialize"]) == 1  # no --corpus
    assert main(["explain", "--corpus", "x"]) == 1  # no --evidence
    assert "usage error" in capsys.readouterr().err


def test_data_errors_exit_2(tmp_path, capsys):
    assert main(["materialize", "--corpus", str(tmp_path / "nope")]) == 2
    assert "data error" in capsys.readouterr().err


def _edited_lso(tmp_path, edit):
    """A mini_flights copy whose A1/lso-000.ont (three @ann lines, then
    axioms) has its lines passed through ``edit``; returns the file."""
    root = tmp_path / "corpus"
    shutil.copytree(MINI_FLIGHTS, root)
    lso = root / "domains" / "A1" / "lsos" / "lso-000.ont"
    lines = lso.read_text().splitlines()
    assert [line.split()[0] for line in lines[:4]] == ["@ann"] * 3 + ["ClassAssert(Departure"]
    lso.write_text("\n".join(edit(lines)) + "\n")
    return lso


def test_lso_parse_errors_cite_file_lines(tmp_path, capsys):
    # line 6 loses its ')', so the parser stops at the token on file line 7
    lso = _edited_lso(tmp_path, lambda ls: ls[:5] + ["RoleAssert(hasCarrier d DL"] + ls[6:])
    out = tmp_path / "o"
    assert main(["materialize", "--corpus", str(tmp_path / "corpus"), "--outdir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{lso}: line 7, col 1: expected ')', got 'RoleAssert'" in err


def test_lso_signature_conflicts_cite_file_lines(tmp_path, capsys):
    # file line 5 uses hasCarrier as a role; the appended line uses it as a concept
    lso = _edited_lso(tmp_path, lambda ls: ls + ["ClassAssert(hasCarrier d)"])
    n = len(lso.read_text().splitlines())
    out = tmp_path / "o"
    assert main(["materialize", "--corpus", str(tmp_path / "corpus"), "--outdir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"name 'hasCarrier' used as concept at line {n} but as role at line 5" in err


def test_cli_import_loads_neither_kb_nor_mining():
    # only mine-roots and import-external use them, and they import them
    code = (
        "import sys, transferlens.cli\n"
        "print(sorted(m for m in ('transferlens.kb', 'transferlens.mining') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["fti"], "--auc-csv"),
        (["import-external", "--corpus", str(MINI_FLIGHTS)], "--kb"),
        (["import-external", "--corpus", str(MINI_FLIGHTS)], "--kb-map"),
        (["materialize", "--corpus", str(MINI_FLIGHTS)], "--config"),
    ],
)
def test_unreadable_input_paths_exit_2(argv, flag, tmp_path, capsys):
    # a path that names nothing, and one that names a directory
    for path in (tmp_path / "absent.txt", tmp_path):
        assert main([*argv, "--outdir", str(tmp_path / "o"), flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot read ") and str(path) in err


# Every input file a stage reads: the stage, the file's place in a copy of the
# corpus (or in the outdir "out", or beside both), valid text for it, then
# malformed text with the located message it gets, and wrong-kind text with
# its message for the ontology documents.
_ONT_MALFORMED = ("ClassAssert(A x\n", ": line 1, col 15: expected ')', got end of input")
_NOT_TBOX = ("ClassAssert(A x)\n", ": expected TBox-only document, found ClassAssert(A x)")
_NOT_ABOX = ("SubClassOf(A B)\n", ": expected ABox-only document, found SubClassOf(A B)")
INPUT_FILES = {
    "tbox.ont": (["materialize"], "corpus/tbox.ont", TBOX, _ONT_MALFORMED, _NOT_TBOX),
    "constraints.ont": (
        ["materialize"], "corpus/constraints.ont", CONSTRAINTS, _ONT_MALFORMED, _NOT_TBOX,
    ),
    "manifest": (
        ["materialize"],
        "corpus/domains/da/manifest.txt",
        "id = da\ntarget = Tgt(d)\n",
        ("id = da\ntarget Tgt(d)\n", ":2: expected 'key = value', got 'target Tgt(d)'"),
        None,
    ),
    "lso": (
        ["materialize"], "corpus/domains/da/lsos/lso-000.ont", _lso(0, 1, 1),
        _ONT_MALFORMED, _NOT_ABOX,
    ),
    "external-axioms": (
        ["materialize"], "out/external/da.axioms", "ClassAssert(P d)\n",
        _ONT_MALFORMED, _NOT_ABOX,
    ),
    "config": (
        ["materialize", "--config", "{file}"],
        "fast.cfg",
        FAST_CFG,
        ("epochs = 5\nepochs\n", ":2: expected 'key = value', got 'epochs'"),
        None,
    ),
    "kb.txt": (
        ["import-external"],
        "corpus/kb.txt",
        KB,
        (
            "APT1\tLAX\n",
            ":1: expected 4 tab-separated fields (id, labels, types, props), got 2",
        ),
        None,
    ),
    "kb_map.txt": (
        ["import-external"],
        "corpus/kb_map.txt",
        KB_MAP,
        (
            "type Song\n",
            ":1: expected 'type X -> Y', 'prop X -> Z' or 'drop-unmapped = ...', "
            "got 'type Song'",
        ),
        None,
    ),
    "auc-csv": (
        ["fti", "--auc-csv", "{file}"],
        "measured.csv",
        "source,target,auc_base,auc_hard,auc_soft\nda,db,0.5,0.5,0.5\n",
        (
            "source,target,auc_base,auc_hard,auc_soft\nda,db,0.5\n",
            ":2: expected 5 fields, got 3",
        ),
        None,
    ),
}


@pytest.mark.parametrize(
    "name, fault",
    [
        (name, fault)
        for name, spec in INPUT_FILES.items()
        for fault in ("malformed", "wrong-kind", "not-utf-8")
        if fault != "wrong-kind" or spec[4] is not None
    ],
)
def test_every_bad_input_file_exits_2_naming_it(name, fault, corpus_dir, tmp_path, capsys):
    stage, rel, valid, malformed, wrong_kind = INPUT_FILES[name]
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    if fault == "not-utf-8":
        # a Latin-1 line after valid ones, as an editor in that encoding leaves it
        path.write_bytes(valid.encode() + "télé\n".encode("latin-1"))
        n = len(valid.splitlines()) + 1
        suffix = f":{n}: not UTF-8 text (invalid continuation byte)"
    else:
        text, suffix = malformed if fault == "malformed" else wrong_kind
        path.write_text(text)
    argv = [arg.format(file=path) for arg in stage]
    argv += ["--corpus", str(tmp_path / "corpus"), "--outdir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"data error: {path}{suffix}\n"


def test_report_without_fti_artifact_exits_2(corpus_dir, tmp_path, capsys):
    code = main(
        ["report", "--corpus", str(corpus_dir), "--outdir", str(tmp_path / "o")]
    )
    assert code == 2
    assert "run the fti stage first" in capsys.readouterr().err


# -- the pipeline ------------------------------------------------------------------


def test_pipeline_stages_write_resumable_artifacts(
    corpus_dir, fast_cfg, tmp_path_factory, capsys
):
    out = tmp_path_factory.mktemp("cliout")
    base = [
        "--corpus", str(corpus_dir),
        "--outdir", str(out),
        "--config", str(fast_cfg),
    ]

    assert main(["materialize"] + base) == 0
    atoms_before = (out / "closures" / "da.atoms").read_text()
    assert "Marker(d)" in atoms_before  # TBox fired
    assert "iataCode" not in atoms_before

    assert main(["mine-roots"] + base) == 0
    roots = (out / "roots" / "da.roots").read_text()
    assert "frequent\tAirport(LAX)" in roots
    assert "root-individual\tLAX" in roots
    inds = (out / "roots" / "da.inds").read_text().split()
    assert "LAX" in inds

    assert main(["import-external"] + base) == 0
    audit = (out / "external" / "da.audit").read_text()
    assert "LAX\tSONG1\trejected\tlso-" in audit
    assert "LAX\tAPT1\taccepted" in audit
    assert "d\t-\tno-match" in audit
    axioms = (out / "external" / "da.axioms").read_text()
    assert "RoleAssert(iataCode LAX LAX)" in axioms

    # a rerun of materialize now sees the imported axioms
    assert main(["materialize"] + base) == 0
    assert "iataCode(LAX,LAX)" in (out / "closures" / "da.atoms").read_text()

    assert main(["fti"] + base) == 0
    csv_text = (out / "fti" / "auc.csv").read_text()
    assert csv_text.startswith("source,target,auc_base,auc_hard,auc_soft")
    assert len(csv_text.splitlines()) == 1 + 12  # 4 domains, ordered pairs
    matrix = (out / "fti" / "matrix.tsv").read_text().splitlines()
    assert matrix[0] == "source\ttarget\tauc_base\tauc_hard\tauc_soft\tfsi\tfgi\tfti"
    assert len(matrix) == 1 + 12

    capsys.readouterr()
    assert main(["explain", "--evidence", "d_obs"] + base) == 0
    explained = capsys.readouterr().out
    assert "d_obs" in explained and "n=12" in explained

    assert main(["report"] + base) == 0
    printed = capsys.readouterr().out
    assert "Transfer evidence report" in printed
    assert "context search:" in printed
    for name in ["general.tsv", "narrators.tsv", "contexts.tsv"]:
        table = (out / "evidence" / name).read_text()
        assert table.splitlines()[0].startswith("evidence\t")
    data = json.loads((out / "report.json").read_text())
    assert sorted(data["domains"]) == ["da", "db", "dc", "dd"]
    assert len(data["general"]) == 3
    assert (out / "report.txt").read_text().startswith("Transfer evidence report")


def _two_family_aucs(csv):
    """Measured AUCs for every ordered pair of mini_flights' eight domains,
    in two families: transfer within one helps, across hurts."""
    rng = random.Random(0)
    ids = [f"{family}{i}" for family in "AB" for i in range(1, 5)]
    base = {t: rng.uniform(0.6, 0.8) for t in ids}
    lines = ["source,target,auc_base,auc_hard,auc_soft"]
    for s in ids:
        for t in ids:
            if s != t:
                near = s[0] == t[0]
                hard = base[t] - rng.uniform(0.0, 0.05 if near else 0.2)
                soft = base[t] + rng.uniform(0.0, 0.08) - (0.0 if near else 0.06)
                lines.append(f"{s},{t},{base[t]:.6f},{hard:.6f},{soft:.6f}")
    csv.write_text("\n".join(lines) + "\n")
    return csv


def test_evidence_tables_hold_the_report_json_rows_in_rank_order(tmp_path):
    csv = _two_family_aucs(tmp_path / "measured.csv")
    out = tmp_path / "o"
    argv = ["report", "--corpus", str(MINI_FLIGHTS), "--outdir", str(out), "--auc-csv", str(csv)]
    assert main(argv) == 0
    data = json.loads((out / "report.json").read_text())

    def table(name):
        """The rows of evidence/<name>.tsv in the report.json form."""
        header, *rows = (out / "evidence" / f"{name}.tsv").read_text().splitlines()
        parsed = []
        for row in rows:
            cell = dict(zip(header.split("\t"), row.split("\t")))
            item = {
                "evidence": cell["evidence"],
                "gamma": None if cell["gamma"] == "NA" else float(cell["gamma"]),
                "rho": None if cell["rho"] == "NA" else float(cell["rho"]),
                "n": int(cell["n"]),
                "valid": {"yes": True, "no": False}[cell["valid"]],
                "reason": None if cell["reason"] == "-" else cell["reason"],
            }
            if "cover" in cell:
                item["cover"] = int(cell["cover"])
            parsed.append(item)
        return parsed

    def ranked(items):
        return sorted(items, key=lambda item: rank_key(SimpleNamespace(**item)))

    for name in ("general", "narrators", "contexts"):
        # general.tsv has no kind column: its evidence text already names the kind
        rows = [{k: v for k, v in item.items() if k != "kind"} for item in data[name]]
        # all three general factors are valid on these AUCs
        mixed = {True} if name == "general" else {True, False}
        assert {item["valid"] for item in rows} == mixed, name
        assert rows == ranked(rows), name
        assert table(name) == rows, name


def test_rerun_of_roots_and_import_is_stable(tmp_path):
    # on mini_flights the import adds individuals (ATL, Chicago, ...) that
    # mining would take as roots if it saw the imported axioms, and the next
    # import would then query them
    base = ["--corpus", str(MINI_FLIGHTS), "--outdir", str(tmp_path)]

    def artifacts():
        return {
            p.relative_to(tmp_path): p.read_bytes()
            for sub in ("roots", "external")
            for p in (tmp_path / sub).iterdir()
        }

    for stage in ("materialize", "mine-roots", "import-external"):
        assert main([stage] + base) == 0
    first = artifacts()
    for stage in ("mine-roots", "import-external"):
        assert main([stage] + base) == 0
    assert artifacts() == first


def test_import_external_mines_roots_with_its_own_config(tmp_path):
    # roots/ left by mine-roots at another sigma must not reach the import
    stale, fresh = tmp_path / "stale", tmp_path / "fresh"
    corpus = ["--corpus", str(MINI_FLIGHTS)]
    assert main(["mine-roots", *corpus, "--outdir", str(stale), "--sigma", "0.3", "--tau", "0.2"]) == 0
    assert main(["import-external", *corpus, "--outdir", str(stale)]) == 0
    assert main(["import-external", *corpus, "--outdir", str(fresh)]) == 0
    for f in sorted((fresh / "external").iterdir()):
        assert (stale / "external" / f.name).read_bytes() == f.read_bytes(), f.name


def test_a_nominal_assertion_on_an_unmentioned_individual_materializes(tmp_path):
    # AAA appears nowhere else in the corpus; w merges into it
    root = tmp_path / "corpus"
    shutil.copytree(MINI_FLIGHTS, root)
    lso = root / "domains" / "A1" / "lsos" / "lso-000.ont"
    lso.write_text(lso.read_text() + "ClassAssert(Nom(AAA) w)\n")
    out = tmp_path / "out"
    assert main(["materialize", "--corpus", str(root), "--outdir", str(out)]) == 0
    atoms = (out / "closures" / "A1.atoms").read_text().splitlines()
    assert "hasWea(d,AAA)" in atoms and "Windy(AAA)" in atoms


def test_report_and_explain_reject_unknown_domains(corpus_dir, tmp_path, capsys):
    csv = tmp_path / "measured.csv"
    csv.write_text(
        "source,target,auc_base,auc_hard,auc_soft\n"
        "da,db,0.6,0.55,0.7\n"
        "ZZ,da,0.5,0.52,0.66\n"
    )
    out = tmp_path / "o"
    base = ["--corpus", str(corpus_dir), "--outdir", str(out), "--auc-csv", str(csv)]
    capsys.readouterr()
    for argv in (["report"], ["explain", "--evidence", "d_obs"]):
        assert main(argv + base) == 2
        assert f"{csv}: domains not in the corpus: ZZ" in capsys.readouterr().err
    assert not out.exists()


def test_a_domain_without_transfer_results_leaves_the_report_unchanged(tmp_path, capsys):
    # Z1's LSOs never entail the target, so fti skips it for having one
    # class and auc.csv names no pair of it; report and explain must then
    # compare the other eight domains exactly as without it
    from test_golden import GOLDEN as golden, regen

    corpus = tmp_path / "corpus"
    shutil.copytree(MINI_FLIGHTS, corpus)
    lsos = corpus / "domains" / "Z1" / "lsos"
    lsos.mkdir(parents=True)
    (lsos.parent / "manifest.txt").write_text("id = Z1\ntarget = DelayedDep(d)\n")
    for i in range(10):
        (lsos / f"lso-00{i}.ont").write_text(f"ClassAssert(Departure d)\nRoleAssert(hasZ d z{i})\n")
    regen.run_stages(corpus, golden / "auc.csv", tmp_path / "z1")

    got, want = tmp_path / "z1", golden
    same = ["stdout/report.stdout", "out/report.json", "out/report.txt"]
    same += [f"out/evidence/{t}.tsv" for t in ("general", "narrators", "contexts")]
    for sub in ("closures", "roots", "external"):
        names = sorted(p.name for p in (want / "out" / sub).iterdir())
        assert names and not any(n.startswith("Z1") for n in names)
        same += [f"out/{sub}/{n}" for n in names]
    for rel in same:
        assert (got / rel).read_bytes() == (want / rel).read_bytes(), rel

    def explain(corpus_path, outdir):
        argv = ["explain", "--corpus", str(corpus_path), "--outdir", str(outdir)]
        assert main(argv + ["--auc-csv", str(golden / "auc.csv"), "--evidence", "d_obs"]) == 0
        return capsys.readouterr().out

    capsys.readouterr()
    assert explain(corpus, got / "out") == explain(MINI_FLIGHTS, want / "out")


def test_every_stage_skips_a_domain_with_an_inconsistent_lso(tmp_path, capsys, caplog):
    # one contradictory LSO in A1: the knowledge stages skip the domain as
    # fti does, and every other domain's closures, roots and import are
    # the golden ones
    from test_golden import GOLDEN as golden

    corpus = tmp_path / "corpus"
    shutil.copytree(MINI_FLIGHTS, corpus)
    lso = corpus / "domains" / "A1" / "lsos" / "lso-000.ont"
    lso.write_text(lso.read_text() + "SameInd(p q)\nDiffInd(p q)\n")
    skip = (
        "skipping domain A1: LSO 'lso-000' of domain A1 is inconsistent (p and q "
        "asserted distinct but derived equal); roots and features need consistent LSOs"
    )
    out = tmp_path / "out"
    fast = ["--epochs", "2", "--ensemble", "1"]
    for stage in ("materialize", "mine-roots", "import-external", "fti", "report"):
        caplog.clear()
        capsys.readouterr()
        argv = [stage, "--corpus", str(corpus), "--outdir", str(out)]
        assert main(argv + (fast if stage == "fti" else [])) == 0, stage
        skipped = [r.getMessage() for r in caplog.records]
        assert skipped == ([] if stage in ("materialize", "report") else [skip]), stage
        if stage in ("mine-roots", "import-external"):
            want = (golden / "stdout" / f"{stage}.stdout").read_text().splitlines()
            assert capsys.readouterr().out.splitlines() == [
                line for line in want if not line.startswith("A1:")
            ]
    for sub in ("closures", "roots", "external"):
        names = sorted(p.name for p in (golden / "out" / sub).iterdir())
        got = sorted(p.name for p in (out / sub).iterdir())
        assert got == [n for n in names if sub == "closures" or not n.startswith("A1.")]
        for name in got:
            if name != "A1.atoms":
                assert (out / sub / name).read_bytes() == (golden / "out" / sub / name).read_bytes()
    assert "A1" not in (out / "fti" / "auc.csv").read_text()


def test_report_and_explain_refuse_aucs_measured_on_a_refused_domain(tmp_path, capsys):
    # the golden AUCs measure A1, whose closure would silently drop its
    # contradictory LSO
    from test_golden import GOLDEN as golden

    corpus = tmp_path / "corpus"
    shutil.copytree(MINI_FLIGHTS, corpus)
    lso = corpus / "domains" / "A1" / "lsos" / "lso-000.ont"
    lso.write_text(lso.read_text() + "SameInd(p q)\nDiffInd(p q)\n")
    base = ["--corpus", str(corpus), "--outdir", str(tmp_path / "out"),
            "--auc-csv", str(golden / "auc.csv")]
    capsys.readouterr()
    for argv in (["report"], ["explain", "--evidence", "d_obs"]):
        assert main(argv + base) == 2, argv
        assert capsys.readouterr().err == (
            "data error: LSO 'lso-000' of domain A1 is inconsistent (p and q asserted "
            "distinct but derived equal); roots and features need consistent LSOs\n"
        )
    assert not (tmp_path / "out" / "report.json").exists()


def test_explain_validates_thresholds_as_report_does(corpus_dir, tmp_path, capsys):
    csv = tmp_path / "measured.csv"
    csv.write_text(
        "source,target,auc_base,auc_hard,auc_soft\n"
        "da,db,0.6,0.55,0.7\n"
        "db,da,0.5,0.52,0.66\n"
    )
    base = [
        "--corpus", str(corpus_dir), "--outdir", str(tmp_path / "o"),
        "--auc-csv", str(csv),
    ]
    capsys.readouterr()
    for flag, message in (
        (["--alpha", "2"], "alpha must be in (0, 1), got 2.0"),
        (["--epsilon", "nan"], "epsilon must be in [0, 1], got nan"),
        (["--n-min", "2"], "n_min must be at least 3, got 2"),
    ):
        for argv in (["report"], ["explain", "--evidence", "d_obs"]):
            assert main(argv + base + flag) == 2
            assert message in capsys.readouterr().err


def test_fti_ingests_measured_aucs(corpus_dir, tmp_path, capsys):
    csv = tmp_path / "measured.csv"
    csv.write_text(
        "source,target,auc_base,auc_hard,auc_soft\n"
        "da,db,0.6,0.55,0.7\n"
        "db,da,0.5,0.52,0.66\n"
    )
    out = tmp_path / "o"
    code = main(
        [
            "fti", "--corpus", str(corpus_dir), "--outdir", str(out),
            "--auc-csv", str(csv),
        ]
    )
    assert code == 0
    matrix = (out / "fti" / "matrix.tsv").read_text().splitlines()
    assert len(matrix) == 3
    # fti = ((auc_soft - auc_base) - (auc_base - auc_hard)) / 2 at equal weights
    first = matrix[1].split("\t")
    assert first[:2] == ["da", "db"]
    assert float(first[-1]) == pytest.approx((0.1 - 0.05) / 2)

    capsys.readouterr()
    assert main(
        [
            "explain", "--corpus", str(corpus_dir), "--outdir", str(out),
            "--evidence", "d_obs",
        ]
    ) == 0
    # only two measured pairs: scored but honestly reported as too few
    assert "n=2" in capsys.readouterr().out


def test_fti_ingestion_does_not_parse_the_corpus(corpus_dir, tmp_path, monkeypatch):
    def refuse(path):
        raise AssertionError("fti --auc-csv parsed the corpus")

    monkeypatch.setattr(cli, "load_corpus", refuse)
    csv = tmp_path / "measured.csv"
    csv.write_text("source,target,auc_base,auc_hard,auc_soft\nda,db,0.6,0.55,0.7\n")
    out = tmp_path / "o"
    args = ["--corpus", str(corpus_dir), "--outdir", str(out), "--auc-csv", str(csv)]
    assert main(["fti", *args]) == 0
    assert (out / "fti" / "auc.csv").exists()


def test_fti_rejects_a_nan_auc(corpus_dir, tmp_path, capsys):
    csv = tmp_path / "measured.csv"
    csv.write_text(
        "source,target,auc_base,auc_hard,auc_soft\n"
        "da,db,0.6,0.55,0.7\n"
        "db,da,0.5,0.52,nan\n"
    )
    out = tmp_path / "o"
    code = main(
        ["fti", "--corpus", str(corpus_dir), "--outdir", str(out), "--auc-csv", str(csv)]
    )
    assert code == 2
    assert f"{csv}:3:" in capsys.readouterr().err
    assert not (out / "fti").exists()


@pytest.mark.parametrize(
    "stage", ["materialize", "mine-roots", "import-external", "fti", "report", "explain"]
)
def test_every_stage_refuses_any_bad_tuning_value_before_reading(
    stage, tmp_path, monkeypatch, capsys
):
    # a value only another stage uses still fails here, before the corpus is read
    def refuse(path):
        raise AssertionError(f"{stage} read the corpus")

    monkeypatch.setattr(cli, "load_corpus", refuse)
    out = tmp_path / "o"
    argv = [stage, "--corpus", str(MINI_FLIGHTS), "--outdir", str(out)]
    if stage == "explain":
        argv += ["--evidence", "d_obs"]
    capsys.readouterr()
    for flag, message in (
        (["--lr", "nan"], "learning rate must be positive and finite, got nan"),
        (["--max-dim", "1"], "max_dim must be at least 2, got 1"),
        (["--epsilon", "2"], "epsilon must be in [0, 1], got 2.0"),
        (["--omega1", "5"], "weights must lie in [0, 1], got 5.0, 1.0"),
        (["--omega2", "nan"], "weights must lie in [0, 1], got 1.0, nan"),
    ):
        assert main(argv + flag) == 2, flag
        assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow being tested
def test_fti_rejects_a_divergent_learning_rate(corpus_dir, tmp_path, capsys):
    out = tmp_path / "o"
    args = ["--corpus", str(corpus_dir), "--outdir", str(out)]
    assert main(["fti", *args, "--epochs", "3", "--ensemble", "1", "--lr", "1e300"]) == 2
    assert "scores must be finite" in capsys.readouterr().err
    assert not (out / "fti").exists()


def test_fti_rejects_a_train_fraction_outside_the_unit_interval(corpus_dir, tmp_path, capsys):
    out = tmp_path / "o"
    args = ["--corpus", str(corpus_dir), "--outdir", str(out)]
    assert main(["fti", *args, "--train-frac", "1.5"]) == 2
    err = capsys.readouterr().err
    assert "train_frac must be in (0, 1), got 1.5" in err
    assert "skipping domain" not in err
    assert not (out / "fti").exists()


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert "ok" in capsys.readouterr().out.lower()


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "transferlens", "selftest"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


_RUN_STAGES = """\
import json, runpy, sys
corpus, outdir, stages = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
for argv in stages:
    sys.argv = ["transferlens", *argv, "--corpus", corpus, "--outdir", outdir]
    try:
        runpy.run_module("transferlens", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        if exc.code:
            raise
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))))
"""


def _modules_after(stages, outdir):
    """The numpy and scipy modules loaded by running ``stages`` in one
    fresh process, keyed by package."""
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_STAGES, str(MINI_FLIGHTS), str(outdir), json.dumps(stages)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    return {top: {m for m in loaded if m.split(".")[0] == top} for top in ("numpy", "scipy")}


def test_knowledge_stages_load_no_numpy(tmp_path):
    # parsing, closures, mining and the gated import compute nothing with numpy
    stages = [["materialize"], ["mine-roots"], ["import-external"]]
    loaded = _modules_after(stages, tmp_path / "out")
    assert loaded == {"numpy": set(), "scipy": set()}


def test_selftest_loads_neither_numpy_nor_scipy(tmp_path):
    # its random transfer values and Pearson vectors are plain Python numbers
    loaded = _modules_after([["selftest"]], tmp_path / "out")
    assert loaded == {"numpy": set(), "scipy": set()}


def test_knowledge_stages_and_auc_ingestion_load_no_scipy(tmp_path):
    csv = tmp_path / "measured.csv"
    csv.write_text(
        "source,target,auc_base,auc_hard,auc_soft\n"
        "A1,B1,0.6,0.55,0.7\n"
        "B1,A1,0.5,0.52,0.66\n"
    )
    stages = [["materialize"], ["mine-roots"], ["import-external"], ["fti", "--auc-csv", str(csv)]]
    assert _modules_after(stages, tmp_path / "out")["scipy"] == set()


def test_report_and_explain_load_neither_numpy_nor_scipy(tmp_path):
    # the tracker sees numpy where it is loaded: training computes with it
    trained = _modules_after([["fti", "--epochs", "2", "--ensemble", "1"]], tmp_path / "trained")
    assert "numpy" in trained["numpy"]
    # every ordered pair is measured, so both stages compute significances;
    # explain reads the AUCs that fti --auc-csv stored
    csv = str(_two_family_aucs(tmp_path / "measured.csv"))
    stages = [["fti", "--auc-csv", csv], ["report", "--auc-csv", csv], ["explain", "--evidence", "d_obs"]]
    loaded = _modules_after(stages, tmp_path / "out")
    assert loaded == {"numpy": set(), "scipy": set()}
    assert json.loads((tmp_path / "out" / "report.json").read_text())["general"][0]["rho"] is not None


_SCAN = """\
import json, sys
from transferlens.contexts import SearchConfig, core_context_search
from transferlens.corpus import load_corpus
from transferlens.harness import fti_from_records, records_from_csv
corpus = load_corpus(sys.argv[1])
fti = fti_from_records(records_from_csv(sys.argv[2]))
scan = core_context_search(corpus.domains, fti, SearchConfig(max_dim=3, early_stop=False))
assert scan.stats.evaluated > 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))))
"""


def test_scan_of_measured_aucs_loads_neither_numpy_nor_scipy(tmp_path):
    # the imports and calls of an exhaustive scan script over a measured CSV
    csv = _two_family_aucs(tmp_path / "measured.csv")
    proc = subprocess.run(
        [sys.executable, "-c", _SCAN, str(MINI_FLIGHTS), str(csv)], capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_training_and_report_load_no_scipy_stats(tmp_path):
    stages = [["fti", "--epochs", "2", "--ensemble", "1"], ["report"]]
    loaded = _modules_after(stages, tmp_path / "out")["scipy"]
    assert "scipy.special" in loaded
    assert "scipy.stats" not in loaded


def test_selftest_fails_under_optimized_python():
    # -O strips assert statements; a broken check must still fail the run
    script = (
        "import dataclasses, sys\n"
        "from transferlens import selfcheck\n"
        "from transferlens.cli import main\n"
        "assert False, 'asserts are live, so -O did not take effect'\n"
        "real = selfcheck.materialize\n"
        "selfcheck.materialize = lambda t, a: dataclasses.replace(\n"
        "    real(t, a), class_atoms=frozenset(), role_atoms=frozenset())\n"
        "sys.exit(main(['selftest']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "FAIL closure-fixture: closure mismatch" in proc.stdout
