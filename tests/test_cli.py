import argparse
import json
import subprocess
import sys
from dataclasses import fields

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
    with pytest.raises(DataError, match="does not exist"):
        load_config_file(tmp_path / "absent.cfg")

    p = tmp_path / "c.cfg"
    for text, pattern in [
        ("epochs\n", "key = value"),
        ("color = red\n", "unknown config key"),
        ("epochs = 5\nepochs = 6\n", "duplicate"),
        ("epochs = many\n", "must be a integer"),
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
