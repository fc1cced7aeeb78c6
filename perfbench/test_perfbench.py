"""Tests for the benchmark itself.

    python3 -m pytest perfbench -q

Runs every workload end to end in ``--smoke`` mode and shows that each
output check rejects a deliberately corrupted output.  The end-to-end tests
write under perfbench/_work/, so do not run them while a benchmark runs.
"""

from __future__ import annotations

import csv
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# -- generators -------------------------------------------------------------------


def test_fleet_generator_is_deterministic_per_seed(tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        gen.write_fleet(gen.fleet_spec(seed, 4, 12), tmp_path / name)
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
    assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "c")


def test_auc_generator_is_deterministic_per_seed(tmp_path):
    fams = gen.mini_families()
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        gen.write_auc_csv(gen.auc_rows(seed, fams), tmp_path / f"{name}.csv")
    a, b, c = ((tmp_path / f"{n}.csv").read_bytes() for n in "abc")
    assert a == b and a != c
    rows = gen.auc_rows(5, fams)
    assert len(rows) == 56 and all(0.0 <= v <= 1.0 for r in rows for v in r[2:])


def test_fleet_routes_do_not_depend_on_the_seed():
    assert gen.fleet_spec(1, 5, 3).routes == gen.fleet_spec(2, 5, 3).routes


# -- the command, end to end ---------------------------------------------------------


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    res = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_smoke_run_prints_every_per_layer_metric():
    res = bench("--workload", "flights-train", "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    # every layer does some work on the training path
    for name in ("corpus.load_s", "reasoner.materialize_s", "mining.mine_s", "kb.import_s",
                 "harness.fit_s", "evidence.score_s", "contexts.search_s", "cli.self_s"):
        assert out["metrics"][name]["value"] > 0, name


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    res = bench("--workload", "flights-train", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout.strip() == ""


# -- the checks reject corrupted outputs ---------------------------------------------------


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One smoke round per workload, checked clean once."""
    made = {}
    for name in list(run.WORKLOADS):
        work = tmp_path_factory.mktemp(name)
        wl = run.WORKLOADS[name](3, work, True)
        rnd = run.run_round(wl, work / "out", traced=False)
        assert rnd.failed == 0
        wl.check(work / "out")
        made[name] = (wl, work / "out")
    return made


def corrupted(outputs, name, tmp_path, edit):
    wl, out = outputs[name]
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    edit(bad)
    with pytest.raises(checks.CheckError):
        wl.check(bad)


def rewrite_csv(path: Path, edit_rows) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit_rows(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_flipped_auc_fails_the_matrix_check(outputs, tmp_path):
    def flip(out):
        rewrite_csv(out / "fti" / "auc.csv", lambda rows: rows[1].__setitem__(3, repr(1 - float(rows[1][3]))))

    corrupted(outputs, "flights-train", tmp_path, flip)


def test_flipped_auc_in_both_tables_fails_the_reference_fit(outputs, tmp_path):
    def flip(out):
        def edit(rows):
            pairs = sorted((r[0], r[1]) for r in rows[1:])
            pick = random.Random(3).choice(pairs)
            row = next(r for r in rows[1:] if (r[0], r[1]) == pick)
            row[4] = repr(1 - float(row[4]))
            base, hard, soft = map(float, row[2:])
            fsi, fgi = base - hard, soft - base
            lines = (out / "fti" / "matrix.tsv").read_text().splitlines()
            lines = [
                "\t".join(row + ["%.17g" % v for v in (fsi, fgi, (fgi - fsi) / 2)])
                if line.split("\t")[:2] == list(pick) else line
                for line in lines
            ]
            (out / "fti" / "matrix.tsv").write_text("\n".join(lines) + "\n")

        rewrite_csv(out / "fti" / "auc.csv", edit)

    corrupted(outputs, "flights-train", tmp_path, flip)


def test_dropped_closure_atom_fails_the_planted_fact_check(outputs, tmp_path):
    def drop(out):
        path = out / "closures" / "F00.atoms"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(ln for ln in lines if ln != "CongestedDep(d)") + "\n")

    corrupted(outputs, "fleet-measured", tmp_path, drop)


def test_perturbed_general_gamma_fails_the_exact_check(outputs, tmp_path):
    def perturb(out):
        path = out / "report.json"
        data = json.loads(path.read_text())
        data["general"][0]["gamma"] += 1e-6
        path.write_text(json.dumps(data))

    corrupted(outputs, "fleet-measured", tmp_path, perturb)


def test_accepted_trap_fails_the_audit_check(outputs, tmp_path):
    def accept(out):
        path = out / "external" / "F03.audit"
        path.write_text(path.read_text().replace("SONG_LAX\trejected", "SONG_LAX\taccepted"))

    corrupted(outputs, "fleet-measured", tmp_path, accept)


def test_perturbed_context_gamma_fails_the_subset_check(outputs, tmp_path):
    def perturb(out):
        path = out / "evidence" / "contexts.tsv"
        lines = path.read_text().splitlines()
        cells = lines[1].split("\t")
        cells[2] = repr(float(cells[2]) + 1e-9)
        lines[1] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n")

    corrupted(outputs, "contexts-audit", tmp_path, perturb)


def test_missing_scan_row_fails_the_count_check(outputs, tmp_path):
    def drop(out):
        path = out / "scan.tsv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")

    corrupted(outputs, "contexts-audit", tmp_path, drop)


def test_perturbed_scan_gamma_fails_the_exact_check(outputs, tmp_path):
    def perturb(out):
        path = out / "scan.tsv"
        text = path.read_text().splitlines()
        rows = [i for i, ln in enumerate(text) if not ln.startswith("#")]
        for i in rows:
            cells = text[i].split("\t")
            if cells[1] != "NA":
                cells[1] = repr(float(cells[1]) + 1e-6)
                text[i] = "\t".join(cells)
        path.write_text("\n".join(text) + "\n")

    corrupted(outputs, "contexts-audit", tmp_path, perturb)
