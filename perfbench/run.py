"""transferlens benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload flights-train --seed 1 --seconds 30 --trace 0

Runs the workload's pipeline stages as separate program processes, in as
many whole rounds as fit in ``--seconds`` (at least one), checks the
outputs and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (pipeline_s,
pipeline_cpu_s, setup_s, peak_rss_mb).  With ``--trace 1`` it runs one
untraced and one traced round and reports per-layer metrics from spans
(see spans.py) plus the tracing overhead.  ``--smoke`` shrinks every
workload for a quick end-to-end test.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
WORK = BENCH / "_work"
MINI = ROOT / "corpora" / "mini_flights"
REQUIRED = (ROOT / "src" / "transferlens" / "cli.py", MINI / "tbox.ont", ROOT / "tools" / "gen_mini_flights.py")

# one BLAS/OpenMP thread in every process: the host has two cores and the
# benchmark is the only load on them
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import checks  # noqa: E402
import spans  # noqa: E402

STAGE_TIMEOUT_S = 170
SETUP_REPS = 5


class StageTimeout(Exception):
    pass


@dataclass
class Stage:
    kind: str  # "cli" runs python -m transferlens, "scan" runs perfbench/scan.py
    args: list[str]


@dataclass
class Workload:
    corpus: Path
    setup_reps: int
    stages: Callable[[Path], list[Stage]]
    check: Callable[[Path], None]


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    span_files: list[Path]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(THREAD_PINS)
    return env


def _alarm(signum, frame):
    raise StageTimeout


def run_process(argv: list[str], log: Path | None = None):
    """Run one program process; (exit status, wall s, cpu s, peak rss MB)."""
    out = open(log, "w") if log else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT if log else None)
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(STAGE_TIMEOUT_S)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except StageTimeout:
            proc.kill()
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if log:
            out.close()
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def stage_argv(stage: Stage, span_file: Path | None) -> list[str]:
    py = sys.executable
    if span_file is not None:
        return [py, str(BENCH / "spans.py"), str(span_file), stage.kind, *stage.args]
    if stage.kind == "cli":
        return [py, "-m", "transferlens", *stage.args]
    return [py, str(BENCH / "scan.py"), *stage.args]


def run_round(wl: Workload, outdir: Path, traced: bool) -> Round:
    """All stages once, in order, into a fresh output directory."""
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    stages = wl.stages(outdir)
    logs = outdir / "logs"
    logs.mkdir()
    cpu = rss = 0.0
    failed = 0
    span_files = []
    t0 = time.perf_counter()
    for i, stage in enumerate(stages):
        span_file = outdir / "logs" / f"spans-{i}.json" if traced else None
        code, _, s_cpu, s_rss = run_process(stage_argv(stage, span_file), logs / f"stage-{i}.log")
        cpu += s_cpu
        rss = max(rss, s_rss)
        if code != 0:
            failed += 1
            print(f"stage {i} {stage.kind} {stage.args[:1]} exited {code}; see {logs}", file=sys.stderr)
        elif span_file is not None:
            span_files.append(span_file)
    wall = time.perf_counter() - t0
    return Round(wall, cpu, rss, len(stages), failed, span_files)


def time_setup(corpus: Path) -> float:
    code = (
        "import sys, transferlens.cli\n"
        "from transferlens.corpus import load_corpus\n"
        "load_corpus(sys.argv[1])\n"
    )
    status, wall, _, _ = run_process([sys.executable, "-c", code, str(corpus)])
    if status != 0:
        raise RuntimeError(f"setup process exited {status}")
    return wall


def digest(outdir: Path) -> str:
    """Hash of every artifact a round wrote, span files excluded."""
    h = hashlib.sha256()
    for p in sorted(outdir.rglob("*")):
        if p.is_file() and not p.name.startswith("spans-"):
            h.update(str(p.relative_to(outdir)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# -- workloads -------------------------------------------------------------------


def explain_with(corpus: Path, outdir: Path):
    def explain(evidence: str) -> str:
        res = subprocess.run(
            [sys.executable, "-m", "transferlens", "explain", "--corpus", str(corpus),
             "--outdir", str(outdir), "--evidence", evidence],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=STAGE_TIMEOUT_S,
        )
        if res.returncode != 0:
            raise checks.CheckError(f"explain exited {res.returncode}: {res.stderr.strip()}")
        return res.stdout

    return explain


def five_stages(corpus: Path, extra: list[str], fti: list[str]):
    def stages(outdir: Path) -> list[Stage]:
        common = ["--corpus", str(corpus), "--outdir", str(outdir), *extra]
        return [
            Stage("cli", ["materialize", *common]),
            Stage("cli", ["mine-roots", *common]),
            Stage("cli", ["import-external", *common]),
            Stage("cli", ["fti", *common, *fti]),
            Stage("cli", ["report", *common]),
        ]

    return stages


def flights_train(seed: int, work: Path, smoke: bool) -> Workload:
    # default config; --smoke trains less but keeps every check
    train = {"epochs": 60, "ensemble": 3} if smoke else {}
    flags = [f"--{k}={v}" for k, v in train.items()]
    return Workload(
        corpus=MINI,
        setup_reps=SETUP_REPS,
        stages=five_stages(MINI, flags, []),
        check=lambda out: checks.check_flights_train(
            MINI, out, seed, train, explain_with(MINI, out)),
    )


def fleet_measured(seed: int, work: Path, smoke: bool) -> Workload:
    import gen  # needs tools/, so only after main() has checked the checkout

    n_domains, n_lsos = (6, 40) if smoke else (gen.FLEET_DOMAINS, gen.FLEET_LSOS)
    spec = gen.fleet_spec(seed, n_domains, n_lsos)
    corpus = work / "corpus"
    gen.write_fleet(spec, corpus)
    rows = gen.auc_rows(seed, {r.id: r.family for r in spec.routes})
    csv_path = work / "measured_auc.csv"
    gen.write_auc_csv(rows, csv_path)
    return Workload(
        corpus=corpus,
        setup_reps=3,
        stages=five_stages(corpus, [], ["--auc-csv", str(csv_path)]),
        check=lambda out: checks.check_fleet(spec, corpus, out, rows, seed),
    )


# deep enough that the exhaustive scan (190,050 cluster sets) dominates the round
CONTEXT_MAX_DIM = 6


def contexts_audit(seed: int, work: Path, smoke: bool) -> Workload:
    import gen

    max_dim = 4 if smoke else CONTEXT_MAX_DIM
    rows = gen.auc_rows(seed, gen.mini_families())
    csv_path = work / "measured_auc.csv"
    gen.write_auc_csv(rows, csv_path)

    def stages(outdir: Path) -> list[Stage]:
        return [
            Stage("cli", ["report", "--corpus", str(MINI), "--outdir", str(outdir),
                          "--auc-csv", str(csv_path)]),
            Stage("scan", [str(MINI), str(csv_path), str(max_dim), str(outdir / "scan.tsv")]),
        ]

    return Workload(
        corpus=MINI,
        setup_reps=SETUP_REPS,
        stages=stages,
        check=lambda out: checks.check_contexts(MINI, out, out / "scan.tsv", rows, max_dim, seed),
    )


WORKLOADS = {
    "flights-train": flights_train,
    "fleet-measured": fleet_measured,
    "contexts-audit": contexts_audit,
}


# -- measuring -------------------------------------------------------------------


def check_round(wl: Workload, outdir: Path) -> bool:
    try:
        wl.check(outdir)
    except checks.CheckError as err:
        print(f"check failed: {err}", file=sys.stderr)
        return False
    return True


def measure(wl: Workload, work: Path, seconds: float) -> tuple[bool, int, int, dict]:
    setup = [time_setup(wl.corpus) for _ in range(wl.setup_reps)]
    rounds: list[Round] = []
    first = work / "round-0"
    t0 = time.perf_counter()
    while True:
        outdir = first if not rounds else work / "round-n"
        rounds.append(run_round(wl, outdir, traced=False))
        if len(rounds) > 1 and rounds[-1].failed == 0 and digest(outdir) != digest(first):
            print("a repeated round wrote different artifacts", file=sys.stderr)
            rounds[-1].failed = rounds[-1].attempted
        # whole rounds only: stop before one that would overrun the run
        if time.perf_counter() - t0 + rounds[-1].wall_s > seconds:
            break
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = failed == 0 and check_round(wl, first)
    return correct, attempted, failed, with_units("end_to_end", {
        "pipeline_s": statistics.median(r.wall_s for r in rounds),
        "pipeline_cpu_s": statistics.median(r.cpu_s for r in rounds),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r.peak_rss_mb for r in rounds),
    })


def with_units(kind: str, values: dict[str, float]) -> dict:
    """The metrics BENCHMARK.json lists under ``kind``, in its order and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}


def measure_traced(wl: Workload, work: Path) -> tuple[bool, int, int, dict]:
    plain = run_round(wl, work / "round-0", traced=False)
    traced = run_round(wl, work / "round-traced", traced=True)
    rounds = (plain, traced)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    same = failed == 0 and digest(work / "round-0") == digest(work / "round-traced")
    if failed == 0 and not same:
        print("the traced round wrote different artifacts", file=sys.stderr)
    correct = same and check_round(wl, work / "round-traced")
    if failed:
        return correct, attempted, failed, {}
    values = spans.layer_metrics(traced.span_files)
    values["trace.pipeline_s"] = traced.wall_s
    values["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return correct, attempted, failed, with_units("per_layer", values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small inputs, for tests")
    args = p.parse_args(argv)

    missing = [str(f.relative_to(ROOT)) for f in REQUIRED if not f.exists()]
    if missing:
        print(f"not a transferlens checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, work, args.smoke)
    if args.trace:
        correct, attempted, failed, metrics = measure_traced(wl, work)
    else:
        correct, attempted, failed, metrics = measure(wl, work, args.seconds)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
