"""Regenerate the golden outdir ``tests/golden/mini_flights/``.

Runs ``materialize``, ``mine-roots``, ``import-external`` and
``report --auc-csv`` on ``corpora/mini_flights`` at default config, all in
one process through ``transferlens.cli.main``.  The AUCs come from the
committed ``auc.csv`` in the golden directory, so no stage trains and no
byte depends on the BLAS build.  The outdir goes to ``out/`` and each
stage's stdout to ``stdout/<stage>.stdout``; ``auc.csv`` itself is input
and is left as it is.

    PYTHONPATH=src python tools/regen_golden.py

``tests/test_golden.py`` reruns the same stages into a temporary directory
and compares every byte.  Regenerate only for an intended output change,
and list each changed file in ``CHANGES.md``.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpora" / "mini_flights"
GOLDEN = ROOT / "tests" / "golden" / "mini_flights"
STAGES = ("materialize", "mine-roots", "import-external", "report")


def run_stages(corpus: Path, auc_csv: Path, dest: Path) -> None:
    """Run the four stages into ``dest/out`` and ``dest/stdout``."""
    from transferlens.cli import main

    (dest / "stdout").mkdir(parents=True)
    for stage in STAGES:
        argv = [stage, "--corpus", str(corpus), "--outdir", str(dest / "out")]
        if stage == "report":
            argv += ["--auc-csv", str(auc_csv)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"{stage} exited {code}")
        (dest / "stdout" / f"{stage}.stdout").write_text(buf.getvalue(), encoding="utf-8")


def main() -> int:
    for sub in ("out", "stdout"):
        shutil.rmtree(GOLDEN / sub, ignore_errors=True)
    run_stages(CORPUS, GOLDEN / "auc.csv", GOLDEN)
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
