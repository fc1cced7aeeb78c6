import re
import sys
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent

# make the oracle/generator helper modules importable from any test
sys.path.insert(0, str(TESTS_DIR))

MINI_FLIGHTS = REPO_ROOT / "corpora" / "mini_flights"

# one summary line per acceptance criterion, printed after the run
CRITERIA = {
    1: "change-rate worked example reproduced to 1e-9 in under 1 ms",
    2: "flight fixture closure exact; 200 random closures match the naive oracle in under 5 s",
    3: "pearson and p_value match independent oracles on 100 random vectors; worked examples hold",
    4: "1000 synchronized extensions carry bit-identical (gamma, rho)",
    5: "cluster-set scan equals exhaustive enumeration; every valid set's mask is a valid concept with its cover, under 30 s",
    6: "transfer-index signs on a 20x20 grid; domain-shrink asserts; mining anti-monotone P1-P5",
    7: "obsolescence factor discriminates over 10 seeds; planted context recovered",
    8: "homonym entity rejected, airport accepted, all post-import observations consistent",
    9: "92-domain AUC matrix ingested and reported without error",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    stats = terminalreporter.stats
    outcome_of = {}
    for status in ("passed", "failed", "error"):
        for rep in stats.get(status, []):
            m = re.search(r"test_acceptance\.py::test_c(\d+)_", rep.nodeid)
            if m:
                n = int(m.group(1))
                worst = outcome_of.get(n, "PASS")
                outcome_of[n] = "FAIL" if status != "passed" else worst
    if not outcome_of:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(CRITERIA):
        if n in outcome_of:
            terminalreporter.write_line(
                f"criterion {n}: {outcome_of[n]} - {CRITERIA[n]}"
            )
