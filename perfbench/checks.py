"""Output checks for the benchmark workloads.

Every check recomputes what it compares from the inputs the benchmark
generated, from exact arithmetic, or from a property the method must have;
none compares against a stored copy of earlier output.  A failed check
raises ``CheckError`` naming the file and what is wrong.
"""

from __future__ import annotations

import csv
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from scipy.stats import t as student_t

DEP_CLASSES = (
    "SnowyDep", "FoggyDep", "EastOriDep", "WestOriDep", "BigCarDep",
    "SmallCarDep", "CongestedDep", "SeattleDep", "DelayedDep",
)
AIRPORTS = ("ORD", "JFK", "BOS", "LAX", "SFO", "SEA")
TRAPS = {"LAX": "SONG_LAX", "JFK": "PER_JFK"}
PLANTED_CONTEXT = ("EastOriDep(d)", "BigCarDep(d)")


class CheckError(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# -- exact statistics ---------------------------------------------------------


def exact_pearson(xs: list[Fraction], ys: list[Fraction]) -> float:
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return math.copysign(math.sqrt(sxy * sxy / (sxx * syy)), sxy)


def two_sided_p(r: float, n: int) -> float:
    if abs(r) >= 1.0:
        return 0.0
    df = n - 2
    return float(2.0 * student_t.sf(abs(r) * math.sqrt(df / (1.0 - r * r)), df))


def exact_score(v_e, v_f, n_min=3, epsilon=0.1, alpha=0.05):
    """(gamma, rho, n, valid, reason) as the evidence layer defines them."""
    n = len(v_e)
    if n < max(n_min, 3):
        return None, None, n, False, "insufficient-samples"
    if len(set(v_e)) == 1 or len(set(v_f)) == 1:
        return None, None, n, False, "zero-variance"
    gamma = exact_pearson(v_e, v_f)
    rho = two_sided_p(gamma, n)
    return gamma, rho, n, abs(gamma) >= epsilon and rho <= alpha, None


def membership_score(member: dict[str, bool], fti: dict, ids: list[str]):
    """Directed co-existence score of evidence held by the ``member`` domains."""
    if not any(member.values()):
        return None, None, 0, False, "no-evidence-domains"
    pairs = [(s, t) for s in ids for t in ids if s != t and (s, t) in fti and member[s]]
    if not pairs:
        return None, None, 0, False, "no-evidence-domains"
    return exact_score([Fraction(int(member[t])) for _, t in pairs], [fti[p] for p in pairs])


def same_result(label, got: dict, want, tol: float = 1e-9) -> None:
    """Compare a reported result with (gamma, rho, n, valid, reason)."""
    gamma, rho, n, valid, reason = want
    require(got["n"] == n, f"{label}: n={got['n']}, recomputed {n}")
    require(got["reason"] == reason, f"{label}: reason {got['reason']}, recomputed {reason}")
    require(got["valid"] == valid, f"{label}: valid={got['valid']}, recomputed {valid}")
    if gamma is None:
        require(got["gamma"] is None and got["rho"] is None, f"{label}: expected no statistics")
        return
    require(abs(got["gamma"] - gamma) <= tol, f"{label}: gamma {got['gamma']!r}, recomputed {gamma!r}")
    require(
        math.isclose(got["rho"], rho, rel_tol=1e-6, abs_tol=1e-300),
        f"{label}: rho {got['rho']!r}, recomputed {rho!r}",
    )


def exact_fti(rows) -> dict[tuple[str, str], Fraction]:
    """Transfer index with equal weights, in exact arithmetic on the CSV floats."""
    out = {}
    for s, t, base, hard, soft in rows:
        b, h, f = (Fraction(float(v)) for v in (base, hard, soft))
        out[(s, t)] = ((f - b) - (b - h)) / 2
    return out


# -- artifact readers -----------------------------------------------------------


def read_auc_csv(path: Path) -> list[tuple[str, str, str, str, str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows and rows[0] == ["source", "target", "auc_base", "auc_hard", "auc_soft"],
            f"{path}: bad header")
    return [tuple(r) for r in rows[1:] if r]


def read_atoms(path: Path) -> tuple[str, set[str]]:
    lines = path.read_text().splitlines()
    require(lines and lines[0].startswith("# domain"), f"{path}: missing header")
    return lines[0], set(lines[1:])


def read_result_tsv(path: Path) -> dict[str, dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split("\t")
    out = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split("\t")))
        out[row["evidence"]] = row
    return out


def _num(text: str):
    return None if text == "NA" else float(text)


def read_audit(path: Path) -> list[tuple[str, str, str]]:
    rows = []
    for line in path.read_text().splitlines()[1:]:
        _, ind, entity, status, _ = line.split("\t")
        rows.append((ind, entity, status))
    return rows


def dep_classes(atoms) -> set[str]:
    return {a[: -len("(d)")] for a in atoms if a.endswith("(d)") and a[:-3] in DEP_CLASSES}


def domain_masks(closures: dict[str, set[str]], atoms) -> dict[str, bool]:
    return {d: all(a in c for a in atoms) for d, c in closures.items()}


# -- flights-train --------------------------------------------------------------


def check_flights_train(corpus: Path, out: Path, seed: int, train: dict, explain) -> None:
    from transferlens.corpus import load_corpus
    from transferlens.harness import TrainConfig, evaluate_pair, prepare_datasets
    from transferlens.ontology import parse_abox

    ids = sorted(p.name for p in (corpus / "domains").iterdir())
    auc_path = out / "fti" / "auc.csv"
    rows = read_auc_csv(auc_path)
    pairs = [(r[0], r[1]) for r in rows]
    want = {(s, t) for s in ids for t in ids if s != t}
    require(len(pairs) == len(set(pairs)) == len(want) and set(pairs) == want,
            f"{auc_path}: expected the {len(want)} unique off-diagonal pairs of {ids}")
    for r in rows:
        for v in map(float, r[2:]):
            require(math.isfinite(v) and 0.0 <= v <= 1.0, f"{auc_path}: AUC {v!r} in row {r}")

    matrix_path = out / "fti" / "matrix.tsv"
    lines = matrix_path.read_text().splitlines()
    require(len(lines) == len(rows) + 1, f"{matrix_path}: {len(lines) - 1} rows for {len(rows)} pairs")
    for r, line in zip(rows, lines[1:]):
        cells = line.split("\t")
        require(cells[:5] == list(r), f"{matrix_path}: row {cells[:2]} does not repeat auc.csv")
        base, hard, soft = map(float, r[2:])
        fsi, fgi = base - hard, soft - base
        got = tuple(map(float, cells[5:]))
        require(got == (fsi, fgi, (fgi - fsi) / 2),
                f"{matrix_path}: {r[:2]} fsi/fgi/fti {got} != {(fsi, fgi, (fgi - fsi) / 2)}")

    # one pair again through the unbatched reference path, bit for bit
    c = load_corpus(corpus)
    for d in c.domains:
        ext = out / "external" / f"{d.id}.axioms"
        if ext.exists():
            d.set_external_axioms(parse_abox(ext.read_text()))
    cfg = TrainConfig(**train)
    datasets = {ds.id: ds for ds in prepare_datasets(c.domains, cfg)}
    s, t = random.Random(seed).choice(sorted(pairs))
    rec = evaluate_pair(datasets[s], datasets[t], cfg)
    row = next(r for r in rows if (r[0], r[1]) == (s, t))
    got = tuple("%.17g" % v for v in (rec.auc_base, rec.auc_hard, rec.auc_soft))
    require(got == tuple(row[2:]), f"{auc_path}: {s}->{t} is {row[2:]}, evaluate_pair gives {got}")

    report = json.loads((out / "report.json").read_text())
    require(report["pairs"] == len(want), f"report.json: {report['pairs']} pairs, expected {len(want)}")
    d_obs = next(g for g in report["general"] if g["evidence"] == "d_obs")
    require(d_obs["valid"] and d_obs["gamma"] < -0.1, f"report.json: d_obs {d_obs}")

    # the planted context, through the CLI and again in exact arithmetic; the
    # import only adds atoms, so membership of the planted atoms is as before it
    text = explain(" + ".join(PLANTED_CONTEXT)).strip().splitlines()[-1]
    fields = dict(f.split("=", 1) for f in text.split("\t"))
    require(fields["valid"] == "True" and float(fields["gamma"]) > 0,
            f"explain: planted context not valid with gamma > 0: {text}")
    closures = {d: read_atoms(out / "closures" / f"{d}.atoms")[1] for d in ids}
    want_res = membership_score(domain_masks(closures, PLANTED_CONTEXT), exact_fti(rows), ids)
    same_result("explain planted context", {
        "gamma": _num(fields["gamma"]), "rho": _num(fields["rho"]), "n": int(fields["n"]),
        "valid": fields["valid"] == "True", "reason": None if fields["reason"] == "-" else fields["reason"],
    }, want_res)


# -- fleet-measured -------------------------------------------------------------


def check_fleet(spec, corpus: Path, out: Path, auc_rows, seed: int) -> None:
    from transferlens.corpus import load_corpus
    from transferlens.ontology import parse_abox
    from transferlens.reasoner import Entailment, is_consistent, materialize

    routes = {r.id: r for r in spec.routes}
    ids = sorted(routes)

    closures = {}
    for did in ids:
        path = out / "closures" / f"{did}.atoms"
        header, atoms = read_atoms(path)
        n = len(spec.lsos[did])
        require(header == f"# domain {did}: {n} LSOs, 0 inconsistent", f"{path}: header {header!r}")
        planted = set().union(*(lso.expected_dep_classes(routes[did]) for lso in spec.lsos[did]))
        got = dep_classes(atoms)
        require(got == planted, f"{path}: derived classes of d {sorted(got)}, planted {sorted(planted)}")
        closures[did] = atoms

    c = load_corpus(corpus)
    rng = random.Random(seed)
    for d in c.domains:
        for i in rng.sample(range(len(d.lsos)), 3):
            lso = spec.lsos[d.id][i]
            closure = materialize(c.tbox, d.lsos[i].abox)
            for cls in DEP_CLASSES:
                planted = cls in lso.expected_dep_classes(routes[d.id])
                require(closure.entails(Entailment.parse(f"{cls}(d)")) == planted,
                        f"{d.id}/{lso.name}: {cls}(d) entailed={not planted}, planted={planted}")

    for d in c.domains:
        roots = set((out / "roots" / f"{d.id}.inds").read_text().split())
        audit_path = out / "external" / f"{d.id}.audit"
        audit = read_audit(audit_path)
        for apt in AIRPORTS:
            if apt not in roots:
                continue
            got = [(e, s) for ind, e, s in audit if ind == apt]
            want = [(TRAPS[apt], "rejected")] if apt in TRAPS else []
            want.append((f"APT_{apt}", "accepted"))
            require(got == want, f"{audit_path}: {apt} decisions {got}, expected {want}")
        require(not any(e in TRAPS.values() and s == "accepted" for _, e, s in audit),
                f"{audit_path}: a homonym trap was accepted")
        ext = parse_abox((out / "external" / f"{d.id}.axioms").read_text())
        for lso in d.lsos:
            require(is_consistent(c.tbox, lso.abox | ext, c.constraints),
                    f"{d.id}/{lso.name}: inconsistent after import")
        d.set_external_axioms(ext)
        post = {str(g) for g in d.entailment_closure()}
        require(post == closures[d.id],
                f"{d.id}: import changed the domain closure, so closures/*.atoms is not what report scores")

    report = json.loads((out / "report.json").read_text())
    n_pairs = len(ids) * (len(ids) - 1)
    require(report["pairs"] == n_pairs and len(report["fti"]) == n_pairs,
            f"report.json: {report['pairs']} pairs, expected {n_pairs}")

    fti = exact_fti(auc_rows)
    pairs = [(s, t) for s in ids for t in ids if s != t]
    for g in report["general"]:
        vals = []
        for s, t in pairs:
            ga, gb = closures[s], closures[t]
            vals.append({
                "d_new": Fraction(len(gb - ga), len(gb)),
                "d_obs": Fraction(len(ga - gb), len(ga)),
                "d_inv": Fraction(len(ga & gb), len(ga | gb)),
            }[g["evidence"]])
        same_result(f"report.json {g['evidence']}", g, exact_score(vals, [fti[p] for p in pairs]))


# -- contexts-audit -------------------------------------------------------------


def read_scan(path: Path):
    reps, stats, rows = {}, {}, {}
    with open(path) as fh:
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            if cells[0] == "#cluster":
                reps[int(cells[1])] = cells[2]
            elif cells[0] == "#stats":
                stats = {k: int(v) for k, v in (c.split("=") for c in cells[1:])}
            else:
                rows[cells[0]] = cells[1:]
    return reps, stats, rows


def check_contexts(corpus: Path, out: Path, scan_path: Path, auc_rows, max_dim: int, seed: int) -> None:
    from transferlens.corpus import load_corpus

    c = load_corpus(corpus)
    ids = [d.id for d in c.domains]
    closures = {d.id: {str(g) for g in d.entailment_closure()} for d in c.domains}
    targets = {str(d.target) for d in c.domains}
    universe = set().union(*closures.values()) - targets
    signature = {g: tuple(g in closures[d] for d in ids) for g in universe}
    n_clusters = len(set(signature.values()))

    reps, stats, rows = read_scan(scan_path)
    evaluated = sum(math.comb(n_clusters, k) for k in range(1, max_dim + 1))
    enumerable = sum(math.comb(len(universe), k) for k in range(2, max_dim + 1))
    require(stats["universe"] == len(universe) and stats["clusters"] == n_clusters == len(reps),
            f"{scan_path}: {stats}, recomputed {len(universe)} entailments in {n_clusters} clusters")
    require(stats["evaluated"] == evaluated == len(rows),
            f"{scan_path}: evaluated {stats['evaluated']} ({len(rows)} rows), expected {evaluated}")
    require(stats["covered"] == stats["enumerable"] == enumerable,
            f"{scan_path}: covered {stats['covered']}, enumerable {stats['enumerable']}, expected {enumerable}")
    require(len({signature[r] for r in reps.values()}) == n_clusters,
            f"{scan_path}: two clusters share a membership signature")

    fti = exact_fti(auc_rows)
    rng = random.Random(seed)
    for key in rng.sample(sorted(rows), 40):
        atoms = [reps[int(i)] for i in key.split(",")]
        gamma, rho, n, valid, reason = rows[key]
        got = {"gamma": _num(gamma), "rho": _num(rho), "n": int(n), "valid": valid == "yes",
               "reason": None if reason == "-" else reason}
        same_result(f"{scan_path}: {' + '.join(atoms)}", got,
                    membership_score(domain_masks(closures, atoms), fti, ids))

    index = {rep: i for i, rep in reps.items()}
    tsv = out / "evidence" / "contexts.tsv"
    pruned = read_result_tsv(tsv)
    require(pruned, f"{tsv}: no contexts")
    for evidence, row in pruned.items():
        key = ",".join(str(i) for i in sorted(index[a] for a in evidence.split(" + ")))
        require(key in rows, f"{tsv}: {evidence} was not scored by the exhaustive scan")
        want = rows[key]
        got = [row["gamma"], row["rho"], row["n"], row["valid"], row["reason"]]
        require(got == want, f"{tsv}: {evidence} is {got}, exhaustive scan has {want}")

    report = json.loads((out / "report.json").read_text())
    require(report["pairs"] == len(ids) * (len(ids) - 1), f"report.json: {report['pairs']} pairs")
