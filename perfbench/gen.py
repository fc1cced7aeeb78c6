"""Seeded inputs for the benchmark workloads.

``fleet_spec`` draws a flight corpus several times larger than
``corpora/mini_flights`` from ``gen_lso`` in ``tools/gen_mini_flights.py``
and remembers, per LSO, the facts it planted, so the checks can compare
closures against them.  ``auc_rows`` draws a measured-AUC matrix whose
transfer is better inside a family (east-coast or west-coast origin) than
across families.  The same seed always gives the same files.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import gen_mini_flights as mini  # noqa: E402

FLEET_DOMAINS = 24
FLEET_LSOS = 250

ORIGINS = ("ORD", "JFK", "BOS", "LAX", "SFO", "SEA")
DESTINATIONS = {
    "ORD": ("LAX", "SFO", "SEA"),
    "JFK": ("SFO", "LAX", "SEA"),
    "BOS": ("SEA", "SFO", "LAX"),
    "LAX": ("JFK", "ORD", "BOS"),
    "SFO": ("BOS", "JFK", "ORD"),
    "SEA": ("ORD", "BOS", "JFK"),
}
CARRIERS = ("DL", "AA", "B6", "WN")

# Types only: every accepted entity then asserts a class its individual
# already has in every LSO that names it, so an import never changes a
# domain closure and closures/*.atoms, written before the import, is what
# the report scores.  The gate does the same consistency work either way.
FLEET_KB_MAP = """\
type CivilAirport -> Airport
type Airline -> Carrier
type Song -> Song
type Person -> Person
drop-unmapped = true
"""

BAD_SNOW = {"HeavySnow", "Blizzard"}
BAD_FOG = {"Fog", "Mist"}


@dataclass(frozen=True)
class Route:
    id: str
    family: str
    carrier: str
    origin: str
    destination: str
    distance: int


@dataclass(frozen=True)
class PlantedLso:
    name: str
    lines: tuple[str, ...]
    label: bool

    def expected_dep_classes(self, route: Route) -> frozenset[str]:
        """Classes of ``d`` the TBox must derive from what was planted."""
        weather = next(
            ln[len("ClassAssert("):-len(" w)")]
            for ln in self.lines
            if ln.startswith("ClassAssert(") and ln.endswith(" w)")
        )
        out = set()
        if weather in BAD_SNOW:
            out.add("SnowyDep")
        if weather in BAD_FOG:
            out.add("FoggyDep")
        out.add("EastOriDep" if route.origin in mini.EAST else "WestOriDep")
        out.add("BigCarDep" if route.carrier in mini.BIG else "SmallCarDep")
        if "ClassAssert(DelayedDep r)" in self.lines:
            out.add("CongestedDep")
        if route.origin == "SEA":
            out.add("SeattleDep")
        if self.label:
            out.add("DelayedDep")
        return frozenset(out)


@dataclass(frozen=True)
class FleetSpec:
    routes: tuple[Route, ...]
    lsos: dict[str, tuple[PlantedLso, ...]]


def fleet_routes(n_domains: int = FLEET_DOMAINS) -> tuple[Route, ...]:
    """A fixed route table, so every seed asks for the same amount of work."""
    routes = []
    for i in range(n_domains):
        ori = ORIGINS[i % len(ORIGINS)]
        des = DESTINATIONS[ori][(i // len(ORIGINS)) % 3]
        car = CARRIERS[(i + i // len(ORIGINS)) % len(CARRIERS)]
        fam = "A" if ori in mini.EAST else "B"
        routes.append(Route(f"F{i:02d}", fam, car, ori, des, 1500 + 100 * (i % 12)))
    return tuple(routes)


def fleet_spec(seed: int, n_domains: int = FLEET_DOMAINS, n_lsos: int = FLEET_LSOS) -> FleetSpec:
    routes = fleet_routes(n_domains)
    lsos = {}
    for k, r in enumerate(routes):
        rng = np.random.default_rng((seed, k))
        out = []
        for i in range(n_lsos):
            lines, label, _ = mini.gen_lso(rng, r.family, r.carrier, r.origin, r.destination, r.distance)
            out.append(PlantedLso(f"lso-{i:04d}", tuple(lines), bool(label)))
        lsos[r.id] = tuple(out)
    return FleetSpec(routes, lsos)


def write_fleet(spec: FleetSpec, root: Path) -> None:
    root.mkdir(parents=True)
    (root / "tbox.ont").write_text(mini.TBOX)
    (root / "constraints.ont").write_text(mini.CONSTRAINTS)
    (root / "kb.txt").write_text(mini.KB)
    (root / "kb_map.txt").write_text(FLEET_KB_MAP)
    day0 = date(2026, 1, 1)
    for r in spec.routes:
        ddir = root / "domains" / r.id
        (ddir / "lsos").mkdir(parents=True)
        (ddir / "manifest.txt").write_text(
            f"id = {r.id}\ntarget = DelayedDep(d)\n"
            f"notes = {r.carrier} {r.origin}-{r.destination}, family {r.family}\n"
        )
        for i, lso in enumerate(spec.lsos[r.id]):
            day = day0 + timedelta(days=i)
            (ddir / "lsos" / f"{lso.name}.ont").write_text(
                f"@ann dat {day.isoformat()}\n@ann fam {r.family}\n@ann car {r.carrier}\n"
                + "\n".join(lso.lines)
                + "\n"
            )


def auc_rows(seed: int, families: dict[str, str]) -> list[tuple[str, str, float, float, float]]:
    """Measured AUCs over every ordered pair, with planted family structure.

    A destination's baseline AUC is the same in every row, as the harness
    would measure it.  Within a family the frozen source features lose
    little and fine-tuning gains; across families they lose a lot.
    """
    rng = np.random.default_rng((seed, 7))
    ids = sorted(families)
    base = {t: round(float(rng.uniform(0.62, 0.80)), 6) for t in ids}
    rows = []
    for s in ids:
        for t in ids:
            if s == t:
                continue
            if families[s] == families[t]:
                hard = base[t] - rng.uniform(-0.02, 0.06)
                soft = base[t] + rng.uniform(0.00, 0.08)
            else:
                hard = base[t] - rng.uniform(0.08, 0.20)
                soft = base[t] + rng.uniform(-0.06, 0.02)
            rows.append((s, t, base[t], round(float(hard), 6), round(float(soft), 6)))
    return rows


def write_auc_csv(rows, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["source,target,auc_base,auc_hard,auc_soft"]
    lines += [f"{s},{t},{b!r},{h!r},{f!r}" for s, t, b, h, f in rows]
    path.write_text("\n".join(lines) + "\n")


def mini_families() -> dict[str, str]:
    return {did: fam for did, fam, *_ in mini.DOMAINS}
