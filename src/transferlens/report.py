"""Plain-language rendering of evidence results.

Each scored evidence item becomes one sentence stating what was measured,
the direction of the association and the numbers behind it.  The assembled
report has a text form for reading and a JSON form for machines; both are
built from the same selection, and every valid selected result is rendered
(nothing silently dropped).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DataError
from .evidence import (
    CoreContext,
    EvidenceResult,
    FactorKind,
    GeneralFactor,
    ParticularNarrator,
)

_REASON_TEXT = {
    "no-evidence-domains": "no domain pair carries it on both sides",
    "insufficient-samples": "too few domain pairs",
    "zero-variance": "it never varies across the pairs",
}

_FACTOR_SUBJECT = {
    FactorKind.NEW: "a larger share of entailments new to the destination",
    FactorKind.OBS: "a larger share of source entailments made obsolete",
    FactorKind.INV: "a larger invariant core shared by the pair",
}


def _direction(gamma: float) -> str:
    return "better" if gamma > 0 else "worse"


def _stats(res: EvidenceResult) -> str:
    return f"(γ={res.gamma:.3f}, ρ={res.rho:.3g}, n={res.n})"


def render_result(res: EvidenceResult, cover: int | None = None) -> str:
    """One sentence for one scored evidence item."""
    ev = res.evidence
    if not res.valid:
        why = _REASON_TEXT.get(res.reason or "", res.reason or "below thresholds")
        if res.reason is None and res.gamma is not None:
            why = f"association too weak or not significant (γ={res.gamma:.3f}, ρ={res.rho:.3g}, n={res.n})"
        return f"No usable evidence from {ev}: {why}."
    if isinstance(ev, GeneralFactor):
        return (
            f"Pairs with {_FACTOR_SUBJECT[ev.kind]} transfer "
            f"{_direction(res.gamma)} {_stats(res)}."
        )
    if isinstance(ev, ParticularNarrator):
        return (
            f"Pairs where both domains entail {ev} transfer "
            f"{_direction(res.gamma)} {_stats(res)}."
        )
    if isinstance(ev, CoreContext):
        tail = f"; stands for {cover} synchronized contexts" if cover and cover > 1 else ""
        return (
            f"Pairs where both domains entail all of {ev} transfer "
            f"{_direction(res.gamma)} {_stats(res)}{tail}."
        )
    raise DataError(f"cannot render evidence of type {type(ev).__name__}")


def rank_key(res: EvidenceResult):
    """Valid first, then by |γ| descending, ties by evidence text."""
    mag = -abs(res.gamma) if res.gamma is not None else 1.0
    return (not res.valid, mag, str(res.evidence))


def sort_results(results) -> list[EvidenceResult]:
    """Results in ``rank_key`` order."""
    return sorted(results, key=rank_key)


def _to_json(res: EvidenceResult, cover: int | None = None) -> dict:
    out = {
        "evidence": str(res.evidence),
        "gamma": res.gamma,
        "rho": res.rho,
        "n": res.n,
        "valid": res.valid,
        "reason": res.reason,
    }
    if isinstance(res.evidence, GeneralFactor):
        out["kind"] = str(res.evidence)
    if cover is not None:
        out["cover"] = cover
    return out


@dataclass
class Report:
    text: str
    data: dict

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True)


def build_report(
    domain_ids: list[str],
    n_pairs: int,
    fti: dict[tuple[str, str], float],
    general: list[EvidenceResult],
    narrators: list[EvidenceResult],
    contexts: list[tuple[EvidenceResult, int]],
    max_listed: int | None = 25,
) -> Report:
    """Assemble the report from scored evidence.

    ``contexts`` entries carry the number of concrete synchronized contexts
    each representative stands for.  ``max_listed`` caps the narrator and
    context sections of the text form; the JSON form always carries
    everything.  Every valid result inside the cap is rendered.
    """
    lines: list[str] = []
    lines.append("Transfer evidence report")
    lines.append("========================")
    lines.append("")
    lines.append(
        f"Comparison set: {len(domain_ids)} domains "
        f"({', '.join(domain_ids)}), {n_pairs} ordered pairs."
    )
    if fti:
        vals = sorted(fti.values())
        lines.append(
            f"Transfer index over {len(vals)} pairs: "
            f"min {vals[0]:.4f}, median {vals[len(vals) // 2]:.4f}, "
            f"max {vals[-1]:.4f}."
        )
    lines.append("")

    lines.append("General factors")
    lines.append("---------------")
    for res in general:
        lines.append(render_result(res))
    if not general:
        lines.append("(none scored)")
    lines.append("")

    narrators_sorted = sort_results(narrators)
    valid_narr = [r for r in narrators_sorted if r.valid]
    listed_narr = valid_narr if max_listed is None else valid_narr[:max_listed]
    lines.append(f"Particular narrators ({len(valid_narr)} valid of {len(narrators)})")
    lines.append("--------------------")
    for res in listed_narr:
        lines.append(render_result(res))
    if len(listed_narr) < len(valid_narr):
        lines.append(f"... and {len(valid_narr) - len(listed_narr)} more in the JSON form.")
    if not valid_narr:
        lines.append("(no valid narrator evidence)")
    lines.append("")

    ctx_sorted = sorted(contexts, key=lambda rc: rank_key(rc[0]))
    valid_ctx = [(r, c) for r, c in ctx_sorted if r.valid]
    listed_ctx = valid_ctx if max_listed is None else valid_ctx[:max_listed]
    total_cover = sum(c for _, c in valid_ctx)
    lines.append(
        f"Core contexts ({len(valid_ctx)} valid representatives covering "
        f"{total_cover} contexts)"
    )
    lines.append("-------------")
    for res, cover in listed_ctx:
        lines.append(render_result(res, cover))
    if len(listed_ctx) < len(valid_ctx):
        lines.append(f"... and {len(valid_ctx) - len(listed_ctx)} more in the JSON form.")
    if not valid_ctx:
        lines.append("(no valid context evidence)")
    lines.append("")

    data = {
        "domains": list(domain_ids),
        "pairs": n_pairs,
        "fti": {f"{s}->{t}": v for (s, t), v in sorted(fti.items())},
        "general": [_to_json(r) for r in general],
        "narrators": [_to_json(r) for r in narrators_sorted],
        "contexts": [_to_json(r, c) for r, c in ctx_sorted],
    }
    return Report(text="\n".join(lines) + "\n", data=data)
