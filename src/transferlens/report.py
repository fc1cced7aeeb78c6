"""Ranking and plain-language rendering of evidence results.

``rank_key`` is the one order of every evidence table: valid first, then
|γ| descending, then the evidence text.  Each scored evidence item becomes
one sentence stating what was measured, the direction of the association
and the numbers behind it.  The assembled report has a text form for
reading, a JSON form for machines and the ranked rows the CLI writes as
``evidence/*.tsv``; all are built from the same selection, and every valid
selected result is rendered (nothing silently dropped).
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


Row = tuple[EvidenceResult, int | None]


@dataclass
class Report:
    """``ranked``: each table's (result, cover) rows in ``rank_key`` order."""

    text: str
    data: dict
    ranked: dict[str, list[Row]]

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True)


def _ranked_section(title: str, summary: str, valid: list[Row], kind: str, max_listed) -> list[str]:
    """A text section listing the valid rows in rank order, at most ``max_listed``."""
    listed = valid if max_listed is None else valid[:max_listed]
    lines = [f"{title} ({summary})", "-" * len(title)]
    lines += [render_result(res, cover) for res, cover in listed]
    if len(listed) < len(valid):
        lines.append(f"... and {len(valid) - len(listed)} more in the JSON form.")
    if not valid:
        lines.append(f"(no valid {kind} evidence)")
    return lines + [""]


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
    each representative stands for; each table is ranked here, once.
    ``max_listed`` caps the narrator and context sections of the text form;
    the JSON form always carries everything.  Every valid result inside the
    cap is rendered.
    """
    ranked: dict[str, list[Row]] = {
        "general": [(r, None) for r in sort_results(general)],
        "narrators": [(r, None) for r in sort_results(narrators)],
        "contexts": sorted(contexts, key=lambda rc: rank_key(rc[0])),
    }
    lines = [
        "Transfer evidence report",
        "========================",
        "",
        f"Comparison set: {len(domain_ids)} domains "
        f"({', '.join(domain_ids)}), {n_pairs} ordered pairs.",
    ]
    if fti:
        vals = sorted(fti.values())
        lines.append(
            f"Transfer index over {len(vals)} pairs: "
            f"min {vals[0]:.4f}, median {vals[len(vals) // 2]:.4f}, "
            f"max {vals[-1]:.4f}."
        )
    lines += ["", "General factors", "---------------"]
    lines += [render_result(res) for res, _ in ranked["general"]] or ["(none scored)"]
    lines.append("")

    valid_narr = [rc for rc in ranked["narrators"] if rc[0].valid]
    lines += _ranked_section(
        "Particular narrators", f"{len(valid_narr)} valid of {len(narrators)}",
        valid_narr, "narrator", max_listed,
    )
    valid_ctx = [rc for rc in ranked["contexts"] if rc[0].valid]
    total_cover = sum(c for _, c in valid_ctx)
    lines += _ranked_section(
        "Core contexts",
        f"{len(valid_ctx)} valid representatives covering {total_cover} contexts",
        valid_ctx, "context", max_listed,
    )

    data = {
        "domains": list(domain_ids),
        "pairs": n_pairs,
        "fti": {f"{s}->{t}": v for (s, t), v in sorted(fti.items())},
        "general": [_to_json(r) for r, _ in ranked["general"]],
        "narrators": [_to_json(r) for r, _ in ranked["narrators"]],
        "contexts": [_to_json(r, c) for r, c in ranked["contexts"]],
    }
    return Report(text="\n".join(lines) + "\n", data=data, ranked=ranked)
