import json

import pytest

from transferlens.errors import DataError
from transferlens.evidence import (
    CoreContext,
    EvidenceResult,
    FactorKind,
    GeneralFactor,
    ParticularNarrator,
)
from transferlens.reasoner import Entailment
from transferlens.report import Report, build_report, render_result, sort_results


def _ent(name):
    return Entailment(name, ("d",))


def _res(evidence, gamma, rho=0.01, n=10, valid=True, reason=None):
    return EvidenceResult(evidence, gamma, rho, n, valid, reason)


def test_render_general_factor_directions():
    obs = _res(GeneralFactor(FactorKind.OBS), -0.486, 0.0001, 56)
    line = render_result(obs)
    assert "source entailments made obsolete" in line
    assert "worse" in line
    assert "γ=-0.486" in line and "ρ=0.0001" in line and "n=56" in line

    new = _res(GeneralFactor(FactorKind.NEW), 0.3)
    assert "new to the destination" in render_result(new)
    assert "better" in render_result(new)
    inv = _res(GeneralFactor(FactorKind.INV), 0.3)
    assert "invariant core" in render_result(inv)


def test_render_narrator_and_context():
    narr = _res(ParticularNarrator(_ent("Hub")), 0.55, 0.002, 20)
    assert "entail Hub(d)" in render_result(narr)

    ctx = CoreContext(frozenset({_ent("B"), _ent("A")}))
    line = render_result(_res(ctx, 0.4), cover=3)
    assert "all of A(d) + B(d)" in line
    assert "stands for 3 synchronized contexts" in line
    # a representative standing only for itself gets no tail
    base = "Pairs where both domains entail all of A(d) + B(d) transfer better (γ=0.400, ρ=0.01, n=10)"
    assert render_result(_res(ctx, 0.4), cover=1) == base + "."
    assert render_result(_res(ctx, 0.4), cover=2) == base + "; stands for 2 synchronized contexts."


def test_render_invalid_reasons():
    narr = ParticularNarrator(_ent("K"))
    for reason, phrase in [
        ("no-evidence-domains", "no domain pair carries it"),
        ("insufficient-samples", "too few domain pairs"),
        ("zero-variance", "never varies"),
    ]:
        line = render_result(
            EvidenceResult(narr, None, None, 0, False, reason)
        )
        assert line.startswith("No usable evidence from K(d):")
        assert phrase in line
    # a known code gives its text and an unknown one is shown as it is, even
    # with a gamma; only a result scored but below thresholds shows its numbers
    for reason, gamma, why in [
        ("insufficient-samples", 0.3, "too few domain pairs"),
        ("odd-code", 0.3, "odd-code"),
        (None, 0.02, "association too weak or not significant (γ=0.020, ρ=0.9, n=12)"),
        (None, None, "below thresholds"),
    ]:
        res = EvidenceResult(narr, gamma, None if gamma is None else 0.9, 12, False, reason)
        assert render_result(res) == f"No usable evidence from K(d): {why}."


def test_render_rejects_unknown_evidence():
    with pytest.raises(DataError, match="cannot render"):
        render_result(_res("not evidence", 0.5))


def test_sort_results_valid_first_then_strength():
    a = _res(ParticularNarrator(_ent("A")), 0.2)
    b = _res(ParticularNarrator(_ent("B")), -0.9)
    c = _res(ParticularNarrator(_ent("C")), 0.9)
    dead = EvidenceResult(
        ParticularNarrator(_ent("Z")), None, None, 0, False, "zero-variance"
    )
    weak = EvidenceResult(ParticularNarrator(_ent("Y")), 0.95, 0.5, 5, False)
    out = sort_results([a, dead, b, weak, c])
    assert [str(r.evidence) for r in out[:3]] == ["B(d)", "C(d)", "A(d)"]
    # invalid results trail, strongest |gamma| first
    assert [str(r.evidence) for r in out[3:]] == ["Y(d)", "Z(d)"]


def _toy_report(max_listed=25, n_narr=3):
    fti = {("a", "b"): 0.1, ("b", "a"): -0.05}
    general = [
        _res(GeneralFactor(FactorKind.OBS), -0.4, 0.01, 2),
        EvidenceResult(
            GeneralFactor(FactorKind.INV), None, None, 0, False, "zero-variance"
        ),
    ]
    narrators = [
        _res(ParticularNarrator(_ent(f"N{i}")), 0.5 + 0.01 * i, 0.01, 2)
        for i in range(n_narr)
    ]
    contexts = [
        (_res(CoreContext(frozenset({_ent("N0"), _ent("N1")})), 0.6, 0.01, 2), 4),
        (
            EvidenceResult(
                CoreContext(frozenset({_ent("N2"), _ent("N3")})),
                None, None, 1, False, "insufficient-samples",
            ),
            1,
        ),
    ]
    return build_report(
        ["a", "b"], 2, fti, general, narrators, contexts, max_listed=max_listed
    )


def test_build_report_text_sections():
    rep = _toy_report()
    text = rep.text
    assert "Comparison set: 2 domains (a, b), 2 ordered pairs." in text
    assert "Transfer index over 2 pairs: min -0.0500, median 0.1000, max 0.1000." in text
    assert "General factors" in text
    assert "No usable evidence from d_inv" in text
    assert "Particular narrators (3 valid of 3)" in text
    # strongest narrator listed first
    n_lines = [l for l in text.splitlines() if "entail N" in l and "all of" not in l]
    assert "N2(d)" in n_lines[0]
    assert "Core contexts (1 valid representatives covering 4 contexts)" in text
    assert "stands for 4 synchronized contexts" in text


def test_build_report_caps_text_but_not_json():
    rep = _toy_report(max_listed=1, n_narr=5)
    assert "... and 4 more in the JSON form." in rep.text
    assert len(rep.data["narrators"]) == 5
    # uncapped form lists everything
    rep_all = _toy_report(max_listed=None, n_narr=5)
    assert "more in the JSON form" not in rep_all.text
    # by default the text lists 25
    narrators = [_res(ParticularNarrator(_ent(f"N{i:02d}")), 0.5, 0.01, 2) for i in range(26)]
    lines = build_report(["a", "b"], 2, {}, [], narrators, []).text.splitlines()
    listed = [line for line in lines if line.startswith("Pairs where both domains entail N")]
    assert len(listed) == 25
    assert lines[lines.index(listed[-1]) + 1] == "... and 1 more in the JSON form."


def test_build_report_json_shape():
    rep = _toy_report()
    data = json.loads(rep.to_json())
    assert data["domains"] == ["a", "b"]
    assert data["pairs"] == 2
    assert data["fti"] == {"a->b": 0.1, "b->a": -0.05}
    assert data["general"][0] == {
        "evidence": "d_obs", "kind": "d_obs",
        "gamma": -0.4, "rho": 0.01, "n": 2, "valid": True, "reason": None,
    }
    # every context row carries its cover count
    assert [c["cover"] for c in data["contexts"]] == [4, 1]
    assert data["contexts"][1]["reason"] == "insufficient-samples"
    assert isinstance(rep, Report)


def test_build_report_empty_sections():
    rep = build_report(["a", "b"], 2, {}, [], [], [])
    assert "(none scored)" in rep.text
    assert "(no valid narrator evidence)" in rep.text
    assert "(no valid context evidence)" in rep.text
    assert rep.data["narrators"] == []
