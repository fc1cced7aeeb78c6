from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from domfix import make_domain
from transferlens.errors import DataError
from transferlens.kb import (
    AuditRecord,
    FileKbAdapter,
    HttpKbAdapter,
    KbEntity,
    VocabularyMapping,
    extract_axioms,
    import_external,
    normalize_label,
    sanitize_name,
)
from transferlens.ontology import parse_abox, parse_ontology

KB_TEXT = """\
# traps come first: candidate order is file order
SONG1\tLAX|L.A. International Airport\tSong\tartist=Some_Band
APT1\tLAX|Los Angeles International\tCivilAirport\tiata=LAX;city=Los_Angeles
CITY1\tlos-angeles\tCity\t
"""

MAP_TEXT = """\
type Song -> Song
type CivilAirport -> Airport
prop iata -> iataCode
# city stays unmapped
drop-unmapped = true
"""


def _kb(tmp_path, text=KB_TEXT):
    p = tmp_path / "kb.txt"
    p.write_text(text)
    return FileKbAdapter(p)


# -- names ----------------------------------------------------------------------


def test_normalize_label_folds_case_and_separators():
    assert normalize_label("  Los_Angeles-Intl ") == "los angeles intl"
    assert normalize_label("LAX") == normalize_label("lax")


def test_sanitize_name():
    assert sanitize_name("B737-800") == "B737-800"
    assert sanitize_name("Some Band (feat. X)") == "Some_Band_feat._X"
    assert sanitize_name("  ") is None
    assert sanitize_name("???") is None


# -- file adapter ------------------------------------------------------------------


def test_file_adapter_lookup_in_file_order(tmp_path):
    kb = _kb(tmp_path)
    assert kb.lookup("LAX") == ["SONG1", "APT1"]
    assert kb.lookup("l.a. international airport") == ["SONG1"]
    assert kb.lookup("Los Angeles") == ["CITY1"]  # '-' normalizes to space
    assert kb.lookup("nowhere") == []


def test_file_adapter_describe(tmp_path):
    kb = _kb(tmp_path)
    e = kb.describe("APT1")
    assert e.types == ("CivilAirport",)
    assert e.props == (("iata", "LAX"), ("city", "Los_Angeles"))
    assert kb.describe("CITY1").props == ()
    with pytest.raises(DataError, match="unknown entity"):
        kb.describe("NOPE")


def test_file_adapter_rejects_malformed_lines(tmp_path):
    with pytest.raises(DataError, match=":1"):
        _kb(tmp_path, "JUSTONEFIELD\n")
    with pytest.raises(DataError, match="duplicate entity id"):
        _kb(tmp_path, "A\tx\tT\t\nA\ty\tT\t\n")
    with pytest.raises(DataError, match="key=value"):
        _kb(tmp_path, "A\tx\tT\tnot-a-pair\n")
    with pytest.raises(DataError, match="empty entity id"):
        _kb(tmp_path, "\tx\tT\t\n")


# -- vocabulary mapping ---------------------------------------------------------------


def test_mapping_parse():
    m = VocabularyMapping.parse(MAP_TEXT)
    assert m.types == {"Song": "Song", "CivilAirport": "Airport"}
    assert m.props == {"iata": "iataCode"}
    assert m.drop_unmapped is True
    m2 = VocabularyMapping.parse("drop-unmapped = false\n")
    assert m2.drop_unmapped is False


def test_mapping_parse_errors():
    with pytest.raises(DataError, match=":1"):
        VocabularyMapping.parse("nonsense line")
    with pytest.raises(DataError, match="legal name"):
        VocabularyMapping.parse("type X -> b@d")
    with pytest.raises(DataError, match="duplicate mapping"):
        VocabularyMapping.parse("type X -> A\ntype X -> B")
    with pytest.raises(DataError, match="true or false"):
        VocabularyMapping.parse("drop-unmapped = maybe")
    # a second switch is refused like a second mapping, even when it agrees
    for second in ("false", "true"):
        text = f"drop-unmapped = true\ntype X -> A\ndrop-unmapped = {second}\n"
        with pytest.raises(DataError, match=r"^kb_map.txt:3: duplicate drop-unmapped line$"):
            VocabularyMapping.parse(text, origin="kb_map.txt")


def test_extract_axioms_mapped_and_dropped():
    entity = KbEntity(
        "E1",
        labels=("LAX",),
        types=("CivilAirport", "Landmark"),
        props=(("iata", "LAX"), ("motto", "fly safe"), ("junk", "???")),
    )
    mapping = VocabularyMapping.parse(MAP_TEXT)
    axioms = extract_axioms("LAX", entity, mapping)
    assert axioms == parse_abox(
        "ClassAssert(Airport LAX)\nRoleAssert(iataCode LAX LAX)"
    )

    keep = VocabularyMapping(types=dict(mapping.types), props=dict(mapping.props),
                             drop_unmapped=False)
    axioms = extract_axioms("LAX", entity, keep)
    # unmapped survive sanitized; the unsanitizable value is skipped entirely
    assert axioms == parse_abox(
        "ClassAssert(Airport LAX)\nClassAssert(Landmark LAX)\n"
        "RoleAssert(iataCode LAX LAX)\nRoleAssert(motto LAX fly_safe)"
    )


# -- gated import ------------------------------------------------------------------


AIRPORT_TBOX = "SubClassOf(Airport Location)\n"
AIRPORT_CONSTRAINTS = parse_ontology("SubClassOf(And(Location Song) Bottom)").tbox


def _airport_domain():
    docs = [
        "ClassAssert(Dep d)\nRoleAssert(hasOri d LAX)\nClassAssert(Airport LAX)",
        "ClassAssert(Dep d)\nClassAssert(Airport LAX)",
    ]
    return make_domain("fl", "Dep(d)", docs, tbox=AIRPORT_TBOX)


def test_import_rejects_homonym_and_accepts_airport(tmp_path):
    domain = _airport_domain()
    axioms, audit = import_external(
        domain,
        ["LAX", "XYZ"],
        _kb(tmp_path),
        VocabularyMapping.parse(MAP_TEXT),
        constraints=AIRPORT_CONSTRAINTS,
    )
    assert [(a.individual, a.entity_id, a.status) for a in audit] == [
        ("LAX", "SONG1", "rejected"),
        ("LAX", "APT1", "accepted"),
        ("XYZ", None, "no-match"),
    ]
    assert audit[0].witness == "lso-000"
    assert axioms == parse_abox(
        "ClassAssert(Airport LAX)\nRoleAssert(iataCode LAX LAX)"
    )
    # nothing is attached implicitly
    assert domain.external_axioms == frozenset()
    domain.set_external_axioms(axioms)
    assert all(not c.inconsistent for c in domain.lso_closures())


def test_import_without_constraints_takes_the_first_candidate(tmp_path):
    domain = _airport_domain()
    axioms, audit = import_external(
        domain, ["LAX"], _kb(tmp_path), VocabularyMapping.parse(MAP_TEXT)
    )
    assert [(a.entity_id, a.status) for a in audit] == [("SONG1", "accepted")]
    assert axioms == parse_abox("ClassAssert(Song LAX)")


CHAIN_TBOX = """
SubClassOf(Some(owns Nom(gold)) Rich)
SubClassOf(Some(rival Rich) Marked)
"""
CHAIN_CONSTRAINTS = parse_ontology("SubClassOf(And(Marked Shady) Bottom)").tbox
CHAIN_KB = """\
E_A\tAAA\tThing\towns=gold
E_B1\tBBB\tShady\trival=AAA
E_B2\tBBB\tClean\t
"""
CHAIN_MAP = """\
type Shady -> Shady
type Clean -> Clean
prop owns -> owns
prop rival -> rival
"""


def test_accepted_axioms_accumulate_into_later_checks(tmp_path):
    domain = make_domain("ch", "Dep(d)", ["ClassAssert(Dep d)"], tbox=CHAIN_TBOX)
    kb = _kb(tmp_path, CHAIN_KB)
    mapping = VocabularyMapping.parse(CHAIN_MAP)

    # alone, the shady candidate for BBB is perfectly consistent
    _, audit = import_external(
        domain, ["BBB"], kb, mapping, constraints=CHAIN_CONSTRAINTS
    )
    assert [(a.entity_id, a.status) for a in audit] == [("E_B1", "accepted")]

    # after AAA's import makes AAA rich, the same candidate trips the constraint
    axioms, audit = import_external(
        domain, ["AAA", "BBB"], kb, mapping, constraints=CHAIN_CONSTRAINTS
    )
    assert [(a.entity_id, a.status) for a in audit] == [
        ("E_A", "accepted"),
        ("E_B1", "rejected"),
        ("E_B2", "accepted"),
    ]
    assert axioms == parse_abox(
        "RoleAssert(owns AAA gold)\nClassAssert(Clean BBB)"
    )


def test_gate_checks_every_lso(tmp_path):
    # LSO 0 is benign, LSO 1 carries the conflicting class
    docs = [
        "ClassAssert(Dep d)",
        "ClassAssert(Dep d)\nClassAssert(Location LAX)",
    ]
    domain = make_domain("s", "Dep(d)", docs)
    axioms, audit = import_external(
        domain, ["LAX"], _kb(tmp_path), VocabularyMapping.parse(MAP_TEXT),
        constraints=AIRPORT_CONSTRAINTS,
    )
    assert [(a.entity_id, a.status, a.witness) for a in audit] == [
        ("SONG1", "rejected", "lso-001"),
        ("APT1", "accepted", None),
    ]
    assert axioms == parse_abox(
        "ClassAssert(Airport LAX)\nRoleAssert(iataCode LAX LAX)"
    )


def test_audit_record_line_format():
    rec = AuditRecord("d1", "LAX", "SONG1", "rejected", "lso-003")
    assert rec.to_line() == "d1\tLAX\tSONG1\trejected\tlso-003"
    assert AuditRecord("d1", "XYZ", None, "no-match").to_line() == "d1\tXYZ\t-\tno-match\t-"


# -- HTTP adapter -----------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    paths: list[str] = []  # every request path, as the server received it

    def do_GET(self):
        self.paths.append(self.path)
        if self.path.startswith("/lookup/"):
            body = "entity\tlabel\nAPT1\tLAX\nSONG1\tLAX\nAPT1\tLAX\nX9\tOther\n"
        elif self.path.startswith("/describe/"):
            body = "field\tvalue\nlabel\tLAX\ntype\tCivilAirport\niata\tLAX\n"
        elif self.path.startswith("/badheader/"):
            body = "wrong\theader\nAPT1\tLAX\n"
        elif self.path.startswith("/badrow/"):
            body = "entity\tlabel\nAPT1\tLAX\nSONG1\tLAX\textra\n"
        elif self.path.startswith("/baddescribe/"):
            body = "field\tvalue\nlabel\tLAX\ntype\n"
        elif self.path.startswith("/utf8-lookup/"):
            body = "entity\tlabel\nZRH\tZürich\n"
        elif self.path.startswith("/utf8-describe/"):
            body = "field\tvalue\nlabel\tZürich\ntype\tCivilAirport\n"
        elif self.path.startswith("/latin1/"):
            body = b"field\tvalue\nlabel\tZ\xfcrich\n"
        else:
            self.send_error(404)
            return
        payload = body if isinstance(body, bytes) else body.encode()
        self.send_response(200)
        self.send_header("Content-Type", "text/tab-separated-values")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def kb_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    thread.join()


def test_http_adapter_lookup_and_describe(kb_server):
    adapter = HttpKbAdapter(
        kb_server + "/lookup/{term}", kb_server + "/describe/{entity}"
    )
    # matching rows only, response order, duplicates collapsed
    assert adapter.lookup("LAX") == ["APT1", "SONG1"]
    e = adapter.describe("APT1")
    assert e.labels == ("LAX",)
    assert e.types == ("CivilAirport",)
    assert e.props == (("iata", "LAX"),)


def test_http_adapter_quotes_slashes_in_names(kb_server):
    # "/" is a legal name character; it must stay inside one path segment
    adapter = HttpKbAdapter(
        kb_server + "/lookup/{term}", kb_server + "/describe/{entity}"
    )
    assert adapter.lookup("LAX/T4") == []
    assert _Handler.paths[-1] == "/lookup/LAX%2FT4"
    adapter.describe("APT/1")
    assert _Handler.paths[-1] == "/describe/APT%2F1"


def test_http_adapter_validates_headers_and_status(kb_server):
    bad = HttpKbAdapter(
        kb_server + "/badheader/{term}", kb_server + "/describe/{entity}"
    )
    with pytest.raises(DataError, match="entity<TAB>label"):
        bad.lookup("LAX")
    missing = HttpKbAdapter(
        kb_server + "/gone/{term}", kb_server + "/gone/{entity}"
    )
    with pytest.raises(DataError, match="404"):
        missing.lookup("LAX")


def test_http_adapter_refuses_malformed_rows(kb_server):
    # the refusal names the response's URL and the line at fault
    adapter = HttpKbAdapter(kb_server + "/badrow/{term}", kb_server + "/baddescribe/{entity}")
    for call, url, message in (
        (lambda: adapter.lookup("LAX"), "/badrow/LAX", "3: expected 2 tab-separated fields, got 3"),
        (lambda: adapter.describe("APT1"), "/baddescribe/APT1", "3: expected 2 tab-separated fields, got 1"),
        (lambda: HttpKbAdapter(kb_server + "/badheader/{term}", "").lookup("LAX"),
         "/badheader/LAX", "1: expected the header entity<TAB>label"),
        (lambda: HttpKbAdapter("", kb_server + "/badheader/{entity}").describe("APT1"),
         "/badheader/APT1", "1: expected the header field<TAB>value"),
    ):
        with pytest.raises(DataError) as err:
            call()
        assert str(err.value) == f"{kb_server}{url}:{message}"


def test_http_adapter_reads_responses_as_utf8(kb_server):
    # the server sends text/tab-separated-values without a charset
    adapter = HttpKbAdapter(
        kb_server + "/utf8-lookup/{term}", kb_server + "/utf8-describe/{entity}"
    )
    assert adapter.lookup("Zürich") == ["ZRH"]
    assert adapter.describe("ZRH").labels == ("Zürich",)
    bad = HttpKbAdapter(kb_server + "/lookup/{term}", kb_server + "/latin1/{entity}")
    url = kb_server + "/latin1/ZRH"
    with pytest.raises(DataError) as err:
        bad.describe("ZRH")
    assert str(err.value) == f"{url}:2: not UTF-8 text (invalid start byte)"


def test_http_adapter_wraps_connection_failures():
    adapter = HttpKbAdapter(
        "http://127.0.0.1:9/lookup/{term}",
        "http://127.0.0.1:9/describe/{entity}",
        timeout=0.5,
    )
    with pytest.raises(DataError, match="request failed"):
        adapter.lookup("LAX")


def test_http_import_end_to_end(kb_server, tmp_path):
    # the HTTP route feeds the same gate as the file route
    domain = _airport_domain()
    adapter = HttpKbAdapter(
        kb_server + "/lookup/{term}", kb_server + "/describe/{entity}"
    )
    axioms, audit = import_external(
        domain,
        ["LAX"],
        adapter,
        VocabularyMapping.parse(MAP_TEXT),
        constraints=AIRPORT_CONSTRAINTS,
    )
    assert [(a.entity_id, a.status) for a in audit] == [("APT1", "accepted")]
    assert axioms == parse_abox(
        "ClassAssert(Airport LAX)\nRoleAssert(iataCode LAX LAX)"
    )
