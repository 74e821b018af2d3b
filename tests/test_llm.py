from __future__ import annotations

import email.utils
import hashlib
import json
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ecpt.transport
from ecpt.embedding import HttpEmbedder
from ecpt.cases import (
    Case,
    ExecutionOutcome,
    OutcomeKind,
    build_preview,
)
from ecpt.errors import BackendError
from ecpt.llm import (
    Diagnosis,
    DiagnosisParseError,
    HttpChatBackend,
    LlmRequest,
    LlmResponse,
    MockBackend,
    MockRule,
    MockScriptError,
    Prescription,
    PrescriptionParseError,
    SqlParseError,
    Usage,
    approx_token_count,
    parse_diagnosis,
    parse_prescription,
    parse_sql,
    render_diagnosis,
    render_generic_fix,
    render_prescription,
    render_treatment,
    render_zero_shot,
)
from ecpt.transport import AuthenticationError, RateLimitError

from fixtures import CONCERT_DB, make_correction_cases


@pytest.fixture()
def failing_case(schemas) -> Case:
    return Case(
        schema=schemas[CONCERT_DB],
        question="How many distinct countries do singers come from?",
        generated_sql="SELECT count(country) FROM singer",
        outcome=ExecutionOutcome(OutcomeKind.UNDESIRED_RESULT, "result mismatch: got 1x1, expected 1x1"),
        result_preview=build_preview(("count(country)",), ((5,),)),
    )


# --- domain types ----------------------------------------------------------------

def test_request_validation():
    with pytest.raises(ValueError):
        LlmRequest("m", temperature=-0.1, max_tokens=10, prompt="p")
    with pytest.raises(ValueError):
        LlmRequest("m", temperature=0.0, max_tokens=0, prompt="p")


def test_diagnosis_validation():
    with pytest.raises(ValueError):
        Diagnosis(ranked_error_ids=())
    with pytest.raises(ValueError):
        Diagnosis(ranked_error_ids=("e3", "e3"))
    with pytest.raises(ValueError):
        Diagnosis(ranked_error_ids=("success",))


def test_prescription_requires_instruction():
    with pytest.raises(ValueError):
        Prescription(reason="r", instruction="  ")


def test_usage_addition():
    total = Usage(10, 2) + Usage(5, 1)
    assert total == Usage(15, 3)


# --- renderers --------------------------------------------------------------------

def test_zero_shot_contains_schema_question_and_instruction(schemas):
    prompt = render_zero_shot(schemas[CONCERT_DB], "How many singers do we have?")
    assert prompt.count("FOREIGN KEY") == 2
    assert "How many singers do we have?" in prompt
    assert "single SQL statement" in prompt


def test_zero_shot_snapshot_stable(schemas):
    first = render_zero_shot(schemas[CONCERT_DB], "How many singers do we have?")
    second = render_zero_shot(schemas[CONCERT_DB], "How many singers do we have?")
    assert first == second


def test_zero_shot_prompt_stays_under_token_budget(schemas):
    from ecpt.cases import SchemaDescription

    wide = SchemaDescription(
        db_id="warehouse",
        tables=tuple(
            (
                f"table_{t}",
                tuple((f"column_{t}_{c}", "text" if c % 2 else "number") for c in range(12)),
            )
            for t in range(5)
        ),
        foreign_keys=tuple(
            (f"table_{t}.column_{t}_0", "table_0.column_0_0") for t in range(1, 5)
        ),
    )
    for schema in list(schemas.values()) + [wide]:
        prompt = render_zero_shot(schema, "What is happening in this database?")
        assert approx_token_count(prompt) < 4000


def test_diagnosis_prompt_has_thirteen_rows_and_no_examples(failing_case):
    prompt = render_diagnosis(failing_case)
    rows = [l for l in prompt.splitlines() if l.startswith("e")]
    assert len(rows) == 13
    assert "example (" not in prompt
    assert "status: undesired_result" in prompt


def test_diagnosis_prompt_option_b_examples_adjacent(failing_case, schemas):
    catalog_cases = make_correction_cases(schemas)
    examples = {}
    for cc in catalog_cases:
        if cc.primary_label != "success":
            examples.setdefault(cc.primary_label, cc)
    prompt = render_diagnosis(failing_case, option_b_examples=examples)
    lines = prompt.splitlines()
    example_markers = [i for i, l in enumerate(lines) if l.strip().startswith("example (")]
    assert len(example_markers) == len(examples)
    for index in example_markers:
        error_id = lines[index].strip()[len("example (") : -len("):")]
        assert lines[index - 1].startswith(error_id + " ") or any(
            lines[j].startswith(error_id + " ") for j in range(index - 1, index - 5, -1)
        )


def test_diagnosis_prompt_thirteen_example_blocks(failing_case, schemas):
    catalog = make_correction_cases(schemas)
    base = next(cc for cc in catalog if cc.primary_label == "e3")
    examples = {f"e{i}": base for i in range(1, 14)}
    prompt = render_diagnosis(failing_case, option_b_examples=examples)
    assert prompt.count("example (") == 13


def test_diagnosis_prompt_deterministic(failing_case):
    assert render_diagnosis(failing_case) == render_diagnosis(failing_case)


def test_prescription_prompt_with_empty_retrieval(failing_case):
    diagnosis = Diagnosis(ranked_error_ids=("e1",))
    prompt = render_prescription(failing_case, diagnosis, [])
    assert "no solved examples available" in prompt
    assert "REASON:" in prompt and "INSTRUCTION:" in prompt


def test_prescription_prompt_orders_examples_and_includes_instructions(
    failing_case, schemas
):
    retrieved = make_correction_cases(schemas)[:3]
    diagnosis = Diagnosis(ranked_error_ids=("e1", "e3"))
    prompt = render_prescription(failing_case, diagnosis, retrieved)
    positions = [prompt.index(f"--- example {i} ---") for i in (1, 2, 3)]
    assert positions == sorted(positions)
    for cc in retrieved:
        assert cc.instruction in prompt
    assert "Other:DISTINCT" in prompt


def test_treatment_prompt_contents(failing_case):
    prescription = Prescription(reason="dup countries", instruction="Use DISTINCT inside count.")
    prompt = render_treatment(failing_case, prescription)
    assert failing_case.generated_sql in prompt
    assert "Use DISTINCT inside count." in prompt
    assert render_treatment(failing_case, prescription) == prompt


def test_treatment_prompt_never_contains_ground_truth(schemas):
    for cc in make_correction_cases(schemas):
        if cc.case.outcome.kind is OutcomeKind.SUCCESS:
            continue
        prescription = Prescription(reason="r", instruction="apply the fix")
        prompt = render_treatment(cc.case, prescription)
        assert cc.ground_truth_sql not in prompt


def test_zero_shot_and_diagnosis_never_contain_ground_truth(schemas):
    for cc in make_correction_cases(schemas):
        if cc.case.outcome.kind is OutcomeKind.SUCCESS:
            continue
        assert cc.ground_truth_sql not in render_zero_shot(cc.case.schema, cc.case.question)
        assert cc.ground_truth_sql not in render_diagnosis(cc.case)
        assert cc.ground_truth_sql not in render_generic_fix(cc.case)


# --- parsers -----------------------------------------------------------------------

def test_parse_diagnosis_comma_list():
    assert parse_diagnosis("e3, e5").ranked_error_ids == ("e3", "e5")


def test_parse_diagnosis_prose():
    diagnosis = parse_diagnosis("The main issue is e10; also check e11.")
    assert diagnosis.ranked_error_ids == ("e10", "e11")


def test_parse_diagnosis_dedupes_and_bounds():
    assert parse_diagnosis("e1 e1 e14 e13").ranked_error_ids == ("e1", "e13")


def test_parse_diagnosis_rejects_text_without_ids():
    with pytest.raises(DiagnosisParseError):
        parse_diagnosis("no errors found")


@given(
    ids=st.lists(
        st.sampled_from([f"e{i}" for i in range(1, 14)]), min_size=1, max_size=6, unique=True
    )
)
def test_parse_diagnosis_round_trips_id_lists(ids):
    assert parse_diagnosis(", ".join(ids)).ranked_error_ids == tuple(ids)


def test_parse_prescription_with_markers():
    text = "REASON: the value is wrong\nINSTRUCTION: fix the literal"
    prescription = parse_prescription(text)
    assert prescription.reason == "the value is wrong"
    assert prescription.instruction == "fix the literal"


def test_parse_prescription_fallback_paragraphs():
    text = "The join is missing.\n\nJoin singer to concert on singer_id."
    prescription = parse_prescription(text)
    assert prescription.reason == "The join is missing."
    assert prescription.instruction == "Join singer to concert on singer_id."


def test_parse_prescription_single_paragraph_becomes_instruction():
    prescription = parse_prescription("Just add DISTINCT.")
    assert prescription.instruction == "Just add DISTINCT."


def test_parse_prescription_rejects_empty():
    with pytest.raises(PrescriptionParseError):
        parse_prescription("   \n \n ")


def test_parse_sql_code_fence():
    assert parse_sql("```sql\nSELECT 1\n```") == "SELECT 1"


def test_parse_sql_plain_fence():
    assert parse_sql("```\nSELECT a FROM t\n```") == "SELECT a FROM t"


def test_parse_sql_prose_prefix():
    assert parse_sql("Here is the fix: SELECT a FROM t;") == "SELECT a FROM t;"


def test_parse_sql_with_clause():
    assert parse_sql("WITH x AS (SELECT 1) SELECT * FROM x").startswith("WITH")


def test_parse_sql_rejects_no_sql():
    with pytest.raises(SqlParseError):
        parse_sql("I cannot fix this.")


# --- mock backend ----------------------------------------------------------------------

def test_mock_echo_with_scripted_tokens():
    backend = MockBackend(
        [MockRule(response="e3", contains=("diagnose",), prompt_tokens=7, completion_tokens=1)]
    )
    response = backend.complete(LlmRequest("m", 0.0, 10, "please diagnose this"))
    assert response.text == "e3"
    assert (response.prompt_tokens, response.completion_tokens) == (7, 1)


def test_mock_default_token_counts_are_synthetic():
    backend = MockBackend([MockRule(response="SELECT 1")])
    response = backend.complete(LlmRequest("m", 0.0, 10, "x" * 40))
    assert response.prompt_tokens == 10
    assert response.completion_tokens == approx_token_count("SELECT 1")


def test_mock_max_uses_rotates_rules():
    backend = MockBackend(
        [
            MockRule(response="first", contains=("go",), max_uses=1),
            MockRule(response="second", contains=("go",)),
        ]
    )
    request = LlmRequest("m", 0.0, 10, "go")
    assert backend.complete(request).text == "first"
    assert backend.complete(request).text == "second"
    assert backend.complete(request).text == "second"


def test_mock_raises_without_match():
    backend = MockBackend([MockRule(response="x", contains=("never",))])
    with pytest.raises(MockScriptError):
        backend.complete(LlmRequest("m", 0.0, 10, "hello"))


def test_mock_script_file_round_trip(tmp_path):
    script = {
        "rules": [
            {"contains": ["alpha"], "response": "A", "max_uses": 1},
            {"contains": "alpha", "response": "B"},
        ],
        "default_response": "Z",
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script), encoding="utf-8")
    backend = MockBackend.from_script(path)
    request = LlmRequest("m", 0.0, 5, "alpha")
    assert backend.complete(request).text == "A"
    assert backend.complete(request).text == "B"
    assert backend.complete(LlmRequest("m", 0.0, 5, "other")).text == "Z"


def test_usage_accumulates_across_calls():
    backend = MockBackend(
        [MockRule(response="ok", prompt_tokens=11, completion_tokens=3)]
    )
    total = Usage()
    for _ in range(2):
        total += Usage.from_response(backend.complete(LlmRequest("m", 0.0, 5, "p")))
    assert total == Usage(22, 6)


# --- HTTP backend -------------------------------------------------------------------------

class FakeHttpResponse:
    def __init__(self, status_code: int, body: dict | None = None, headers=None):
        self.status_code = status_code
        self._body = body or {}
        self.text = json.dumps(self._body)
        self.headers = headers or {}

    def json(self):
        return self._body


def test_http_backend_parses_reply(monkeypatch):
    calls = []

    def fake_post(url, json=None, headers=None, timeout=None):
        calls.append((url, json))
        return FakeHttpResponse(
            200,
            {
                "choices": [{"message": {"content": "SELECT 1"}}],
                "usage": {"prompt_tokens": 12, "completion_tokens": 4},
            },
        )

    monkeypatch.setattr(ecpt.transport.requests, "post", fake_post)
    backend = HttpChatBackend("http://llm.local/v1", backoff_s=0.0)
    response = backend.complete(LlmRequest("gpt-test", 0.01, 100, "hello"))
    assert response == LlmResponse("SELECT 1", 12, 4)
    assert calls[0][0] == "http://llm.local/v1/chat/completions"
    assert calls[0][1]["temperature"] == 0.01
    assert calls[0][1]["max_tokens"] == 100


@pytest.mark.parametrize("key", [None, "", "sk-test"], ids=["unset", "empty", "set"])
def test_http_backends_send_a_bearer_header_only_when_the_key_is_set(monkeypatch, key):
    sent = []

    def fake_post(url, json=None, headers=None, timeout=None):
        sent.append(headers)
        if url.endswith("/embeddings"):
            return FakeHttpResponse(200, {"data": [{"index": 0, "embedding": [3.0, 4.0]}]})
        return FakeHttpResponse(200, {"choices": [{"message": {"content": "SELECT 1"}}]})

    monkeypatch.setattr(ecpt.transport.requests, "post", fake_post)
    monkeypatch.setenv("ECPT_API_KEY", "sk-not-the-named-variable")
    if key is None:
        monkeypatch.delenv("ECPT_TEST_KEY", raising=False)
    else:
        monkeypatch.setenv("ECPT_TEST_KEY", key)
    chat = HttpChatBackend("http://llm.local/v1", api_key_env="ECPT_TEST_KEY")
    assert chat.complete(LlmRequest("m", 0.0, 10, "p")).text == "SELECT 1"
    embedder = HttpEmbedder("http://llm.local/v1", "emb", dim=2, api_key_env="ECPT_TEST_KEY")
    assert embedder.embed_texts(["q"]).tolist() == [[0.6, 0.8]]
    expected = {"Authorization": "Bearer sk-test"} if key else {}
    assert sent == [expected, expected]


def test_http_backend_surfaces_rate_limit_after_retries(monkeypatch):
    attempts = []

    def fake_post(url, json=None, headers=None, timeout=None):
        attempts.append(1)
        return FakeHttpResponse(429)

    monkeypatch.setattr(ecpt.transport.requests, "post", fake_post)
    monkeypatch.setattr(ecpt.transport.time, "sleep", lambda s: None)
    backend = HttpChatBackend("http://llm.local/v1", backoff_s=0.0)
    with pytest.raises(RateLimitError):
        backend.complete(LlmRequest("m", 0.0, 10, "p"))
    assert len(attempts) == 3


@pytest.mark.parametrize("retry_after, waits", [
    ("5", [5.0, 5.0]),  # delta-seconds above both backoffs
    (" 1 ", [1.0, 2.0]),  # below the second backoff
    ("soon", [1.0, 2.0]),  # malformed: the backoff alone
    ("1.5", [1.0, 2.0]),  # delta-seconds are whole
    ("Wed, 21 Oct 2015 07:28:00 GMT", [1.0, 2.0]),  # a date gone by
], ids=["seconds", "seconds-below-backoff", "malformed", "fraction", "past-date"])
def test_a_429_waits_the_longer_of_retry_after_and_the_backoff(monkeypatch, retry_after, waits):
    replies = [FakeHttpResponse(429, headers={"Retry-After": retry_after})] * 2
    replies.append(FakeHttpResponse(200, {"ok": True}))
    slept = []
    monkeypatch.setattr(ecpt.transport.requests, "post", lambda *a, **k: replies.pop(0))
    monkeypatch.setattr(ecpt.transport.time, "sleep", slept.append)
    assert ecpt.transport.post_json_with_retries("http://llm.local/v1/x", {}, "K") == \
        {"ok": True}
    assert slept == waits


def test_a_429_honours_a_retry_after_date(monkeypatch):
    later = email.utils.formatdate(time.time() + 30, usegmt=True)
    replies = [FakeHttpResponse(429, headers={"Retry-After": later}),
               FakeHttpResponse(200, {"ok": True})]
    slept = []
    monkeypatch.setattr(ecpt.transport.requests, "post", lambda *a, **k: replies.pop(0))
    monkeypatch.setattr(ecpt.transport.time, "sleep", slept.append)
    ecpt.transport.post_json_with_retries("http://llm.local/v1/x", {}, "K")
    assert len(slept) == 1 and 28.0 < slept[0] <= 30.0  # the date has whole seconds


@pytest.mark.parametrize("retry_after", [
    "86400", "9" * 400, "Fri, 31 Dec 9999 23:59:59 GMT",
], ids=["a-day", "400-digits", "year-9999"])
def test_a_429_asking_for_more_than_the_cap_fails_at_once(monkeypatch, retry_after):
    attempts, slept = [], []

    def fake_post(*args, **kwargs):
        attempts.append(1)
        return FakeHttpResponse(429, headers={"Retry-After": retry_after})

    monkeypatch.setattr(ecpt.transport.requests, "post", fake_post)
    monkeypatch.setattr(ecpt.transport.time, "sleep", slept.append)
    with pytest.raises(ecpt.transport.RateLimitError, match=r"Retry-After asks for \S+ s"):
        ecpt.transport.post_json_with_retries("http://llm.local/v1/x", {}, "K")
    assert (len(attempts), slept) == (1, [])


def test_http_backend_retries_transient_then_succeeds(monkeypatch):
    responses = [
        FakeHttpResponse(500),
        FakeHttpResponse(
            200,
            {
                "choices": [{"message": {"content": "ok"}}],
                "usage": {"prompt_tokens": 1, "completion_tokens": 1},
            },
        ),
    ]

    def fake_post(url, json=None, headers=None, timeout=None):
        return responses.pop(0)

    monkeypatch.setattr(ecpt.transport.requests, "post", fake_post)
    monkeypatch.setattr(ecpt.transport.time, "sleep", lambda s: None)
    backend = HttpChatBackend("http://llm.local/v1", backoff_s=0.0)
    assert backend.complete(LlmRequest("m", 0.0, 10, "p")).text == "ok"


def test_http_backend_authentication_error_not_retried(monkeypatch):
    attempts = []

    def fake_post(url, json=None, headers=None, timeout=None):
        attempts.append(1)
        return FakeHttpResponse(401)

    monkeypatch.setattr(ecpt.transport.requests, "post", fake_post)
    backend = HttpChatBackend("http://llm.local/v1", backoff_s=0.0)
    with pytest.raises(AuthenticationError):
        backend.complete(LlmRequest("m", 0.0, 10, "p"))
    assert len(attempts) == 1


def test_http_backend_malformed_reply(monkeypatch):
    def fake_post(url, json=None, headers=None, timeout=None):
        return FakeHttpResponse(200, {"unexpected": True})

    monkeypatch.setattr(ecpt.transport.requests, "post", fake_post)
    backend = HttpChatBackend("http://llm.local/v1", backoff_s=0.0)
    with pytest.raises(BackendError, match="malformed"):
        backend.complete(LlmRequest("m", 0.0, 10, "p"))
