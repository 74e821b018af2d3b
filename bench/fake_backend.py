"""Deterministic chat backend for offline runs.

Each prompt is routed in time independent of the item count: the step comes
from its template's marker phrase and the item from the unique question the
prompt carries, looked up in a dict. Per-item step counters decide which
scripted reply a call gets; the lock guards only those counters and the
tallies, and the injected latency is spent outside it, so concurrent items
overlap their waits the way they would against a remote service.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import Counter

# Marker phrases of the program's prompt templates, all within the first
# HEAD_CHARS characters of the prompt.
STEP_MARKERS = (
    ("zero_shot", "Write one SQLite query that answers the question."),
    ("diagnosis", "Review the failing case and classify the mistake."),
    ("prescription", "explain why the query failed and write an instruction"),
    ("treatment", "Fix the SQL query below."),
    ("generic_fix", "did not produce the expected result. Fix it."),
)
STEPS = tuple(step for step, _ in STEP_MARKERS)
HEAD_CHARS = 240
_DIGEST_MOD = 1 << 64


class UnscriptedPrompt(RuntimeError):
    pass


def detect_step(prompt: str) -> str:
    head = prompt[:HEAD_CHARS]
    for step, marker in STEP_MARKERS:
        if marker in head:
            return step
    raise UnscriptedPrompt(f"no template marker in prompt: {head[:80]!r}")


def question_of(step: str, prompt: str) -> str:
    """The question of the case the prompt is about (the first one it shows)."""
    if step in ("zero_shot", "treatment"):
        start = prompt.index("\nQuestion: ") + len("\nQuestion: ")
        return prompt[start : prompt.index("\n", start)]
    start = prompt.index("\nQUESTION\n") + len("\nQUESTION\n")
    return prompt[start : prompt.index("\nSQL\n", start)]


def count_tokens(text: str) -> int:
    return max(1, (len(text) + 3) // 4)


def prompt_digest(prompt: str) -> int:
    return int.from_bytes(hashlib.blake2b(prompt.encode("utf-8"), digest_size=8).digest(), "big")


class FakeChatBackend:
    """Serves the scripted replies of `scripts` (question -> script)."""

    def __init__(self, scripts: dict, latency_s: float, response_type):
        self._scripts = scripts
        self._latency_s = latency_s
        self._response_type = response_type  # the program's LlmResponse
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self._counters: Counter = Counter()
            self.calls: Counter = Counter()
            self.prompt_tokens = 0
            self.completion_tokens = 0
            self.item_tokens: Counter = Counter()
            self.digests = {step: 0 for step in STEPS}
            self.diagnosis_prompts: dict[tuple[str, int], str] = {}

    def complete(self, request):
        prompt = request.prompt
        step = detect_step(prompt)
        question = question_of(step, prompt)
        script = self._scripts.get(question)
        if script is None:
            raise UnscriptedPrompt(f"unknown question {question[:60]!r}")
        digest = prompt_digest(prompt)
        prompt_tokens = count_tokens(prompt)
        counter = "treatment" if step == "generic_fix" else step
        with self._lock:
            self._counters[question, counter] += 1
            n = self._counters[question, counter]
            text = _reply(script, counter, n)
            completion_tokens = count_tokens(text)
            self.calls[step] += 1
            self.prompt_tokens += prompt_tokens
            self.completion_tokens += completion_tokens
            self.item_tokens[question] += prompt_tokens + completion_tokens
            self.digests[step] = (self.digests[step] + digest) % _DIGEST_MOD
            if step == "diagnosis":
                self.diagnosis_prompts[question, n] = prompt
        if self._latency_s:
            time.sleep(self._latency_s)
        return self._response_type(
            text=text, prompt_tokens=prompt_tokens, completion_tokens=completion_tokens
        )


def _reply(script: dict, step: str, n: int) -> str:
    if step == "zero_shot":
        return script["zero_shot"]
    if step == "diagnosis":
        return ", ".join(script["labels"])
    if step == "prescription":
        return f"REASON: {script['reason']}\nINSTRUCTION: {script['instruction']}"
    treatments = script["treatments"]
    if n > len(treatments):
        raise UnscriptedPrompt(f"treatment call {n} beyond the {len(treatments)} scripted")
    return treatments[n - 1]
