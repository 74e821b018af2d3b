"""Small HTTP helper shared by the chat and embedding backends: POST JSON with
retries on transient failures (connection errors, timeouts, 429, 5xx)."""

from __future__ import annotations

import email.utils
import os
import time
from datetime import timezone

import requests

from .errors import BackendError


class TransportError(BackendError):
    pass


class AuthenticationError(TransportError):
    pass


class RateLimitError(TransportError):
    pass


# The longest `Retry-After` a request waits out, the default request timeout:
# a 429 asking for more (a far-off date, a huge or overflowing delta) fails at once
MAX_RETRY_AFTER_S = 60.0


def post_json_with_retries(
    url: str,
    payload: dict,
    api_key_env: str,
    timeout: float = 60.0,
    max_attempts: int = 3,
    backoff_s: float = 1.0,
) -> dict:
    api_key = os.environ.get(api_key_env, "")
    headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}
    last_error: Exception | None = None
    for attempt in range(max_attempts):
        retry_after_s = 0.0
        try:
            response = requests.post(url, json=payload, headers=headers, timeout=timeout)
        except (requests.ConnectionError, requests.Timeout) as exc:
            last_error = TransportError(f"transport failure: {exc}")
        else:
            if response.status_code in (401, 403):
                raise AuthenticationError(
                    f"authentication rejected (HTTP {response.status_code})"
                )
            if response.status_code == 429:
                last_error = RateLimitError("rate limited (HTTP 429)")
                retry_after_s = _retry_after_s(response.headers.get("Retry-After"))
                if retry_after_s > MAX_RETRY_AFTER_S:
                    raise RateLimitError(
                        f"rate limited (HTTP 429): Retry-After asks for {retry_after_s:.0f} s, "
                        f"more than the {MAX_RETRY_AFTER_S:.0f} s a request waits"
                    )
            elif response.status_code >= 500:
                last_error = TransportError(f"server error (HTTP {response.status_code})")
            elif response.status_code != 200:
                raise TransportError(
                    f"unexpected HTTP {response.status_code}: {response.text[:200]}"
                )
            else:
                try:
                    return response.json()
                except ValueError as exc:
                    raise TransportError(f"non-JSON reply: {exc}") from exc
        if attempt + 1 < max_attempts:
            time.sleep(max(backoff_s * (2**attempt), retry_after_s))
    assert last_error is not None
    raise last_error


def _retry_after_s(value: str | None) -> float:
    """The wait a `Retry-After` header asks for (RFC 9110 section 10.2.3), in
    delta-seconds or as an HTTP-date; 0 when it is absent or malformed."""
    value = (value or "").strip()
    if value.isdecimal():
        return float(value)
    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return 0.0
    if when.tzinfo is None:  # "-0000": UTC, as every HTTP-date is
        when = when.replace(tzinfo=timezone.utc)
    return max(when.timestamp() - time.time(), 0.0)
