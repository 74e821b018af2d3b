"""Small HTTP helper shared by the chat and embedding backends: POST JSON with
retries on transient failures (connection errors, timeouts, 429, 5xx)."""

from __future__ import annotations

import os
import time

import requests

from .errors import BackendError


class TransportError(BackendError):
    pass


class AuthenticationError(TransportError):
    pass


class RateLimitError(TransportError):
    pass


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
            time.sleep(backoff_s * (2**attempt))
    assert last_error is not None
    raise last_error
