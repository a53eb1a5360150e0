"""Pluggable chat-completion clients.

Two implementations share one interface: a deterministic mock for tests and
offline benchmark runs, and an HTTP client speaking the standard
chat-completions wire format (POST /chat/completions, messages list,
choices[0].message.content) against any compatible endpoint.  Every call is
recorded with its wall-clock latency and output token count so the harness
can report response-time statistics.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

DEFAULT_TEMPERATURE = 0.3
API_KEY_ENV = "TACTICBENCH_API_KEY"


@dataclass(frozen=True)
class ChatMessage:
    role: str  # system | user | assistant
    content: str


@dataclass
class ChatCompletionRequest:
    messages: list[ChatMessage]
    temperature: float = DEFAULT_TEMPERATURE
    model: str = "mock"
    purpose: str = ""  # free-form tag: tactics / causal / program / critic / ...


@dataclass
class ChatCompletionResponse:
    text: str
    token_count: int
    latency: float  # seconds

    def __post_init__(self) -> None:
        if self.text and self.token_count < 1:
            self.token_count = 1
        if self.latency < 0:
            raise ValueError("latency cannot be negative")


@dataclass
class CallRecord:
    purpose: str
    t_resp: float
    n_out: int
    request_text: str
    response_text: str


class ChatClient(Protocol):
    calls: list[CallRecord]

    def chat(self, request: ChatCompletionRequest) -> ChatCompletionResponse: ...


def _token_estimate(text: str) -> int:
    return max(1, len(text.split())) if text else 0


class MockChatClient:
    """Deterministic scripted client.

    ``responder`` maps (purpose, prompt text) to a response string; when
    None, ``scripted_responses`` are consumed in order per purpose, falling
    back to an empty string.  Latency is synthetic and never slept.
    """

    def __init__(
        self,
        responder: Optional[Callable[[str, str], str]] = None,
        scripted_responses: Optional[dict[str, list[str]]] = None,
        latency: float = 0.0,
        token_count: Optional[int] = None,
    ) -> None:
        self.responder = responder
        self.scripted = {k: list(v) for k, v in (scripted_responses or {}).items()}
        self.latency = latency
        self.token_count = token_count
        self.calls: list[CallRecord] = []

    def chat(self, request: ChatCompletionRequest) -> ChatCompletionResponse:
        prompt = "\n".join(m.content for m in request.messages)
        if self.responder is not None:
            text = self.responder(request.purpose, prompt)
        else:
            queue = self.scripted.get(request.purpose, [])
            text = queue.pop(0) if queue else ""
        n_out = self.token_count if self.token_count is not None else _token_estimate(text)
        self.calls.append(CallRecord(request.purpose, self.latency, n_out, prompt, text))
        return ChatCompletionResponse(text=text, token_count=n_out, latency=self.latency)


class TransportError(RuntimeError):
    pass


def _retryable(exc: Exception) -> bool:
    """Whether a later attempt may succeed: connection errors, timeouts, 429
    and 5xx responses.  Other HTTP errors are the request's own fault."""
    import requests  # here, not at the top: only the HTTP client needs it

    if isinstance(exc, (requests.ConnectionError, requests.Timeout, ConnectionError, TimeoutError)):
        return True
    if isinstance(exc, requests.HTTPError) and exc.response is not None:
        status = exc.response.status_code
        return status == 429 or status >= 500
    return False


def _default_transport(url: str, payload: dict, headers: dict, timeout: float) -> dict:
    import requests

    resp = requests.post(url, json=payload, headers=headers, timeout=timeout)
    resp.raise_for_status()
    return resp.json()


class HttpChatClient:
    """Chat-completions HTTP client with bounded retry of transient failures.

    The API key comes from ``api_key`` or the TACTICBENCH_API_KEY environment
    variable.  ``transport`` is injectable for tests; it gets (url, payload,
    headers, timeout) and returns the parsed JSON body.
    """

    MAX_RETRIES = 2

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: Optional[str] = None,
        timeout: float = 120.0,
        transport: Callable[[str, dict, dict, float], dict] = _default_transport,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.timeout = timeout
        self.transport = transport
        self.sleep = sleep
        self.calls: list[CallRecord] = []

    def chat(self, request: ChatCompletionRequest) -> ChatCompletionResponse:
        url = f"{self.base_url}/chat/completions"
        payload = {
            "model": self.model or request.model,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        for attempt in range(self.MAX_RETRIES + 1):
            start = time.perf_counter()
            try:
                body = self.transport(url, payload, headers, self.timeout)
            except Exception as exc:
                if attempt == self.MAX_RETRIES or not _retryable(exc):
                    raise TransportError(
                        f"chat completion failed after {attempt + 1} attempt(s): {exc}"
                    ) from exc
                self.sleep(2.0**attempt)
                continue
            latency = time.perf_counter() - start
            try:
                text = body["choices"][0]["message"]["content"]
                usage = body.get("usage", {})
                n_out = int(usage.get("completion_tokens", 0)) or _token_estimate(text)
            except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
                raise TransportError(f"malformed chat completion body: {exc!r}") from exc
            prompt = "\n".join(m.content for m in request.messages)
            self.calls.append(CallRecord(request.purpose, latency, n_out, prompt, text))
            return ChatCompletionResponse(text=text, token_count=n_out, latency=latency)
