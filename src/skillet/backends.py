"""Model backends and per-request usage accounting.

Two backends share one interface: a deterministic scripted backend that
drives every test without a live model, and a generic HTTP chat backend for
real endpoints. Each completed request's usage is appended to
requests.jsonl, a per-request ledger that no session state is read from:
the planner also writes the usage into the `assistant_message` that records
the reply, and a session's totals are the fold of those records
(`sessions`).

Script files are a JSON list of steps:

    [{"when": {"phase_contains": "phase: verify"}, "respond": {"tool_call": {...}}},
     {"respond": {"text": "done"}}]

`when.phase_contains` matches a substring of the LAST rendered message
(guidance is injected last before each model call, so this keys on the
current phase); `when.tool_visible` requires a tool name in the visible
set; `when.session` requires the request's session id, so one script can
serve sessions that run at once. A step with no predicate always matches.
A malformed step raises ModelBackendError, with its index, at construction.
The first matching step is consumed per request, picked and removed under
one lock, so concurrent requests never share a step. Synthetic usage is
character-count based and includes the serialized tool surface, so narrower
tool exposure measurably shrinks requests.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    LogWriteError,
    ModelBackendError,
    ScriptExhausted,
    ScriptToolNotVisible,
)
from .schema import ActionSchema
from .sessions import JsonlLog, Session, parse_jsonl


@dataclass
class ToolCallRequest:
    name: str
    args: dict


@dataclass
class ModelRequest:
    messages: list[tuple[str, str]]  # (role, text)
    tools: list[ActionSchema]
    session_id: str


@dataclass
class UsageRecord:
    provider: str
    response_model: str
    input_tokens: int = 0
    output_tokens: int = 0
    cache_tokens: int = 0
    total_tokens: int = 0


@dataclass
class ModelResponse:
    text: str = ""
    tool_call: ToolCallRequest | None = None
    usage: UsageRecord = field(default_factory=lambda: UsageRecord("unknown", "unknown"))


def _tool_surface_chars(tools: list[ActionSchema]) -> int:
    """The length of the tool surface serialized as one JSON list: each
    schema's own length, computed once per schema, plus the brackets and a
    ", " between items."""
    return sum(t.public_json_chars for t in tools) + 2 * max(len(tools) - 1, 0) + 2


_WHEN_KEYS = {"phase_contains", "session", "tool_visible"}


def _step_problem(step) -> str | None:
    """Why the matcher would misread a script step, or None; `args` may be any value."""
    if not isinstance(step, dict) or not step.keys() <= {"when", "respond"}:
        return 'a step must be an object with no keys but "when" and "respond"'
    when, respond = step.get("when", {}), step.get("respond", {})
    if not (isinstance(when, dict) and when.keys() <= _WHEN_KEYS
            and all(isinstance(v, str) for v in when.values())):
        return f'"when" must map only {", ".join(sorted(_WHEN_KEYS))} to strings'
    if not isinstance(respond, dict):
        return '"respond" must be an object'
    if not isinstance(respond.get("text", ""), str):
        return '"text" must be a string'
    call = respond.get("tool_call", {"name": ""})
    if not (isinstance(call, dict) and isinstance(call.get("name"), str)):
        return '"tool_call" must be an object with a string "name"'
    return None


class ScriptedBackend:
    provider = "scripted"
    response_model = "scripted-v1"

    def __init__(self, steps: list[dict]):
        for index, step in enumerate(steps):
            if (problem := _step_problem(step)) is not None:
                raise ModelBackendError(f"script step {index}: {problem}")
        self._steps = [dict(s) for s in steps]
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        try:
            steps = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ModelBackendError(f"cannot read script {path}: {exc}") from exc
        if not isinstance(steps, list):
            raise ModelBackendError(f"script {path} must be a JSON list of steps")
        return cls(steps)

    def complete(self, request: ModelRequest) -> ModelResponse:
        with self._lock:
            index = self._first_match(request)
            if index is None:
                raise ScriptExhausted()
            respond = self._steps[index].get("respond", {})
            text = respond.get("text", "")
            tool_call = None
            if "tool_call" in respond:
                raw = respond["tool_call"]
                visible = [t.name for t in request.tools]
                if raw["name"] not in visible:
                    raise ScriptToolNotVisible(raw["name"], visible)
                tool_call = ToolCallRequest(name=raw["name"], args=raw.get("args", {}))
            self._steps.pop(index)

        input_chars = sum(len(t) for _, t in request.messages) + _tool_surface_chars(request.tools)
        output_chars = len(text) + (len(json.dumps(respond["tool_call"], sort_keys=True))
                                    if "tool_call" in respond else 0)
        usage = UsageRecord(
            provider=self.provider,
            response_model=self.response_model,
            input_tokens=input_chars,
            output_tokens=output_chars,
            cache_tokens=0,
            total_tokens=input_chars + output_chars,
        )
        return ModelResponse(text=text, tool_call=tool_call, usage=usage)

    def _first_match(self, request: ModelRequest) -> int | None:
        last_text = request.messages[-1][1] if request.messages else ""
        visible = {t.name for t in request.tools}
        for i, step in enumerate(self._steps):
            when = step.get("when", {})
            if "phase_contains" in when and when["phase_contains"] not in last_text:
                continue
            if "tool_visible" in when and when["tool_visible"] not in visible:
                continue
            if "session" in when and when["session"] != request.session_id:
                continue
            return i
        return None


class HttpBackend:
    """Chat-completions-style JSON over HTTP. Provider-generic: one POST per
    decision, no streaming, at most one tool call accepted per response."""

    provider = "http"

    def __init__(self, base_url: str, api_key: str = "", model: str = "default",
                 timeout_s: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.model = model
        self.timeout_s = timeout_s

    @property
    def response_model(self) -> str:
        return self.model

    def complete(self, request: ModelRequest) -> ModelResponse:
        # imported here so a scripted run never loads http.client, email or ssl
        import urllib.error
        import urllib.request

        body = json.dumps({
            "model": self.model,
            "messages": [{"role": role, "content": text} for role, text in request.messages],
            "tools": [
                {"type": "function", "function": t.to_public_dict()}
                for t in request.tools
            ],
        }).encode("utf-8")
        req = urllib.request.Request(
            f"{self.base_url}/chat/completions",
            data=body,
            headers={
                "Content-Type": "application/json",
                **({"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}),
            },
            method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                payload = resp.read()
        except urllib.error.HTTPError as exc:
            exc.close()  # it holds the response and its socket
            retryable = exc.code in (408, 409, 429) or exc.code >= 500
            raise ModelBackendError(
                f"model endpoint returned {exc.code}", retryable=retryable, status=exc.code
            ) from exc
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise ModelBackendError(f"model endpoint unreachable: {exc}", retryable=True) from exc
        return self._normalize(payload)

    def _normalize(self, payload: bytes) -> ModelResponse:
        try:
            doc = json.loads(payload.decode("utf-8"))
            message = doc["choices"][0]["message"]
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError, IndexError, TypeError) as exc:
            raise ModelBackendError(f"unparseable model response: {exc}", retryable=False) from exc
        tool_calls = message.get("tool_calls") or []
        if len(tool_calls) > 1:
            raise ModelBackendError(
                "response carries multiple tool calls; the loop is single-step",
                retryable=False,
            )
        tool_call = None
        if tool_calls:
            fn = tool_calls[0].get("function", {})
            try:
                args = json.loads(fn.get("arguments") or "{}")
            except json.JSONDecodeError as exc:
                raise ModelBackendError(f"unparseable tool arguments: {exc}", retryable=False) from exc
            tool_call = ToolCallRequest(name=fn.get("name", ""), args=args)
        usage_raw = doc.get("usage") or {}
        input_tokens = int(usage_raw.get("prompt_tokens", 0))
        output_tokens = int(usage_raw.get("completion_tokens", 0))
        # OpenAI-style responses nest the cache count under prompt_tokens_details
        details = usage_raw.get("prompt_tokens_details") or {}
        cached = details.get("cached_tokens")
        cache_tokens = int(usage_raw.get("cached_tokens", 0) if cached is None else cached)
        total = int(usage_raw.get("total_tokens", input_tokens + output_tokens + cache_tokens))
        return ModelResponse(
            text=message.get("content") or "",
            tool_call=tool_call,
            usage=UsageRecord(
                provider=self.provider,
                response_model=str(doc.get("model", self.model)),
                input_tokens=input_tokens,
                output_tokens=output_tokens,
                cache_tokens=cache_tokens,
                total_tokens=total,
            ),
        )


class UsageLog:
    """requests.jsonl writer: one self-delimiting line per model request,
    compact JSON with sorted keys as the session logs are written, the
    ledger an operator or a check can sum; no session state is rebuilt
    from it. Readers skip a torn last line; only the writer cuts it, at its
    first append. Each line goes through a `sessions.JsonlLog` opened for
    that line alone, under the log's lock: a caller returns once its own
    line is durable, or raises LogWriteError, leaving no byte of its line
    behind; if even the cut back failed, every later line is refused until
    a new UsageLog opens the file."""

    def __init__(self, path: str | Path, fsync: bool = True):
        self.path = Path(path)
        self.fsync = fsync
        self._log = JsonlLog(self.path)

    def record(self, session: Session, response: ModelResponse) -> UsageRecord:
        usage = response.usage
        line = json.dumps({
            "ts_us": int(time.time() * 1_000_000),  # an integer: lines keep one width
            "session_id": session.session_id,
            "provider": usage.provider,
            "response_model": usage.response_model,
            "input_tokens": usage.input_tokens,
            "output_tokens": usage.output_tokens,
            "cache_tokens": usage.cache_tokens,
            "total_tokens": usage.total_tokens,
        }, sort_keys=True, separators=(",", ":")) + "\n"
        with self._log.lock:
            try:
                self._log.append(line.encode("utf-8"), self.fsync)
            except Exception as exc:
                raise LogWriteError(f"cannot append to {self.path}: {exc}") from exc
        return usage

    def lines(self) -> list[dict]:
        """Every whole record; a torn last line is skipped, not cut."""
        if not self.path.exists():
            return []
        return parse_jsonl(self.path.read_bytes(), self.path.name)[0]
