"""Sessions, the typed history, skill-local state, and durable persistence.

Every session owns an append-only JSONL log at `<store>/sessions/<id>.log`,
and that log is the only durable session state. Line 0 is a `session_meta`
record: the task, its root and routed skills, and the artifacts its
done_when requires, inferred once at create (a log without them requires
none). History events follow with gapless seqs from 1; two store records
that are not, `skill_state_snapshot` and `session_status`, are interleaved
at the seq of the last event written.

One fold, `apply_record`, is the only code that turns a record into session
state: the meta record builds the `Session`, a history event is appended (a
completion event also sets COMPLETED, and a tool call adds its id, with its
tool's name, to the session's call ids, whose count numbers the next call),
a snapshot replaces that skill's state, and a status record sets the
status. Each writer builds its record, appends it to the log, then applies
it through the fold; reading a log back is the same fold run over its
parsed records (`replay`). So the live session and a reload of its log
agree after every write, and a process that dies at any record boundary
leaves a log whose reload gives the session as it was at that point.

Opening a store reads each log's first record and its last whole record,
both from the file's ends (`read_ends`). A log whose last whole record
closed it, a completion event or a COMPLETED or FAILED status record, is
closed: its session is built from those two records and holds only its
meta fields, status and last seq. Only the open logs are folded, and an
open session holds its usage totals, skill state and rendering but not its
history. Whatever a session does not hold is folded from its log, with
`replay`, when it is read (`Session`), and the write that closes a session
drops what only an open session holds. So open time and memory follow the
open sessions, not every session the store has run. A torn tail line is
skipped, and nothing is written to read a log; anything corrupt earlier
raises CorruptStore, in an open log when the store opens, in a closed one
when it is first folded. A log without a `session_meta` line is moved to
`<store>/quarantine/`, and new ids are allocated past every log file seen.
`create_session` appends the meta record and the task's `user_message` in
one append and one fsync, then fsyncs `sessions/` so the new name is durable.
If either fails, the new log is quarantined before the error is raised, so
no store holds the session and its id is never handed out again.

Each call fact is written once. An `assistant_message` record holds the
reply's text, its `tool_call` (`name` and raw `args`) and its `usage`. The
`tool_call` record that follows holds `call_id` and `accepted`, plus `args`
only when validation changed them (a filled schema default); its
`tool_result` holds `call_id`, `ok` and `output`. The fold puts the left-out
fields back into the history payload: a tool_call's `name`, and an accepted
one's `args`, from the tool call of the latest `assistant_message`, and a
tool_result's `name` from its call id. So every reader sees
`{name, args, call_id, accepted}` (a refused call has no `args`) and
`{call_id, name, ok, output}`. A record that still holds those fields, as
one written before they were left out does, folds as it stands.

Rendering is part of the fold. Each history event is rendered to its chat
message once, when it is folded in. Standing guidance, a guidance injection
whose payload has a `standing` block id, is kept per skill as that skill's
latest block (`Session.guidance`): a block is every injection one
before_llm stage wrote for the skill, under that stage's id, and the skill's
next block replaces all of it. Every other message goes onto
`Session.rendered`, an in-memory list in log order. A request carries the
messages of `rendered`, then each routed skill's latest block in routed
order (`planner.render_messages`), which is where the wakeup that writes a
block puts it; a skill whose block is unchanged writes nothing, and its
block still rides at the tail. One supersede rule keeps repeated or dead
text out of `rendered`: at most one message stands under a key, and a later
record under that key makes it stale, whereupon the fold replaces it in
place by its stub. The log keeps every record. The rule has two users:
- reads: an ok `fs_read` result stands under its relative path and becomes a
  one-line stub once a later ok `fs_read` of the same path is folded in.
  Reads of different paths, and failed reads, supersede nothing;
- refused calls: an assistant line's `[tool_call] name({args})` becomes
  `[tool_call] name(...)` once a `tool_call` record with `"accepted": false`
  follows it. Its tool_result, with the reason, still renders; a call the
  executor ran keeps its arguments, even when it failed.
Guidance injections without a `standing` id render in log order like any
other message. The fold reads only the log, so a reload renders the requests
the live session did.

Durability (with `fsync`, the default): a write fsyncs the log before it
returns, except inside `batch(session_id)` on the thread that opened the
batch. There the fsync is deferred to the session's next durability point:
`sync(session_id)`, the write that completes or fails the session, or
leaving the batch. The planner runs each wakeup in a batch and syncs before
a tool's effect, so a wakeup costs two session-log fsyncs however many
records it writes. Writes from other threads, such as a child's report into
its parent, are not deferred.

Every JSONL log, the session logs and `requests.jsonl` alike, is written
through a `JsonlLog`, which cuts a torn tail at its first open (found by
reading back from the file's end), cuts a failed append back out of the
file, takes no append after a failed cut back, and holds the file open only
while it is written. So the store holds no descriptor between calls and
needs no closing. `set_status` writes a status record only when the status
changes, and a COMPLETED or FAILED session stays closed: it takes no other
status and no record.

Usage comes from the log too. The planner writes each model request's
usage into the `assistant_message` that records its reply, as
`"usage": [input_tokens, output_tokens, cache_tokens, total_tokens]`, and
the fold adds that array to `Session.usage`, counting one request. An
`assistant_message` without `usage`, as a log written before it was
recorded has, counts no tokens and no request. No store reads
`<store>/requests.jsonl`: that per-request ledger is `UsageLog`'s alone.
"""

from __future__ import annotations

import copy
import io
import json
import logging
import os
import re
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import (
    CorruptStore,
    LogWriteError,
    NotFound,
    OrphanToolResult,
    SessionClosed,
    UnknownParent,
    WorkspaceEscape,
)
from .workspace import infer_required_artifacts

log = logging.getLogger(__name__)


class EventKind(str, Enum):
    USER_MESSAGE = "user_message"
    ASSISTANT_MESSAGE = "assistant_message"
    TOOL_CALL = "tool_call"
    TOOL_RESULT = "tool_result"
    GUIDANCE_INJECTION = "guidance_injection"
    COMPLETION = "completion"
    SYSTEM_NOTE = "system_note"


class SessionStatus(str, Enum):
    ACTIVE = "active"
    AWAITING_FOLLOWUP = "awaiting_followup"
    COMPLETED = "completed"
    FAILED = "failed"


OPEN_STATUSES = (SessionStatus.ACTIVE, SessionStatus.AWAITING_FOLLOWUP)

# store-level record kinds that are not history events
_META_KIND = "session_meta"
_SNAPSHOT_KIND = "skill_state_snapshot"
_STATUS_KIND = "session_status"

_SESSION_ID = re.compile(r"s(\d+)")

_UNREAD = object()  # JsonlLog's torn-tail cut before the file is read


@dataclass
class UsageTotals:
    input_tokens: int = 0
    output_tokens: int = 0
    cache_tokens: int = 0
    total_tokens: int = 0
    request_count: int = 0

    def add(self, input_tokens: int, output_tokens: int, cache_tokens: int, total_tokens: int) -> None:
        self.input_tokens += input_tokens
        self.output_tokens += output_tokens
        self.cache_tokens += cache_tokens
        self.total_tokens += total_tokens
        self.request_count += 1


@dataclass
class HistoryEvent:
    seq: int
    kind: EventKind
    payload: dict


Message = tuple[str, str]  # (role, text)


@dataclass
class Block:
    """A skill's standing guidance: the id of the before_llm stage that wrote
    it and the messages of its injections, in write order."""

    block_id: int
    messages: list[Message] = field(default_factory=list)


@dataclass
class _OpenState:
    """What a session holds beyond its meta fields, status, usage and last
    seq while it can still take records, kept by apply_record as records
    are folded in: its skill state, its tool call ids with their tool names,
    the tool call of its latest assistant line, the chat messages its
    history renders to in log order (stubs where stale), the one message
    that stands under each supersede key (its index in `rendered` and its
    stub), and each skill's standing guidance."""

    skill_state: dict[str, dict] = field(default_factory=dict)
    tool_call_ids: dict[str, str] = field(default_factory=dict)  # call id -> tool name
    call: dict | None = None  # the latest assistant_message's tool_call
    rendered: list[Message] = field(default_factory=list)
    standing: dict[tuple[str, str], tuple[int, Message]] = field(default_factory=dict)
    guidance: dict[str, Block] = field(default_factory=dict)


def _held(name: str) -> property:
    """A field of the session's `_OpenState`: its own while it holds one,
    else the field of a fold of its log."""
    def get(self: Session) -> object:
        state = self._open if self._open is not None else self._fold()._open
        return getattr(state, name)
    return property(get)


@dataclass(eq=False)
class Session:
    """One session's state, as the fold of its log builds it.

    A session that `replay` or `read_log` builds holds all of it. A store's
    session always holds its meta fields, status and `last_seq`, and its
    usage totals (the sums of its `assistant_message` records' `usage`)
    unless the store built it from a closed log's ends. While it is open it
    also holds its `_OpenState` (skill state, tool call ids, `rendered`,
    `standing`, `guidance`), which the write that closes it drops. Its
    `history` is not built until it is read: an open session then keeps the
    list it folded, and later writes append to it. What a session does not
    hold is folded from its log, through the same `replay`, at each read; a
    closed log takes no more records, so that fold is the session. The
    runtime reads only what a session holds, so it folds no closed
    session."""

    session_id: str
    workspace_root: Path
    task_text: str
    task_type: str
    done_when: str
    parent_id: str | None = None
    routed_skills: list[str] = field(default_factory=list)
    required_artifacts: list[str] = field(default_factory=list)
    status: SessionStatus = SessionStatus.ACTIVE
    last_seq: int = 0  # the seq of the last history event, 0 before the first
    # None where not held, so read from the log (class docstring)
    _usage: UsageTotals | None = field(default_factory=UsageTotals, repr=False)
    _history: list[HistoryEvent] | None = field(default_factory=list, repr=False)
    _open: _OpenState | None = field(default_factory=_OpenState, repr=False)
    _log: JsonlLog | None = field(default=None, repr=False)  # a store session's log

    skill_state = _held("skill_state")
    tool_call_ids = _held("tool_call_ids")
    rendered = _held("rendered")
    standing = _held("standing")
    guidance = _held("guidance")

    @property
    def history(self) -> list[HistoryEvent]:
        if self._history is not None:
            return self._history
        with self._log.lock:  # no write lands between the read and the hold
            history = self._history
            if history is None:
                history = self._fold()._history
                if self.status in OPEN_STATUSES:
                    self._history = history
            return history

    @property
    def usage(self) -> UsageTotals:
        return self._usage if self._usage is not None else self._fold().usage

    @property
    def next_seq(self) -> int:
        return self.last_seq + 1

    def _fold(self) -> Session:
        """The session its log holds, read and folded now; CorruptStore for
        a corrupt record in it."""
        path = self._log.path
        return replay(parse_jsonl(path.read_bytes(), path.name)[0])


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _call_line(text: str, name: str, args: str) -> Message:
    return ("assistant", f"{text}\n[tool_call] {name}({args})".strip())


def render_event(event: HistoryEvent) -> Message | None:
    """The (role, text) chat message one history event renders to, a pure
    function of its kind and payload; None for runtime bookkeeping
    (tool_call, system_note, completion).

    User messages and guidance injections are user messages; tool results
    come back as user-role text so the rendering stays provider generic; a
    tool call is folded into its assistant line.
    """
    payload = event.payload
    if event.kind in (EventKind.USER_MESSAGE, EventKind.GUIDANCE_INJECTION):
        return ("user", payload["text"])
    if event.kind is EventKind.ASSISTANT_MESSAGE:
        text = payload.get("text") or ""
        call = payload.get("tool_call")
        if call:
            return _call_line(text, call["name"], json.dumps(call["args"], sort_keys=True))
        return ("assistant", text.strip())
    if event.kind is EventKind.TOOL_RESULT:
        return ("user", (
            f"[tool_result {payload['name']}] ok={str(payload['ok']).lower()} "
            f"{json.dumps(payload['output'], sort_keys=True)}"
        ))
    return None


# the supersede key of the session's latest assistant line with a tool call
_CALL = ("call", "")


def _stand(state: _OpenState, key: tuple[str, str], stub: Message) -> None:
    """The message just rendered stands under `key` in place of the one that
    stood there, which becomes its stub; `_retire(key)` makes it stale too."""
    _retire(state, key)
    state.standing[key] = (len(state.rendered) - 1, stub)


def _retire(state: _OpenState, key: tuple[str, str]) -> None:
    """Replace the message that stands under `key`, if any, by its stub."""
    stale = state.standing.pop(key, None)
    if stale is not None:
        state.rendered[stale[0]] = stale[1]


def _render(state: _OpenState, event: HistoryEvent) -> None:
    """Render one event: standing guidance onto its skill's block, anything
    else onto `rendered` under the supersede rule."""
    payload = event.payload
    if event.kind is EventKind.TOOL_CALL and payload.get("accepted") is False:
        _retire(state, _CALL)  # the refused call's own assistant line
    message = render_event(event)
    if message is None:
        return
    if event.kind is EventKind.GUIDANCE_INJECTION and payload.get("standing") is not None:
        block = state.guidance.get(payload["skill_id"])
        if block is None or block.block_id != payload["standing"]:
            block = state.guidance[payload["skill_id"]] = Block(payload["standing"])
        block.messages.append(message)
        return
    state.rendered.append(message)
    if event.kind is EventKind.ASSISTANT_MESSAGE:
        # only a refusal right after this line makes it stale, not a later line
        state.standing.pop(_CALL, None)
        call = payload.get("tool_call")
        if call:
            stub = _call_line(payload.get("text") or "", call["name"], "...")
            _stand(state, _CALL, stub)
    elif (event.kind is EventKind.TOOL_RESULT and payload["name"] == "fs_read"
          and payload["ok"]):
        path = payload["output"]["path"]
        _stand(state, ("read", path), ("user", (
            "[tool_result fs_read] ok=true "
            + json.dumps({"path": path, "superseded": "read again later"}, sort_keys=True))))


def _restored(state: _OpenState, kind: EventKind, payload: dict) -> dict:
    """A call record's payload with the fields its log record leaves out put
    back: a tool_call's `name`, and an accepted one's `args`, from the
    tool_call of the assistant line before it; a tool_result's `name` from
    its call id. A record that holds them, as one written before they were
    left out does, is the payload as it stands."""
    missing = {}
    if kind is EventKind.TOOL_CALL:
        if "name" not in payload:
            missing["name"] = state.call["name"]
        if payload.get("accepted") and "args" not in payload:
            missing["args"] = state.call["args"]
    elif kind is EventKind.TOOL_RESULT and "name" not in payload:
        missing["name"] = state.tool_call_ids[payload["call_id"]]
    return {**missing, **payload} if missing else payload


def apply_record(session: Session | None, record: dict) -> Session | None:
    """Fold one log record into session state; no other code does. A history
    event is also rendered here, once, onto its skill's standing block or
    onto `Session.rendered`, where the supersede rule replaces the message
    it makes stale by its stub. Returns the session, or None for a first
    record that is not a `session_meta`."""
    kind = record.get("kind")
    if session is None:
        if kind != _META_KIND:
            return None
        return Session(
            session_id=record["session_id"],
            workspace_root=Path(record["workspace_root"]),
            task_text=record["task_text"],
            task_type=record["task_type"],
            done_when=record["done_when"],
            parent_id=record.get("parent_id"),
            routed_skills=list(record.get("routed_skills", [])),
            required_artifacts=list(record.get("required_artifacts", [])),
        )
    state = session._open
    if kind == _SNAPSHOT_KIND:
        state.skill_state[record["skill_id"]] = record["state"]
    elif kind == _STATUS_KIND:
        session.status = SessionStatus(record["status"])
    else:
        kind = EventKind(kind)
        event = HistoryEvent(seq=record["seq"], kind=kind,
                             payload=_restored(state, kind, record["payload"]))
        session.last_seq = event.seq
        if session._history is not None:
            session._history.append(event)
        _render(state, event)
        if event.kind is EventKind.TOOL_CALL:
            state.tool_call_ids[event.payload.get("call_id")] = event.payload.get("name")
        elif event.kind is EventKind.ASSISTANT_MESSAGE:
            state.call = event.payload.get("tool_call")
            if "usage" in event.payload:
                session._usage.add(*event.payload["usage"])
        elif event.kind is EventKind.COMPLETION:
            session.status = SessionStatus.COMPLETED
    return session


def replay(records: list[dict]) -> Session | None:
    """The session a log's parsed records hold: the fold run over them. None
    for a log that does not open with its `session_meta` record."""
    session = None
    for record in records:
        session = apply_record(session, record)
        if session is None:
            return None
    return session


def read_log(store_dir: str | Path, session_id: str) -> tuple[Session, list[dict]]:
    """Read and fold one session's log, writing nothing: the session and the
    log's parsed records. NotFound for an id that is not `s<digits>`, and for
    a log that is missing or has no `session_meta` record yet."""
    path = Path(store_dir) / "sessions" / f"{session_id}.log"
    if not _SESSION_ID.fullmatch(session_id) or not path.is_file():
        raise NotFound(f"unknown session {session_id!r}")
    records, _ = parse_jsonl(path.read_bytes(), path.name)
    session = replay(records)
    if session is None:
        raise NotFound(f"session {session_id!r} has no session_meta record")
    return session, records


def snapshot_records(records: list[dict]) -> list[dict]:
    """The `skill_state_snapshot` records of a parsed log, in write order."""
    return [r for r in records if r.get("kind") == _SNAPSHOT_KIND]


def parse_jsonl(data: bytes, name: str) -> tuple[list[dict], int | None]:
    """Parse one record per line of a JSONL log's bytes. A torn or
    unparseable last line is skipped, and the length of the bytes before it
    is returned for the log's writer to cut to (None when the tail is
    whole); a corrupt earlier line raises. Nothing is written here."""
    lines = data.split(b"\n")
    # a well-formed log ends with a newline, so the final split chunk is empty;
    # anything else is a torn tail
    torn_tail = lines[-1] != b""
    body = lines[:-1]
    records: list[dict] = []
    for i, line in enumerate(body):
        try:
            records.append(json.loads(line.decode("utf-8")))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            if i == len(body) - 1 and not torn_tail:
                torn_tail = True
                body = body[:-1]
                break
            raise CorruptStore(f"{name}: corrupt record at line {i + 1}: {exc}") from exc
    return records, sum(len(line) + 1 for line in body) if torn_tail else None


_BLOCK = 8192  # the first read at either end of a log


def read_tail(fd: int, name: str) -> tuple[dict | None, int | None]:
    """The last whole record of an open JSONL file and the length to cut a
    torn or unparseable last line to (None when the tail is whole), as
    `parse_jsonl` finds them, but read back from the file's end: blocks
    that grow until they hold the last two whole lines. CorruptStore where
    `parse_jsonl` would raise on those lines; an earlier line is not read."""
    size = os.fstat(fd).st_size
    block = _BLOCK
    while True:
        start = max(0, size - block)
        data = os.pread(fd, size - start, start)
        # past the first newline, every line is whole
        if start == 0 or data.count(b"\n") >= 3:
            break
        block *= 4
    lines = data.split(b"\n")
    torn = lines.pop()  # the bytes after the last newline
    cut = size - len(torn) if torn else None
    for line in reversed(lines[-2:]):
        try:
            return json.loads(line.decode("utf-8")), cut
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            if cut is not None:
                raise CorruptStore(f"{name}: corrupt record before its last line: {exc}") from exc
            cut = size - len(torn) - len(line) - 1  # a whole last line that does not parse
    return None, cut


def read_ends(path: Path) -> tuple[dict | None, dict | None, int | None]:
    """A JSONL log's first and last whole records (None when it has none)
    and `read_tail`'s cut, read from the file's two ends alone."""
    fd = os.open(path, os.O_RDONLY)
    try:
        last, cut = read_tail(fd, path.name)
        if last is None:
            return None, None, cut
        block = _BLOCK
        head = os.pread(fd, block, 0)
        while b"\n" not in head:  # there is a whole record, so a newline
            block *= 4
            head = os.pread(fd, block, 0)
    finally:
        os.close(fd)
    try:
        return json.loads(head[:head.index(b"\n")].decode("utf-8")), last, cut
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptStore(f"{path.name}: corrupt record at line 1: {exc}") from exc


def closing_status(record: dict | None) -> SessionStatus | None:
    """The status of a log whose last whole record is `record` when that
    record closed it: COMPLETED for a completion event, the status of a
    COMPLETED or FAILED status record; None for an open log. A closed
    session takes no other record, so the record that closed it is last."""
    kind = record.get("kind") if record else None
    if kind == EventKind.COMPLETION.value:
        return SessionStatus.COMPLETED
    if kind == _STATUS_KIND:
        status = SessionStatus(record["status"])
        return None if status in OPEN_STATUSES else status
    return None


class JsonlLog:
    """One append-only JSONL file: its path, the lock its writers hold, and
    the state of its appends.

    The first open cuts a torn tail line, with a warning, to `intact`: the
    length `parse_jsonl` found before it, read back from the file's end at
    that open (`read_tail`) when not given. `append` writes with one write
    loop and fsyncs when asked; if the write or the fsync fails, it cuts the
    file back to its length before the append and raises. That length is not
    read per append: each open takes the file's length with one `fstat`, and
    each append adds the bytes it wrote, which holds as long as every append
    to the file goes through this object. If the cut back fails too, every
    later append raises LogWriteError, as the writer would reuse the seqs of
    the records left behind. In a `batch()` the holding thread's appends
    share one descriptor, opened at the first of them, and their fsync waits
    for `sync()` or the batch's end, which syncs and closes it; any other
    append opens, appends, fsyncs and closes. Callers of `append` and `sync`
    hold `lock`, and so does a read of an open session's history, which a
    write may make on the writer's own thread."""

    def __init__(self, path: Path, intact: int | None | object = _UNREAD):
        self.path = path
        self.lock = threading.RLock()
        self._intact = intact  # the cut of the first open: a length, None, or _UNREAD
        self._batcher: int | None = None  # the thread that holds the batch
        self._fh: io.FileIO | None = None  # the batch's descriptor
        self._unsynced = False  # batched appends wait for an fsync
        self._stuck = False  # a failed append could not be cut back
        self._end = 0  # the file's length: fstat at each open, plus each append

    def append(self, data: bytes, fsync: bool) -> None:
        if self._stuck:
            raise LogWriteError(f"{self.path}: takes no append since a cut back failed")
        if self._batcher != threading.get_ident():
            with self._open() as fh:
                self._write(fh, data, fsync)
            self._unsynced = False  # the fsync covered earlier appends too
            return
        if self._fh is None:
            self._fh = self._open()
        self._write(self._fh, data, False)
        if fsync:
            self._unsynced = True

    def sync(self) -> None:
        """Fsync the batch's appends; a failed fsync raises and is not retried."""
        if self._unsynced:
            self._unsynced = False
            os.fsync(self._fh.fileno())

    @contextmanager
    def batch(self):
        with self.lock:
            self._batcher = threading.get_ident()
        try:
            yield
        finally:
            with self.lock:
                self._batcher = None
                try:
                    self.sync()
                finally:
                    fh, self._fh = self._fh, None
                    if fh is not None:
                        fh.close()

    def _open(self) -> io.FileIO:
        intact = self._intact
        if intact is _UNREAD:
            intact = None
            with suppress(FileNotFoundError):
                fd = os.open(self.path, os.O_RDONLY)
                try:
                    intact = read_tail(fd, self.path.name)[1]
                finally:
                    os.close(fd)
        if intact is not None:
            os.truncate(self.path, intact)
            log.warning("%s: truncated torn tail record", self.path.name)
        fh = open(self.path, "ab", buffering=0)
        self._intact = None  # only the first open cuts
        self._end = os.fstat(fh.fileno()).st_size
        return fh

    def _write(self, fh: io.FileIO, data: bytes, fsync: bool) -> None:
        size = len(data)
        try:
            while data:
                data = data[fh.write(data):]
            if fsync:
                os.fsync(fh.fileno())
        except BaseException:
            self._stuck = True  # unless the cut back succeeds
            os.ftruncate(fh.fileno(), self._end)
            self._stuck = False
            raise
        self._end += size


class SessionStore:
    """Durable home of sessions: one `Session` for each log, with the
    `JsonlLog` of that log, whose lock serializes the session's writes,
    syncs and batches. Opening a store folds only its open logs: a closed
    log's session is built from the log's first and last whole records, and
    what it does not hold is folded from the log when it is read (`Session`).
    So open time and memory grow with the open sessions, not with every
    session the store has run."""

    def __init__(self, store_dir: str | Path, fsync: bool = True):
        self.store_dir = Path(store_dir)
        self.sessions_dir = self.store_dir / "sessions"
        self.quarantine_dir = self.store_dir / "quarantine"
        self.sessions_dir.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._sessions: dict[str, Session] = {}
        self._store_lock = threading.Lock()
        self._last_id = 0
        self._load()

    # -- public API --------------------------------------------------------

    def create_session(
        self,
        task_text: str,
        task_type: str,
        workspace_root: str | Path,
        done_when: str,
        parent_id: str | None = None,
        routed_skills: list[str] | None = None,
    ) -> Session:
        root = Path(workspace_root).resolve()
        if not root.is_dir():
            raise WorkspaceEscape(f"workspace root does not exist: {root}")
        if parent_id is not None:
            parent = self._sessions.get(parent_id)
            if parent is None:
                raise UnknownParent(f"unknown parent session {parent_id!r}")
            if not root.is_relative_to(parent.workspace_root):
                raise WorkspaceEscape(
                    f"child root {root} escapes parent root {parent.workspace_root}"
                )
        with self._store_lock:
            self._last_id += 1
            session_id = f"s{self._last_id:04d}"
        meta = {
            "seq": 0,
            "kind": _META_KIND,
            "session_id": session_id,
            "parent_id": parent_id,
            "workspace_root": str(root),
            "task_text": task_text,
            "task_type": task_type,
            "done_when": done_when,
            "routed_skills": list(routed_skills or []),
            "required_artifacts": infer_required_artifacts(done_when, root),
        }
        first = {"seq": 1, "kind": EventKind.USER_MESSAGE.value,
                 "payload": {"text": task_text}}
        # no other thread writes to the new log: it is not registered until
        # its first records are written
        jsonl = JsonlLog(self.sessions_dir / f"{session_id}.log", None)
        try:
            self._append(jsonl, meta, first)
            if self.fsync:
                fd = os.open(self.sessions_dir, os.O_RDONLY)
                try:
                    os.fsync(fd)  # the new log's directory entry
                finally:
                    os.close(fd)
        except BaseException:
            # quarantine the new log: no store holds the session, its id stays taken
            with suppress(OSError):  # the create's own error is raised
                if jsonl.path.exists():
                    self._quarantine(jsonl.path, "create_session failed")
            raise
        session = replay([meta, first])
        with self._store_lock:
            self._hold(session, jsonl)
        return session

    def session(self, session_id: str) -> Session:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise NotFound(f"unknown session {session_id!r}") from None

    def sessions(self) -> list[Session]:
        return sorted(self._sessions.values(), key=lambda s: s.session_id)

    def append_event(self, session_id: str, kind: EventKind | str, payload: dict) -> int:
        session = self.session(session_id)
        kind = EventKind(kind)
        with session._log.lock:
            if session.status not in OPEN_STATUSES:
                raise SessionClosed(f"session {session_id} is {session.status.value}")
            if kind is EventKind.TOOL_RESULT:
                call_id = payload.get("call_id")
                if call_id not in session.tool_call_ids:
                    raise OrphanToolResult(f"no tool_call with call_id {call_id!r}")
            seq = session.next_seq
            self._commit(session, {"seq": seq, "kind": kind.value, "payload": payload})
            return seq

    def get_skill_state(self, session_id: str, skill_id: str) -> dict:
        session = self.session(session_id)
        return copy.deepcopy(session.skill_state.get(skill_id, {}))

    def put_skill_state(self, session_id: str, skill_id: str, state: dict) -> None:
        session = self.session(session_id)
        with session._log.lock:
            if session.status not in OPEN_STATUSES:
                raise SessionClosed(f"session {session_id} is {session.status.value}")
            self._commit(session, {
                "seq": session.last_seq,
                "kind": _SNAPSHOT_KIND,
                "skill_id": skill_id,
                "state": copy.deepcopy(state),  # the live state, not the caller's dict
            })

    def set_status(self, session_id: str, status: SessionStatus | str) -> None:
        session = self.session(session_id)
        status = SessionStatus(status)
        with session._log.lock:
            if status is session.status:
                return
            if session.status not in OPEN_STATUSES:  # a closed session stays closed
                raise SessionClosed(f"session {session_id} is {session.status.value}")
            self._commit(session, {
                "seq": session.last_seq,
                "kind": _STATUS_KIND,
                "status": status.value,
            })

    def sync(self, session_id: str) -> None:
        """Fsync every record written so far to the session's log; a failed
        fsync raises and is not retried."""
        with (jsonl := self.session(session_id)._log).lock:
            jsonl.sync()

    def batch(self, session_id: str):
        """Defer the fsync of this thread's writes to the session's log until
        `sync`, the write that completes or fails the session, or the end of
        the block, which syncs and closes the log (`JsonlLog.batch`). A crash
        of the process loses no record; only a power loss can lose the
        unsynced ones. Writes from other threads fsync as they would outside
        a batch."""
        return self.session(session_id)._log.batch()

    # -- persistence internals ----------------------------------------------

    def _commit(self, session: Session, record: dict) -> None:
        """Write one record and fold it into the live session; once the
        session is COMPLETED or FAILED, drop what only an open session holds
        and sync the log. The caller holds the log's lock."""
        jsonl = session._log
        self._append(jsonl, record)
        apply_record(session, record)
        if session.status not in OPEN_STATUSES:
            session._history = session._open = None
            jsonl.sync()

    def _append(self, jsonl: JsonlLog, *records: dict) -> None:
        """Append records in one `JsonlLog.append`; a failed one leaves the log as it was."""
        jsonl.append("".join(_canonical(r) + "\n" for r in records).encode("utf-8"), self.fsync)

    def _hold(self, session: Session, jsonl: JsonlLog) -> None:
        """Keep a session with its log; its history is folded at its first read."""
        session._history = None
        session._log = jsonl
        self._sessions[session.session_id] = session

    def _load(self) -> None:
        """Fold each open log; build each closed one's session from its ends."""
        for log_path in sorted(self.sessions_dir.glob("*.log")):
            self._note_id(log_path)
            first, last, intact = read_ends(log_path)
            if first is None or first.get("kind") != _META_KIND:
                self._quarantine(log_path, "missing session_meta record")
                continue
            status = closing_status(last)
            if status is None:
                session = replay(parse_jsonl(log_path.read_bytes(), log_path.name)[0])
            else:
                session = apply_record(None, first)
                session.status, session.last_seq = status, last["seq"]
                session._usage = session._open = None
            self._hold(session, JsonlLog(log_path, intact))
        for log_path in self.quarantine_dir.glob("*.log"):
            self._note_id(log_path)

    def _note_id(self, log_path: Path) -> None:
        match = _SESSION_ID.fullmatch(log_path.stem)
        if match:
            self._last_id = max(self._last_id, int(match.group(1)))

    def _quarantine(self, log_path: Path, reason: str) -> None:
        # ids are allocated past quarantined logs too, so names never collide here
        self.quarantine_dir.mkdir(exist_ok=True)
        target = self.quarantine_dir / log_path.name
        os.replace(log_path, target)
        log.warning("%s: %s, moved to %s", log_path.name, reason, target)
