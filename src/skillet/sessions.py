"""Sessions, the typed history, skill-local state, and durable persistence.

Every session owns an append-only JSONL log at `<store>/sessions/<id>.log`,
and that log is the only durable session state. Line 0 is a `session_meta`
record; history events follow with gapless seqs starting at 1. Two store
records that are not history events are interleaved at the seq of the last
event written: `skill_state_snapshot` and `session_status`.

One fold, `apply_record`, is the only code that turns a record into session
state: the meta record builds the `Session`, a history event is appended (a
completion event also sets COMPLETED and the session's tool-call fields are
kept up to date), a snapshot replaces that skill's state, and a status record
sets the status. Each writer builds its record, writes it to the log with one
`write`, then applies it through the fold; loading a log is the same fold run
over its parsed records (`replay`). So the live session and a reload of its
log agree after every write, and a process that dies at any record boundary
leaves a log whose reload gives the session as it was at that point. A torn
tail line is skipped on load, which writes nothing; anything corrupt earlier
raises CorruptStore. A log without a `session_meta` line is moved to
`<store>/quarantine/`, and new ids are allocated past every log file seen.
`create_session` writes the meta record and the task's `user_message` with
one `write` and one fsync, then fsyncs `sessions/` so the new name is durable.

Rendering is part of the fold. Each history event is rendered to its chat
message once, when it is folded in, onto `Session.rendered`, an in-memory
list that the planner sends as a request's messages. A guidance injection
whose payload has a `standing` block id is a skill's standing guidance: a
block is every injection one before_llm stage wrote for the skill, all
carrying that stage's id, and the skill's next block replaces its previous
one in the list (the superseded messages become None there), so a request
carries only each skill's latest block. The log keeps every injection;
unmarked injections, including every one in a log written before the marker
existed, render like any other message and stay.

Durability (with `fsync`, the default): a write fsyncs the log before it
returns, except inside `batch(session_id)` on the thread that opened the
batch. There the fsync is deferred to the session's next durability point:
`sync(session_id)`, the closing of the log, or leaving the batch. The planner
runs each wakeup in a batch and syncs before a tool's effect, so a wakeup
costs two session-log fsyncs however many records it writes. Writes from
other threads, such as a child's report into its parent, are not deferred.

The store keeps one `O_APPEND` descriptor per session log it writes to. It
opens it at the first write to that log, cutting a torn tail line (with a
warning) first, so the next record starts a line of its own. It syncs and
closes it when the session becomes COMPLETED or FAILED, and `close()` (or
leaving a `with` block) does so for every descriptor still open; a later
write to a closed log opens it again. `set_status` writes a status record
only when the status changes. Usage totals are rebuilt on load from one scan of
`<store>/requests.jsonl`, the per-request log that `UsageLog` appends to; its
torn last line is skipped there, and cut only by `UsageLog` before it
appends.
"""

from __future__ import annotations

import copy
import io
import json
import logging
import os
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import (
    CorruptStore,
    NotFound,
    OrphanToolResult,
    SessionClosed,
    UnknownParent,
    WorkspaceEscape,
)

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


@dataclass
class StandingBlock:
    """A skill's current standing guidance: the block id its stage wrote,
    and the seqs of its injections and their indices in `Session.rendered`."""

    block_id: int
    seqs: list[int] = field(default_factory=list)
    indices: list[int] = field(default_factory=list)


@dataclass
class Session:
    session_id: str
    workspace_root: Path
    task_text: str
    task_type: str
    done_when: str
    parent_id: str | None = None
    routed_skills: list[str] = field(default_factory=list)
    status: SessionStatus = SessionStatus.ACTIVE
    history: list[HistoryEvent] = field(default_factory=list)
    skill_state: dict[str, dict] = field(default_factory=dict)
    usage: UsageTotals = field(default_factory=UsageTotals)
    # kept by apply_record as events are folded in
    tool_calls: int = 0
    tool_call_ids: set[str] = field(default_factory=set)
    has_completion: bool = False
    # the chat messages the history renders to (None where superseded) and
    # each skill's current standing guidance block: in memory only
    rendered: list[tuple[str, str] | None] = field(default_factory=list, repr=False)
    standing: dict[str, StandingBlock] = field(default_factory=dict, repr=False)

    @property
    def next_seq(self) -> int:
        return self.history[-1].seq + 1 if self.history else 1


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _contains(root: Path, candidate: Path) -> bool:
    try:
        candidate.relative_to(root)
    except ValueError:
        return False
    return True


def _render_event(event: HistoryEvent) -> tuple[str, str] | None:
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
            text += f"\n[tool_call] {call['name']}({json.dumps(call['args'], sort_keys=True)})"
        return ("assistant", text.strip())
    if event.kind is EventKind.TOOL_RESULT:
        return ("user", (
            f"[tool_result {payload['name']}] ok={str(payload['ok']).lower()} "
            f"{json.dumps(payload['output'], sort_keys=True)}"
        ))
    return None


def is_standing(event: HistoryEvent) -> bool:
    """Whether the event is standing guidance: a before_llm injection that
    the skill's next block supersedes."""
    return (event.kind is EventKind.GUIDANCE_INJECTION
            and event.payload.get("standing") is not None)


def _render(session: Session, event: HistoryEvent) -> None:
    message = _render_event(event)
    if message is None:
        return
    if is_standing(event):
        skill_id, block_id = event.payload["skill_id"], event.payload["standing"]
        block = session.standing.get(skill_id)
        if block is None or block.block_id != block_id:
            if block is not None:
                for index in block.indices:  # superseded
                    session.rendered[index] = None
            block = session.standing[skill_id] = StandingBlock(block_id)
        block.seqs.append(event.seq)
        block.indices.append(len(session.rendered))
    session.rendered.append(message)


def apply_record(session: Session | None, record: dict) -> Session | None:
    """Fold one log record into session state; no other code does. A history
    event is also rendered here, once, onto `Session.rendered`, where a
    skill's new standing block replaces its previous one. Returns the
    session, or None for a first record that is not a `session_meta`."""
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
        )
    if kind == _SNAPSHOT_KIND:
        session.skill_state[record["skill_id"]] = record["state"]
    elif kind == _STATUS_KIND:
        session.status = SessionStatus(record["status"])
    else:
        event = HistoryEvent(seq=record["seq"], kind=EventKind(kind), payload=record["payload"])
        session.history.append(event)
        _render(session, event)
        if event.kind is EventKind.TOOL_CALL:
            session.tool_calls += 1
            session.tool_call_ids.add(event.payload.get("call_id"))
        elif event.kind is EventKind.COMPLETION:
            session.has_completion = True
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


def cut_torn_tail(path: Path) -> None:
    """Cut a torn last line from a log this process is about to append to
    (with a warning), so the next record starts a line of its own."""
    _, intact = parse_jsonl(path.read_bytes(), path.name)
    if intact is not None:
        os.truncate(path, intact)
        log.warning("%s: truncated torn tail record", path.name)


class SessionStore:
    """Durable home of sessions. Per-session writes, syncs and batches, and
    the opening and closing of that session's log descriptor, are
    serialized by a lock."""

    def __init__(self, store_dir: str | Path, fsync: bool = True):
        self.store_dir = Path(store_dir)
        self.sessions_dir = self.store_dir / "sessions"
        self.quarantine_dir = self.store_dir / "quarantine"
        self.sessions_dir.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._sessions: dict[str, Session] = {}
        self._locks: dict[str, threading.Lock] = {}
        self._logs: dict[str, io.FileIO] = {}  # open append descriptors by session id
        self._batched: dict[str, int] = {}  # session id -> thread that holds its batch
        self._dirty: set[str] = set()  # ids of open logs with writes not yet fsynced
        self._torn: set[str] = set()  # ids of logs loaded with a torn last line
        self._store_lock = threading.Lock()
        self._last_id = 0
        self._load()

    def __enter__(self) -> SessionStore:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
            if not _contains(parent.workspace_root, root):
                raise WorkspaceEscape(
                    f"child root {root} escapes parent root {parent.workspace_root}"
                )
        with self._store_lock:
            self._last_id += 1
            session_id = f"s{self._last_id:04d}"
            self._locks[session_id] = threading.Lock()
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
        }
        first = {"seq": 1, "kind": EventKind.USER_MESSAGE.value,
                 "payload": {"text": task_text}}
        # no other thread writes to the new id: it is not registered until
        # its first records are written
        self._write_records(session_id, meta, first)
        if self.fsync:
            fd = os.open(self.sessions_dir, os.O_RDONLY)
            try:
                os.fsync(fd)  # the new log's directory entry
            finally:
                os.close(fd)
        session = replay([meta, first])
        with self._store_lock:
            self._sessions[session_id] = session
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
        with self._locks[session_id]:
            if session.status not in OPEN_STATUSES:
                raise SessionClosed(f"session {session_id} is {session.status.value}")
            if kind is EventKind.TOOL_RESULT:
                call_id = payload.get("call_id")
                if call_id not in session.tool_call_ids:
                    raise OrphanToolResult(f"no tool_call with call_id {call_id!r}")
            if kind is EventKind.COMPLETION and session.has_completion:
                raise SessionClosed(f"session {session_id} already has a completion event")
            seq = session.next_seq
            self._commit(session, {"seq": seq, "kind": kind.value, "payload": payload})
            return seq

    def get_skill_state(self, session_id: str, skill_id: str) -> dict:
        session = self.session(session_id)
        return copy.deepcopy(session.skill_state.get(skill_id, {}))

    def put_skill_state(self, session_id: str, skill_id: str, state: dict) -> None:
        session = self.session(session_id)
        with self._locks[session_id]:
            if session.status not in OPEN_STATUSES:
                raise SessionClosed(f"session {session_id} is {session.status.value}")
            self._commit(session, {
                "seq": session.history[-1].seq if session.history else 0,
                "kind": _SNAPSHOT_KIND,
                "skill_id": skill_id,
                "state": copy.deepcopy(state),  # the live state, not the caller's dict
            })

    def set_status(self, session_id: str, status: SessionStatus | str) -> None:
        session = self.session(session_id)
        status = SessionStatus(status)
        with self._locks[session_id]:
            if status is session.status:
                return
            self._commit(session, {
                "seq": session.history[-1].seq if session.history else 0,
                "kind": _STATUS_KIND,
                "status": status.value,
            })

    def sync(self, session_id: str) -> None:
        """Fsync every record written so far to the session's log; a failed
        fsync raises and is not retried."""
        with self._locks[session_id]:
            self._sync(session_id)

    @contextmanager
    def batch(self, session_id: str):
        """Defer the fsync of this thread's writes to the session's log until
        `sync`, the closing of the log, or the end of the block, which syncs.
        Every record is still written as it is made, so a crash of the
        process loses none of them; only a power loss can lose the unsynced
        ones. Writes from other threads fsync as they would outside a batch."""
        lock = self._locks[session_id]
        with lock:
            self._batched[session_id] = threading.get_ident()
        try:
            yield
        finally:
            with lock:
                del self._batched[session_id]
                self._sync(session_id)

    def close(self) -> None:
        """Sync and close every session log descriptor still open."""
        for session_id in list(self._logs):
            with self._locks[session_id]:
                self._close_log(session_id)

    # -- persistence internals ----------------------------------------------

    def _log_path(self, session_id: str) -> Path:
        return self.sessions_dir / f"{session_id}.log"

    def _commit(self, session: Session, record: dict) -> None:
        """Write one record and fold it into the live session, closing the
        log once the session is COMPLETED or FAILED; the caller holds the
        session's lock."""
        self._write_records(session.session_id, record)
        apply_record(session, record)
        if session.status not in OPEN_STATUSES:
            self._close_log(session.session_id)

    def _write_records(self, session_id: str, *records: dict) -> None:
        """Append records with one `write` and fsync them, unless this thread
        holds the session's batch: then they are left for its next
        durability point. The caller holds the session's lock (or owns a
        session no other thread can see yet)."""
        fh = self._logs.get(session_id) or self._open_log(session_id)
        data = "".join(_canonical(record) + "\n" for record in records).encode("utf-8")
        while data:
            data = data[fh.write(data):]
        if not self.fsync:
            return
        if self._batched.get(session_id) == threading.get_ident():
            self._dirty.add(session_id)
        else:
            os.fsync(fh.fileno())
            self._dirty.discard(session_id)  # the fsync covered earlier writes too

    def _sync(self, session_id: str) -> None:
        if session_id in self._dirty:
            self._dirty.discard(session_id)
            os.fsync(self._logs[session_id].fileno())

    def _open_log(self, session_id: str) -> io.FileIO:
        path = self._log_path(session_id)
        if session_id in self._torn:
            cut_torn_tail(path)
            self._torn.discard(session_id)
        fh = self._logs[session_id] = open(path, "ab", buffering=0)
        return fh

    def _close_log(self, session_id: str) -> None:
        fh = self._logs.get(session_id)
        if fh is None:
            return
        try:
            self._sync(session_id)
        finally:
            del self._logs[session_id]
            fh.close()

    def _load(self) -> None:
        for log_path in sorted(self.sessions_dir.glob("*.log")):
            self._note_id(log_path)
            records, intact = parse_jsonl(log_path.read_bytes(), log_path.name)
            session = replay(records)
            if session is None:
                self._quarantine(log_path)
                continue
            if intact is not None:
                self._torn.add(session.session_id)
            self._sessions[session.session_id] = session
            self._locks[session.session_id] = threading.Lock()
        for log_path in self.quarantine_dir.glob("*.log"):
            self._note_id(log_path)
        self._load_usage()

    def _note_id(self, log_path: Path) -> None:
        match = _SESSION_ID.fullmatch(log_path.stem)
        if match:
            self._last_id = max(self._last_id, int(match.group(1)))

    def _quarantine(self, log_path: Path) -> None:
        # ids are allocated past quarantined logs too, so names never collide here
        self.quarantine_dir.mkdir(exist_ok=True)
        target = self.quarantine_dir / log_path.name
        os.replace(log_path, target)
        log.warning("%s: missing session_meta record, moved to %s", log_path.name, target)

    def _load_usage(self) -> None:
        requests = self.store_dir / "requests.jsonl"
        if not requests.exists():
            return
        # UsageLog owns this log and cuts a torn tail before it appends
        records, _ = parse_jsonl(requests.read_bytes(), requests.name)
        for line in records:
            session = self._sessions.get(line.get("session_id"))
            if session is not None:
                session.usage.add(line["input_tokens"], line["output_tokens"],
                                  line["cache_tokens"], line["total_tokens"])
