"""In-process binding tables for executors, hook programs, and completion gates.

Manifests reference behavior by string id; the registry resolves those ids
against these tables at load time. Built-in tools and skills register
themselves at import.
"""

from __future__ import annotations

from typing import Callable

EXECUTORS: dict[str, Callable] = {}
HOOK_PROGRAMS: dict[str, Callable] = {}
COMPLETION_GATES: dict[str, Callable] = {}


def executor(binding_id: str):
    def wrap(fn):
        EXECUTORS[binding_id] = fn
        return fn
    return wrap


def hook_program(binding_id: str):
    def wrap(fn):
        HOOK_PROGRAMS[binding_id] = fn
        return fn
    return wrap


def completion_gate(skill_id: str):
    """Register `fn(session, state_doc) -> open-gate reasons` for sessions routed
    to skill_id. The planner asks every routed skill's gate before it lets a
    session complete; an empty list means this skill does not object."""
    def wrap(fn):
        COMPLETION_GATES[skill_id] = fn
        return fn
    return wrap
