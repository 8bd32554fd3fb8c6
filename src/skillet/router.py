"""Skill routing: which skills a delegated task receives.

score = w_type * type_match + w_keyword * keyword_overlap, forced to 0 when
a hard policy constraint conflicts. type_match is 1 iff the task's type tag
is in the manifest's task_types; keyword_overlap is the fraction of the
manifest's trigger keywords found among the task text's lowercased word
tokens (an empty trigger set contributes 0). Every skill at or above the
threshold is routed, ordered by (score desc, skill_id asc). Routing is a
pure function of the registry contents and the task fields.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from .registry import SkillManifest, SkillRegistry

_TOKEN_RE = re.compile(r"[a-z0-9_]+")


@dataclass(frozen=True)
class DelegatedTask:
    task_text: str
    task_type: str
    workspace_root: Path
    done_when: str


@dataclass(frozen=True)
class RouterConfig:
    threshold: float = 0.5
    w_type: float = 0.6
    w_keyword: float = 0.4


@dataclass
class RoutedSkillSet:
    entries: list[tuple[str, float]] = field(default_factory=list)  # (skill_id, score)

    def skill_ids(self) -> list[str]:
        return [skill_id for skill_id, _ in self.entries]


def task_tokens(task_text: str) -> set[str]:
    return set(_TOKEN_RE.findall(task_text.lower()))


def score_candidate(
    manifest: SkillManifest,
    task: DelegatedTask,
    config: RouterConfig = RouterConfig(),
) -> float:
    if _policy_conflict(manifest, task):
        return 0.0
    type_match = 1.0 if task.task_type in manifest.task_types else 0.0
    if manifest.trigger_keywords:
        tokens = task_tokens(task.task_text)
        overlap = len(manifest.trigger_keywords & tokens) / len(manifest.trigger_keywords)
    else:
        overlap = 0.0
    return config.w_type * type_match + config.w_keyword * overlap


def _policy_conflict(manifest: SkillManifest, task: DelegatedTask) -> bool:
    if manifest.policy.requires_writable_workspace:
        return not os.access(task.workspace_root, os.W_OK)
    return False


def route(
    registry: SkillRegistry,
    task: DelegatedTask,
    config: RouterConfig = RouterConfig(),
) -> RoutedSkillSet:
    scored = [
        (m.skill_id, score_candidate(m, task, config))
        for m in registry.manifests()
    ]
    entries = sorted(
        ((sid, s) for sid, s in scored if s >= config.threshold),
        key=lambda e: (-e[1], e[0]),
    )
    return RoutedSkillSet(entries=entries)
