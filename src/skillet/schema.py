"""Action schemas: the typed parameter trees behind every model-visible tool.

A params tree is an object spec whose fields are typed string/int/bool/
number/array/object, with optional enum constraints and defaults. Validation
is total: it never raises on model input, it returns either the args with
defaults filled or a list of (path, reason) issues.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from .errors import MalformedManifest

PARAM_TYPES = ("string", "int", "bool", "number", "array", "object")

_MISSING = object()


@dataclass
class ParamSpec:
    type: str
    description: str = ""
    enum: list | None = None
    default: Any = _MISSING
    items: "ParamSpec | None" = None            # array element spec
    min_items: int = 0                          # array lower bound
    fields: "dict[str, ParamSpec] | None" = None  # object member specs
    required: list[str] = field(default_factory=list)

    @property
    def has_default(self) -> bool:
        return self.default is not _MISSING

    def to_public_dict(self) -> dict:
        """Serializable form shipped to the model (no runtime bindings)."""
        out: dict[str, Any] = {"type": self.type}
        if self.description:
            out["description"] = self.description
        if self.enum is not None:
            out["enum"] = list(self.enum)
        if self.has_default:
            out["default"] = self.default
        if self.items is not None:
            out["items"] = self.items.to_public_dict()
        if self.min_items:
            out["min_items"] = self.min_items
        if self.fields is not None:
            out["fields"] = {k: v.to_public_dict() for k, v in self.fields.items()}
            if self.required:
                out["required"] = list(self.required)
        return out


@dataclass
class ActionSchema:
    name: str
    description: str
    params: ParamSpec
    executor_id: str

    def to_public_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "params": self.params.to_public_dict(),
        }

    @cached_property
    def public_json_chars(self) -> int:
        """Length of the public dict as sorted-key JSON, computed once:
        schemas are not changed after they are built."""
        return len(json.dumps(self.to_public_dict(), sort_keys=True))


@dataclass(frozen=True)
class ValidationIssue:
    path: str
    reason: str


@dataclass
class ValidationResult:
    value: dict | None
    errors: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def parse_param_spec(raw: Any, where: str) -> ParamSpec:
    """Parse and validate one node of a params tree from manifest JSON.

    Raises MalformedManifest on any structural problem; `where` names the
    position being parsed so load errors point at the offending node.
    """
    if not isinstance(raw, dict):
        raise MalformedManifest(f"{where}: param spec must be an object, got {type(raw).__name__}")
    known = {"type", "description", "enum", "default", "items", "min_items",
             "fields", "required"}
    unknown = set(raw) - known
    if unknown:
        raise MalformedManifest(f"{where}: unknown param spec keys {sorted(unknown)}")
    ptype = raw.get("type")
    if ptype not in PARAM_TYPES:
        raise MalformedManifest(f"{where}: type must be one of {PARAM_TYPES}, got {ptype!r}")
    spec = ParamSpec(type=ptype, description=str(raw.get("description", "")))

    if "enum" in raw:
        if not isinstance(raw["enum"], list) or not raw["enum"]:
            raise MalformedManifest(f"{where}: enum must be a non-empty list")
        bad = [v for v in raw["enum"] if _type_issue(ptype, v) is not None]
        if bad:
            raise MalformedManifest(f"{where}: enum values {bad!r} do not match type {ptype}")
        spec.enum = list(raw["enum"])

    if ptype == "array":
        if "items" not in raw:
            raise MalformedManifest(f"{where}: array spec requires items")
        spec.items = parse_param_spec(raw["items"], f"{where}.items")
        if "min_items" in raw:
            m = raw["min_items"]
            if not isinstance(m, int) or isinstance(m, bool) or m < 0:
                raise MalformedManifest(f"{where}: min_items must be a non-negative integer")
            spec.min_items = m
    elif "items" in raw or "min_items" in raw:
        raise MalformedManifest(f"{where}: items/min_items only valid for arrays")

    if ptype == "object":
        # an object spec without "fields" is opaque: any members pass through
        if "fields" in raw:
            fields_raw = raw["fields"]
            if not isinstance(fields_raw, dict):
                raise MalformedManifest(f"{where}: fields must be an object")
            spec.fields = {
                name: parse_param_spec(sub, f"{where}.fields.{name}")
                for name, sub in fields_raw.items()
            }
            req = raw.get("required", [])
            if not isinstance(req, list) or any(not isinstance(r, str) for r in req):
                raise MalformedManifest(f"{where}: required must be a list of field names")
            missing = [r for r in req if r not in spec.fields]
            if missing:
                raise MalformedManifest(f"{where}: required fields {missing} not in field set")
            spec.required = list(req)
        elif "required" in raw:
            raise MalformedManifest(f"{where}: required without fields")
    else:
        if "fields" in raw or "required" in raw:
            raise MalformedManifest(f"{where}: fields/required only valid for objects")

    if "default" in raw:
        issue = _type_issue(ptype, raw["default"])
        if issue is not None:
            raise MalformedManifest(f"{where}: default {issue}")
        spec.default = raw["default"]
    return spec


def object_spec(fields: dict[str, ParamSpec], required: list[str]) -> ParamSpec:
    """Convenience constructor for in-code tool schemas."""
    return ParamSpec(type="object", fields=fields, required=required)


def _type_issue(ptype: str, value: Any) -> str | None:
    """Return a reason string when value does not inhabit ptype, else None."""
    if ptype == "string":
        if not isinstance(value, str):
            return f"expected string, got {type(value).__name__}"
    elif ptype == "bool":
        if not isinstance(value, bool):
            return f"expected bool, got {type(value).__name__}"
    elif ptype == "int":
        # bool is an int subclass in Python; a formal surface says no
        if isinstance(value, bool) or not isinstance(value, int):
            return f"expected int, got {type(value).__name__}"
    elif ptype == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return f"expected number, got {type(value).__name__}"
    elif ptype == "array":
        if not isinstance(value, list):
            return f"expected array, got {type(value).__name__}"
    elif ptype == "object":
        if not isinstance(value, dict):
            return f"expected object, got {type(value).__name__}"
    return None


def _validate_node(spec: ParamSpec, value: Any, path: str, errors: list[ValidationIssue]) -> Any:
    issue = _type_issue(spec.type, value)
    if issue is not None:
        errors.append(ValidationIssue(path, issue))
        return value
    if spec.enum is not None and value not in spec.enum:
        errors.append(ValidationIssue(path, f"value {value!r} not in enum {spec.enum!r}"))
        return value
    if spec.type == "array":
        assert spec.items is not None
        if len(value) < spec.min_items:
            errors.append(ValidationIssue(
                path, f"at least {spec.min_items} item(s) required, got {len(value)}"))
        return [
            _validate_node(spec.items, item, f"{path}[{i}]", errors)
            for i, item in enumerate(value)
        ]
    if spec.type == "object":
        if spec.fields is None:  # opaque object
            return json.loads(json.dumps(value))
        out: dict[str, Any] = {}
        fields = spec.fields
        for key in value:
            if key not in fields:
                errors.append(ValidationIssue(f"{path}.{key}", "unknown field"))
        for name, sub in fields.items():
            if name in value:
                out[name] = _validate_node(sub, value[name], f"{path}.{name}", errors)
            elif sub.has_default:
                out[name] = json.loads(json.dumps(sub.default))
            elif name in spec.required:
                errors.append(ValidationIssue(f"{path}.{name}", "required field missing"))
        return out
    return value


def validate_action_args(schema: ActionSchema, args: Any) -> ValidationResult:
    """Validate a value tree against a tool's params spec.

    Total function: extraneous fields are rejected by path, defaults are
    filled, and no side effects occur either way.
    """
    errors: list[ValidationIssue] = []
    value = _validate_node(schema.params, args, "$", errors)
    if errors:
        return ValidationResult(value=None, errors=errors)
    return ValidationResult(value=value)
