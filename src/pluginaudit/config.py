"""Shared audit configuration: a JSON config file plus flag overrides.

Flags win over file values; the AUDIT_CONFIG environment variable may point
at the config file. Out-of-range values are rejected at load time with the
offending key named.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from pathlib import Path

ENV_CONFIG = "AUDIT_CONFIG"


class ConfigError(Exception):
    pass


class StageError(Exception):
    """A stage cannot run on its input: the `audit` command exits 1 naming it.

    The error of each layer derives from it, so the entry point catches one
    class without importing any layer."""


@dataclass
class AuditConfig:
    max_concurrency: int = 8
    per_host_delay_ms: int = 500
    timeout_ms: int = 10000
    retries: int = 2
    probe_budget: int = 12
    base_url_override: str | None = None
    redact_tokens: bool = True
    json_logs: bool = False

    def validate(self) -> "AuditConfig":
        limits = {
            "max_concurrency": (1, 256),
            "per_host_delay_ms": (0, 60000),
            "timeout_ms": (1, 300000),
            "retries": (0, 10),
            "probe_budget": (1, 1000),
        }
        for key, (low, high) in limits.items():
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool) or not (low <= value <= high):
                raise ConfigError(f"config key {key}={value!r} out of range [{low}, {high}]")
        return self


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> AuditConfig:
    """Config file (explicit path, else $AUDIT_CONFIG) merged with overrides."""
    values: dict = {}
    config_path = path or os.environ.get(ENV_CONFIG)
    if config_path:
        try:
            doc = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {config_path}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
        known = {f.name for f in fields(AuditConfig)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(doc)
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    return AuditConfig(**values).validate()
