"""Shared audit configuration: a JSON config file plus flag overrides.

Flags win over file values; the AUDIT_CONFIG environment variable may point
at the config file. A value of the wrong type or out of range is rejected
at load time with the offending key named.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
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
    config = AuditConfig()
    config_path = path or os.environ.get(ENV_CONFIG)
    if config_path:
        from .jsonfile import read_json  # only a command that reads a config loads the reader

        config = read_json(config_path, ConfigError, "config file", AuditConfig)
    return replace(config, **{key: value for key, value in (overrides or {}).items() if value is not None}).validate()
