"""Run configuration: hard caps and worker count.

The caps guard the CLI against accidental combinatorial blowup; requested
sweep bounds beyond a cap are a usage error.  Values come from (in order of
increasing precedence) built-in defaults, a ``key=value`` config file, and
``CAPELLI_*`` environment variables.  A file or environment value may lower
a cap but never raise it above its built-in default.
"""

from __future__ import annotations

import os
from typing import NamedTuple

ENV_PREFIX = "CAPELLI_"


class Config(NamedTuple):
    size_cap: int = 14   # largest |lambda| any sweep may request
    n_cap: int = 10      # largest N for the derivative identity; also caps the
                         # dougall sweep's a-max and bcd-max, and is the last
                         # N of the log-derivative sweep
    k_cap: int = 6       # largest parameter k; the pole-set sweep runs to it
    default_k: int = 0   # k used by commands when --k is omitted
    jobs: int = 0        # verification workers; 0 means available parallelism

    def effective_jobs(self) -> int:
        return self.jobs if self.jobs > 0 else (os.cpu_count() or 1)


_CAPS = ("size_cap", "n_cap", "k_cap")


class ConfigError(ValueError):
    pass


SHOWN_CHARS = 32  # how much of a rejected value an error message echoes
CONFIG_BYTES_MAX = 65536  # longest config file read; five keys need well under 1 KiB


def shown(text: str) -> str:
    """``repr(text)`` for a one-line error message; a longer value is cut to
    its first SHOWN_CHARS characters and followed by its length."""
    if len(text) <= SHOWN_CHARS:
        return repr(text)
    return f"{text[:SHOWN_CHARS]!r}... ({len(text)} characters)"


def _checked(cfg: Config) -> Config:
    for name in _CAPS + ("jobs",):
        if getattr(cfg, name) < 0:
            raise ConfigError(f"{name} = {getattr(cfg, name)} must be non-negative")
    for name in _CAPS:
        value, ceiling = getattr(cfg, name), Config._field_defaults[name]
        if value > ceiling:
            raise ConfigError(f"{name} = {value} exceeds its built-in ceiling {ceiling}")
    if not 0 <= cfg.default_k <= cfg.k_cap:
        raise ConfigError(f"default_k = {cfg.default_k} must lie in [0, k_cap = {cfg.k_cap}]")
    return cfg


def _int(where: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{where} needs an integer, got {shown(value)}") from exc


def parse_config_text(text: str, base: Config | None = None) -> Config:
    cfg = base or Config()
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {shown(raw)}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in Config._fields:
            raise ConfigError(f"line {lineno}: unknown key {shown(key)}")
        updates[key] = _int(f"line {lineno}: {key}", value)
    return _checked(cfg._replace(**updates))


def load_config(path: str | None = None, environ: dict | None = None) -> Config:
    cfg = Config()
    if path is not None:
        try:
            with open(path, "rb") as fh:
                data = fh.read(CONFIG_BYTES_MAX + 1)
            if len(data) > CONFIG_BYTES_MAX:
                raise ConfigError(f"config file {path} is longer than {CONFIG_BYTES_MAX} bytes")
            text = data.decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        cfg = parse_config_text(text, cfg)
    env = os.environ if environ is None else environ
    updates = {}
    for name in Config._fields:
        raw = env.get(ENV_PREFIX + name.upper())
        if raw is not None:
            updates[name] = _int(ENV_PREFIX + name.upper(), raw)
    return _checked(cfg._replace(**updates))
