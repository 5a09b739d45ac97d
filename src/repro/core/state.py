"""Config <-> state-dict helpers for the core model stack.

The model registry persists fitted models together with the *exact*
configuration they were trained under (feature/sampling knobs change what
``extract_path_dataset`` produces, so predictions are only reproducible with
the saved config).  Configs are frozen dataclasses; this module converts
them to plain ``{"config": <class name>, "fields": {...}}`` dicts and back
by field name, so a bundle survives reordering or extending a config class
— a *removed* or renamed field fails loudly at restore time instead of
silently predicting with different knobs.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Any, Mapping

#: Class name -> defining module for every serializable configuration.
CONFIG_MODULES = {
    "RTLTimerConfig": "repro.core.pipeline",
    "BitwiseConfig": "repro.core.bitwise",
    "SignalwiseConfig": "repro.core.signalwise",
    "OverallConfig": "repro.core.overall",
    "SamplingConfig": "repro.core.sampling",
    "DatasetConfig": "repro.core.dataset",
}


def config_to_state(config: Any) -> dict:
    """Snapshot a (possibly nested) config dataclass into a plain dict."""
    fields: dict = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        fields[field.name] = (
            config_to_state(value) if dataclasses.is_dataclass(value) else value
        )
    return {"config": type(config).__name__, "fields": fields}


def config_from_state(state: Mapping[str, Any]) -> Any:
    """Rebuild the config dataclass a :func:`config_to_state` dict describes."""
    name = state.get("config")
    module_name = CONFIG_MODULES.get(name)
    if module_name is None:
        raise ValueError(f"unknown config {name!r}; known: {sorted(CONFIG_MODULES)}")
    cls = getattr(importlib.import_module(module_name), name)
    kwargs = {}
    for field_name, value in state["fields"].items():
        if isinstance(value, Mapping) and "config" in value and "fields" in value:
            value = config_from_state(value)
        elif isinstance(value, list):
            # Tuples do survive the pickle payload, but states that passed
            # through JSON (manifest echoes, hand-written tests) carry lists.
            value = tuple(value)
        kwargs[field_name] = value
    return cls(**kwargs)
