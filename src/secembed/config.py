"""Problem-instance and run configuration files.

One YAML document describes a run: the command, its parameters, the system
tables (alphabets declared with explicit symbol lists, probability tables as
nested lists of exact decimals), and optionally an aux channel, a test
channel, or a region point.  Tables are validated on load to 1e-12 and never
silently renormalized; every invariant violation names the offending table.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np
import yaml

from .errors import ValidationError
from .region import AuxChannel, RegionPoint, SystemSpec
from .tables import NORMALIZATION_ATOL, Axis, DistTable, DistortionMeasure

COMMANDS = ("rd", "region-eval", "region-opt", "simulate", "audit", "sweep")
RANDOMIZED_COMMANDS = ("region-opt", "simulate", "audit")

_REQUIRED_AXES = ("U", "X", "K", "Y", "Z", "Uhat")


def _as_float_array(name: str, data, shape: tuple[int, ...]) -> np.ndarray:
    try:
        arr = np.array(data, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"table {name!r} is not a numeric array: {e}") from e
    if arr.shape != shape:
        raise ValidationError(f"table {name!r} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"table {name!r} contains non-finite entries")
    return arr


def _check_joint(name: str, arr: np.ndarray) -> None:
    if np.any(arr < 0):
        raise ValidationError(f"table {name!r} has negative entries")
    s = float(arr.sum())
    if abs(s - 1.0) > NORMALIZATION_ATOL:
        raise ValidationError(f"table {name!r} must sum to 1, got {s!r}")


def _check_rows(name: str, arr: np.ndarray) -> None:
    if np.any(arr < 0):
        raise ValidationError(f"table {name!r} has negative entries")
    sums = arr.sum(axis=-1)
    bad = np.abs(sums - 1.0) > NORMALIZATION_ATOL
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValidationError(
            f"table {name!r}: conditional slice {idx} sums to {float(sums[bad][0])!r}, not 1"
        )


@dataclass
class SystemConfig:
    """A SystemSpec plus the symbol labels it was declared with."""

    spec: SystemSpec
    labels: dict[str, list[str]]

    def to_mapping(self) -> dict:
        s = self.spec
        return {
            "alphabets": {k: list(v) for k, v in self.labels.items()},
            "lambda": float(s.lam),
            "message_source": [float(v) for v in s.p_u.values],
            "covertext_key": _nested(s.p_xk.values),
            "attack": _nested(
                s.p_z_given_y.conditional_matrix((s.y_axis.name,), (s.z_axis.name,))
            ),
            "embedding_distortion": _nested(s.d.cost),
            "message_distortion": _nested(s.d_prime.cost),
        }


def _nested(arr: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.asarray(arr)]


def load_system(mapping: Mapping[str, Any]) -> SystemConfig:
    if not isinstance(mapping, Mapping):
        raise ValidationError("system section must be a mapping")
    alphabets = mapping.get("alphabets")
    if not isinstance(alphabets, Mapping):
        raise ValidationError("system needs an 'alphabets' mapping with symbol lists")
    labels: dict[str, list[str]] = {}
    axes: dict[str, Axis] = {}
    for name in _REQUIRED_AXES:
        syms = alphabets.get(name)
        if not isinstance(syms, list) or not syms:
            raise ValidationError(f"alphabet {name!r} must be a nonempty symbol list")
        labels[name] = [str(s) for s in syms]
        axes[name] = Axis(name, len(syms))

    lam = mapping.get("lambda")
    if not isinstance(lam, (int, float)) or lam <= 0:
        raise ValidationError("'lambda' must be a positive number")

    pu = _as_float_array("message_source", mapping.get("message_source"), (axes["U"].size,))
    _check_joint("message_source", pu)
    pxk = _as_float_array(
        "covertext_key", mapping.get("covertext_key"), (axes["X"].size, axes["K"].size)
    )
    _check_joint("covertext_key", pxk)
    att = _as_float_array("attack", mapping.get("attack"), (axes["Y"].size, axes["Z"].size))
    _check_rows("attack", att)
    d_cost = _as_float_array(
        "embedding_distortion",
        mapping.get("embedding_distortion"),
        (axes["X"].size, axes["Y"].size),
    )
    dp_cost = _as_float_array(
        "message_distortion",
        mapping.get("message_distortion"),
        (axes["U"].size, axes["Uhat"].size),
    )

    try:
        spec = SystemSpec(
            p_u=DistTable((axes["U"],), pu),
            p_xk=DistTable((axes["X"], axes["K"]), pxk),
            p_z_given_y=DistTable((axes["Y"], axes["Z"]), att, given=("Y",)),
            lam=float(lam),
            d=DistortionMeasure(axes["X"], axes["Y"], d_cost),
            d_prime=DistortionMeasure(axes["U"], axes["Uhat"], dp_cost),
        )
    except ValidationError as e:
        raise ValidationError(f"system tables rejected: {e}") from e
    return SystemConfig(spec, labels)


def load_aux(mapping: Mapping[str, Any], spec: SystemSpec) -> tuple[AuxChannel, list[str]]:
    if not isinstance(mapping, Mapping):
        raise ValidationError("aux section must be a mapping")
    v_syms = mapping.get("v")
    if not isinstance(v_syms, list) or not v_syms:
        raise ValidationError("aux needs a 'v' symbol list")
    v_ax = Axis("V", len(v_syms))
    shape = (spec.k_axis.size, spec.x_axis.size, v_ax.size, spec.y_axis.size)
    table = _as_float_array("aux.table", mapping.get("table"), shape)
    flat = table.reshape(shape[0] * shape[1], -1)
    _check_rows("aux.table", flat)
    try:
        aux = AuxChannel(
            DistTable(
                (spec.k_axis, spec.x_axis, v_ax, spec.y_axis),
                table,
                given=(spec.k_axis.name, spec.x_axis.name),
            )
        )
        aux.validate_for(spec)
    except ValidationError as e:
        raise ValidationError(f"aux table rejected: {e}") from e
    return aux, [str(s) for s in v_syms]


def aux_to_mapping(aux: AuxChannel, v_labels: list[str]) -> dict:
    return {
        "v": list(v_labels),
        "table": np.asarray(aux.table.values, dtype=float).tolist(),
    }


def load_test_channel(data, spec: SystemSpec) -> DistTable:
    arr = _as_float_array(
        "test_channel", data, (spec.u_axis.size, spec.uhat_axis.size)
    )
    _check_rows("test_channel", arr)
    return DistTable((spec.u_axis, spec.uhat_axis), arr, given=(spec.u_axis.name,))


def load_point(mapping: Mapping[str, Any]) -> RegionPoint:
    if not isinstance(mapping, Mapping):
        raise ValidationError("point must be a mapping of the six coordinates")
    needed = ("d", "d_prime", "r_c", "r_c_prime", "h", "h_prime")
    missing = [k for k in needed if k not in mapping]
    if missing:
        raise ValidationError(f"point is missing coordinates {missing}")
    return RegionPoint(**{k: float(mapping[k]) for k in needed})


@dataclass
class RunConfig:
    command: str
    system: SystemConfig
    aux: AuxChannel | None = None
    aux_labels: list[str] = field(default_factory=list)
    point: RegionPoint | None = None
    test_channel: DistTable | None = None
    n: int | None = None
    trials: int | None = None
    delta: float | None = None
    gamma: float | None = None
    seed: int | None = None
    d_prime: float | None = None
    out: str | None = None
    grid: list[float] = field(default_factory=list)
    objective: str | None = None
    fixed: dict[str, float] = field(default_factory=dict)
    restarts: int = 32
    v_cardinality: int | None = None
    rebuilds: int = 1
    extended: bool = False
    exact_equivocation: bool = False
    ensemble_average: bool = False
    m2_bits: int | None = None
    m3_bits: int | None = None
    j_bits: int | None = None
    eps_cov: float = 0.0

    def manifest(self) -> dict:
        """A self-contained record of the run: feeding the manifest file back
        through `run <manifest>` reproduces the artifacts (the manifest is a
        valid run-config document with hash fields added)."""
        system_mapping = self.system.to_mapping()
        m = {
            "command": self.command,
            "system": system_mapping,
            "system_sha256": stable_hash(system_mapping),
            "n": self.n,
            "trials": self.trials,
            "delta": self.delta,
            "gamma": self.gamma,
            "seed": self.seed,
            "d_prime": self.d_prime,
            "out": self.out,
            "grid": self.grid,
            "objective": self.objective,
            "fixed": dict(sorted(self.fixed.items())),
            "restarts": self.restarts,
            "v_cardinality": self.v_cardinality,
            "rebuilds": self.rebuilds,
            "extended": self.extended,
            "exact_equivocation": self.exact_equivocation,
            "ensemble_average": self.ensemble_average,
            "m2_bits": self.m2_bits,
            "m3_bits": self.m3_bits,
            "j_bits": self.j_bits,
            "eps_cov": self.eps_cov,
        }
        if self.aux is not None:
            aux_mapping = aux_to_mapping(self.aux, self.aux_labels)
            m["aux"] = aux_mapping
            m["aux_sha256"] = stable_hash(aux_mapping)
        if self.test_channel is not None:
            m["test_channel"] = np.asarray(self.test_channel.values, dtype=float).tolist()
        if self.point is not None:
            m["point"] = {k: float(v) for k, v in vars(self.point).items()}
        return m


def stable_hash(obj) -> str:
    """sha256 over a canonical JSON rendering (sorted keys, repr floats)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate one run-configuration document."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ValidationError(f"config parse error{where}: {e}") from e
    if not isinstance(doc, Mapping):
        raise ValidationError("config must be a mapping")

    command = doc.get("command")
    if command not in COMMANDS:
        raise ValidationError(f"'command' must be one of {COMMANDS}, got {command!r}")
    if "system" not in doc:
        raise ValidationError("config needs a 'system' section")
    system = load_system(doc["system"])

    cfg = RunConfig(command=command, system=system)
    if "aux" in doc and doc["aux"] is not None:
        cfg.aux, cfg.aux_labels = load_aux(doc["aux"], system.spec)
    if "point" in doc and doc["point"] is not None:
        cfg.point = load_point(doc["point"])
    if "test_channel" in doc and doc["test_channel"] is not None:
        cfg.test_channel = load_test_channel(doc["test_channel"], system.spec)

    def take(name, typ, default=None):
        v = doc.get(name, default)
        if v is None:
            return None
        try:
            return typ(v)
        except (TypeError, ValueError) as e:
            raise ValidationError(f"field {name!r} is not a valid {typ.__name__}") from e

    cfg.n = take("n", int)
    cfg.trials = take("trials", int)
    cfg.delta = take("delta", float)
    cfg.gamma = take("gamma", float)
    cfg.seed = take("seed", int)
    cfg.d_prime = take("d_prime", float)
    cfg.out = doc.get("out")
    cfg.objective = doc.get("objective")
    cfg.v_cardinality = take("v_cardinality", int)
    for name in ("restarts", "rebuilds"):  # absent or null keeps the default
        count = take(name, int)
        if count is not None:
            setattr(cfg, name, count)
    cfg.m2_bits = take("m2_bits", int)
    cfg.m3_bits = take("m3_bits", int)
    cfg.j_bits = take("j_bits", int)
    cfg.eps_cov = take("eps_cov", float) or 0.0
    for flag in ("extended", "exact_equivocation", "ensemble_average"):
        setattr(cfg, flag, bool(doc.get(flag, False)))
    grid = doc.get("grid", [])
    if grid:
        cfg.grid = [float(g) for g in grid]
    fixed = doc.get("fixed", {})
    if fixed:
        if not isinstance(fixed, Mapping):
            raise ValidationError("'fixed' must map coordinate names to values")
        cfg.fixed = {str(k): float(v) for k, v in fixed.items()}

    _validate_required(cfg)
    return cfg


def _validate_required(cfg: RunConfig) -> None:
    need: list[str] = []
    c = cfg.command
    if c in RANDOMIZED_COMMANDS and cfg.seed is None:
        raise ValidationError(f"command {c!r} is randomized: field 'seed' is required")
    for name in ("restarts", "rebuilds"):
        if getattr(cfg, name) < 1:
            raise ValidationError(f"field {name!r} must be at least 1, got {getattr(cfg, name)}")
    if c in ("rd", "sweep") and not cfg.grid and cfg.d_prime is None:
        need.append("grid or d_prime")
    if c == "region-eval":
        if cfg.aux is None:
            need.append("aux")
        if cfg.point is None:
            need.append("point")
        if cfg.extended and cfg.test_channel is None:
            need.append("test_channel")
    if c == "region-opt":
        if cfg.objective is None:
            need.append("objective")
        if "d_prime" not in cfg.fixed:
            need.append("fixed.d_prime")
    if c == "simulate":
        for f in ("n", "trials", "delta", "d_prime"):
            if getattr(cfg, f) is None:
                need.append(f)
        if cfg.aux is None:
            need.append("aux")
    if c == "audit":
        for f in ("n", "delta", "gamma", "d_prime"):
            if getattr(cfg, f) is None:
                need.append(f)
        if cfg.aux is None:
            need.append("aux")
    if need:
        raise ValidationError(f"command {c!r} is missing required fields: {need}")
