"""Problem-instance and run configuration files.

One YAML document describes a run: the command, its parameters, the system
tables (alphabets declared with explicit symbol lists, probability tables as
nested lists of exact decimals), and optionally an aux channel, a test
channel, or a region point.  Tables are validated on load to 1e-12 and never
silently renormalized; every invariant violation names the offending table.
"""

from __future__ import annotations

import hashlib
import math
import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np
import yaml

from .errors import ValidationError
from .region import COORDINATES, AuxChannel, RegionPoint, SystemSpec
from .tables import NORMALIZATION_ATOL, Axis, DistTable, DistortionMeasure

COMMANDS = ("rd", "region-eval", "region-opt", "simulate", "audit", "sweep")

# the random stream that simulate and audit draw codebooks from, recorded in
# their manifests: stream 1 drew an auxiliary book's rows as successive
# `ConditionalTypicalSampler.sample` calls, stream 2 draws each book with one
# `sample_rows` batch.  A manifest of another stream cannot be reproduced.
RANDOM_STREAM = 2

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
            "attack": _nested(s.attack_matrix),
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
    shape = (spec.k_axis.size, spec.x_axis.size, len(v_syms), spec.y_axis.size)
    table = _as_float_array("aux.table", mapping.get("table"), shape)
    flat = table.reshape(shape[0] * shape[1], -1)
    _check_rows("aux.table", flat)
    try:
        aux = AuxChannel.of(spec, table)
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
    missing = [k for k in COORDINATES if k not in mapping]
    if missing:
        raise ValidationError(f"point is missing coordinates {missing}")
    return RegionPoint(**{k: _number(f"point.{k}", mapping[k]) for k in COORDINATES})


def read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from e


def load_yaml_file(path: str):
    try:
        return yaml.safe_load(read_text(path))
    except yaml.YAMLError as e:
        raise ValidationError(f"YAML error in {path}: {e}") from e


# ---------------------------------------------------------------------------
# the run-config schema
# ---------------------------------------------------------------------------
# A check takes a run file's value to the field's value, or raises a
# ValidationError that names the field.  Flags reach the same checks: a
# flag's text is first read as the value a run file would hold.


def _typed(typ: type, what: str, low: int | None = None):
    def check(name: str, v):
        if not isinstance(v, typ) or isinstance(v, bool) != (typ is bool):
            raise ValidationError(f"field {name!r} must be {what}, got {v!r}")
        if low is not None and v < low:
            bound = "non-negative" if low == 0 else f"at least {low}"
            raise ValidationError(f"field {name!r} must be {bound}, got {v}")
        return v

    return check


def _number(name: str, v) -> float:
    # a string too: YAML 1.1 reads an exponent with no dot, such as 1e-3, as one
    if not isinstance(v, bool) and isinstance(v, (int, float, str)):
        try:
            x = float(v)
        except (ValueError, OverflowError):
            pass
        else:
            if math.isfinite(x):
                return x
            raise ValidationError(f"field {name!r} must be a finite number, got {v!r}")
    raise ValidationError(f"field {name!r} must be a number, got {v!r}")


def _grid(name: str, v) -> list[float]:
    if not isinstance(v, list):
        raise ValidationError(f"field {name!r} must be a list of numbers, got {v!r}")
    return [_number(f"{name}[{i}]", g) for i, g in enumerate(v)]


def _coordinates(name: str, v) -> dict[str, float]:
    if not isinstance(v, Mapping):
        raise ValidationError(f"field {name!r} must map coordinate names to values")
    return {str(k): _number(f"{name}.{k}", x) for k, x in v.items()}


def _number_text(text: str):
    for typ in (int, float):
        try:
            return typ(text)
        except ValueError:
            pass
    return text


def _list_text(text: str) -> list[str]:
    return [part for part in text.split(",") if part.strip()]


def _pairs_text(text: str) -> dict[str, str]:
    pairs = {}
    for part in _list_text(text):
        if "=" not in part:
            raise ValidationError(f"expected key=value, got {part!r}")
        k, v = part.split("=", 1)
        pairs[k.strip()] = v
    return pairs


@dataclass(frozen=True)
class Kind:
    """How a schema field is read.  `check` takes a run file's value to the
    field's (None for a section, which has its own loader); `text` takes a
    flag's text to a run file's value (None for an on/off flag)."""

    check: Callable[[str, Any], Any] | None
    text: Callable[[str], Any] | None
    help: str | None = None


_NON_NEGATIVE = Kind(_typed(int, "an integer", 0), _number_text)
_COUNT = Kind(_typed(int, "an integer", 1), _number_text)
_NUMBER = Kind(_number, _number_text)
_STRING = Kind(_typed(str, "a string"), str)
_SWITCH = Kind(_typed(bool, "true or false"), None)
_GRID = Kind(_grid, _list_text, "comma-separated distortion grid")
_FIXED = Kind(_coordinates, _pairs_text, "coordinate=value pairs, comma separated")
_POINT = Kind(None, _pairs_text, "d=..,d_prime=..,r_c=..,r_c_prime=..,h=..,h_prime=..")
_FILE = Kind(None, load_yaml_file, "YAML file")


def _row(kind: Kind, default=None, flag: str | None = None, need: tuple[str, ...] = ()):
    """One schema field: its kind, its default, its flag when that is not
    `--` and the name with dashes, and the commands that cannot run without
    it; a need such as "sweep with objective" holds when that field is set."""
    meta = {"kind": kind, "flag": flag, "need": need}
    if isinstance(default, (list, dict)):
        return field(default_factory=type(default), metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """One run.  Every field but `command` and `aux_labels` is a row of the
    run-config schema, which drives the run-file reader, the manifest, the
    command-line flags and the required-field checks."""

    command: str
    system: SystemConfig = _row(_FILE, MISSING, "--spec", COMMANDS)
    aux: AuxChannel | None = _row(_FILE, need=("region-eval", "simulate", "audit"))
    aux_labels: list[str] = field(default_factory=list)
    point: RegionPoint | None = _row(_POINT, need=("region-eval",))
    test_channel: DistTable | None = _row(_FILE, need=("region-eval with extended",))
    n: int | None = _row(_COUNT, need=("simulate", "audit"))
    trials: int | None = _row(_NON_NEGATIVE, need=("simulate",))
    delta: float | None = _row(_NUMBER, need=("simulate", "audit"))
    gamma: float | None = _row(_NUMBER, need=("audit",))
    seed: int | None = _row(_NON_NEGATIVE, need=("region-opt", "simulate", "audit", "sweep with objective"))
    d_prime: float | None = _row(_NUMBER, flag="--dprime", need=("simulate", "audit"))
    out: str | None = _row(_STRING)
    grid: list[float] = _row(_GRID, [])
    objective: str | None = _row(_STRING, need=("region-opt",))
    fixed: dict[str, float] = _row(_FIXED, {}, "--fix")
    restarts: int = _row(_COUNT, 32)
    v_cardinality: int | None = _row(_COUNT)
    rebuilds: int = _row(_COUNT, 1)
    extended: bool = _row(_SWITCH, False)
    exact_equivocation: bool = _row(_SWITCH, False)
    ensemble_average: bool = _row(_SWITCH, False)
    m2_bits: int | None = _row(_NON_NEGATIVE)
    m3_bits: int | None = _row(_NON_NEGATIVE)
    j_bits: int | None = _row(_NON_NEGATIVE)
    eps_cov: float = _row(_NUMBER, 0.0)

    def manifest(self) -> dict:
        """A self-contained record of the run: feeding the manifest file back
        through `run <manifest>` reproduces the artifacts (the manifest is a
        valid run-config document with hash fields added)."""
        system_mapping = self.system.to_mapping()
        m = {
            "command": self.command,
            "system": system_mapping,
            "system_sha256": stable_hash(system_mapping),
            **{f.name: getattr(self, f.name) for f in _PARAMETERS},
        }
        if self.aux is not None:
            aux_mapping = aux_to_mapping(self.aux, self.aux_labels)
            m["aux"] = aux_mapping
            m["aux_sha256"] = stable_hash(aux_mapping)
        if self.test_channel is not None:
            m["test_channel"] = np.asarray(self.test_channel.values, dtype=float).tolist()
        if self.point is not None:
            m["point"] = {k: float(v) for k, v in vars(self.point).items()}
        if self.command in ("simulate", "audit"):
            m["random_stream"] = RANDOM_STREAM
        return m


SCHEMA = tuple(f for f in fields(RunConfig) if f.metadata)
_PARAMETERS = tuple(f for f in SCHEMA if f.metadata["kind"].check)
# a manifest is a run file with its tables' digests, and for simulate and
# audit its random stream, added
_DOCUMENT_KEYS = {"command", "system_sha256", "aux_sha256", "random_stream", *(f.name for f in SCHEMA)}


def flag_of(f) -> str:
    return f.metadata["flag"] or "--" + f.name.replace("_", "-")


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
    return from_document(doc)


def from_document(doc: Mapping[str, Any]) -> RunConfig:
    """Validate one run-config document, read from a run file or from flags."""
    unknown = sorted(str(k) for k in doc if k not in _DOCUMENT_KEYS)
    if unknown:
        raise ValidationError(f"unknown run-config fields {unknown}")
    command = doc.get("command")
    if command not in COMMANDS:
        raise ValidationError(f"'command' must be one of {COMMANDS}, got {command!r}")
    stream = doc.get("random_stream", RANDOM_STREAM)
    if stream != RANDOM_STREAM:
        raise ValidationError(
            f"'random_stream' is {stream!r}, but this version draws codebooks from stream {RANDOM_STREAM}"
        )
    if "system" not in doc:
        raise ValidationError("config needs a 'system' section")
    system = load_system(doc["system"])

    cfg = RunConfig(command=command, system=system)
    if doc.get("aux") is not None:
        cfg.aux, cfg.aux_labels = load_aux(doc["aux"], system.spec)
    if doc.get("point") is not None:
        cfg.point = load_point(doc["point"])
    if doc.get("test_channel") is not None:
        cfg.test_channel = load_test_channel(doc["test_channel"], system.spec)
    for f in _PARAMETERS:  # absent or null keeps the default
        if doc.get(f.name) is not None:
            setattr(cfg, f.name, f.metadata["kind"].check(f.name, doc[f.name]))
    _validate_required(cfg)
    return cfg


def _needed(cfg: RunConfig, use: str) -> bool:
    """Whether a need, such as "simulate" or "sweep with objective", applies."""
    command, _, given = use.partition(" with ")
    return command == cfg.command and (not given or getattr(cfg, given) not in (None, False))


def _validate_required(cfg: RunConfig) -> None:
    c = cfg.command
    need = [
        f.name
        for f in SCHEMA
        if getattr(cfg, f.name) is None and any(_needed(cfg, use) for use in f.metadata["need"])
    ]
    if c in ("rd", "sweep") and not cfg.grid and cfg.d_prime is None:
        need.append("grid or d_prime")
    if c == "region-opt" and "d_prime" not in cfg.fixed:
        need.append("fixed.d_prime")
    if need:
        raise ValidationError(f"command {c!r} is missing required fields: {need}")
