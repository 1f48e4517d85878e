"""File formats for the batch front end.

All machine-readable emissions print floats with 17 significant digits so
a write/read round trip is lossless, and every writer is a deterministic
function of its inputs (no timestamps), so reruns produce identical bytes.

Formats:

* dataset CSV: header ``t,u1..u{n_u},y1..y{n_y}``, one row per sample,
  uniformly spaced time stamps.
* Markov CSV: header ``k,i,j,value``, one row per coefficient entry.
* model file: a ``n n_u n_y Ts`` line followed by the labeled row-major
  blocks ``A:``, ``B:``, ``C:``, ``D:``.
* constraints CSV: header ``tag,c0..c{M-1},rhs``, one row per equality.
* priors / prototypes: JSON dictionaries, one ``{"type": ...}`` entry per
  prior (see README for the schema of all seven kinds).
"""

from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np

from .discretize import (
    FirstOrder,
    Integrator,
    IntegratorFirstOrder,
    PrototypeModel,
    SecondOrderOsc,
    TwoTimeConstants,
)
from .estimate import IdentDataset
from .priors import (
    DcGain,
    DcGainMatrix,
    EqualityConstraintSet,
    FirstOrderDecay,
    GainRatio,
    IntegratorChannel,
    PriorSpec,
    SecondOrderRecurrence,
    ZeroChannel,
)
from .statespace import MarkovSequence, StateSpaceModel

__all__ = [
    "DatasetFormatError",
    "load_dataset",
    "write_dataset",
    "write_markov_csv",
    "write_model_file",
    "read_model_file",
    "write_constraints_csv",
    "prior_from_dict",
    "priors_from_file",
    "prototype_from_dict",
]

# Relative tolerance on the uniformity of the time column vs the declared Ts.
TIME_GRID_RTOL = 1e-6


class DatasetFormatError(ValueError):
    """A dataset file violates the CSV schema."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_lines(path, lines: list[str]) -> None:
    """Write ``lines`` with LF endings and a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path, Ts: float) -> IdentDataset:
    """Parse a dataset CSV and validate it against the declared Ts.

    The header must read ``t,u1..u{n_u},y1..y{n_y}`` with both channel
    groups numbered consecutively from 1.  The time column must be strictly
    increasing with uniform spacing equal to Ts within a relative 1e-6.

    Raises:
        DatasetFormatError: on any schema violation, with the offending
            line number in the message.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise DatasetFormatError(f"{path}: empty file")

    header = [c.strip() for c in lines[0].split(",")]
    n_u, n_y = _parse_header(path, header)
    width = 1 + n_u + n_y

    data = np.empty((len(lines) - 1, width))
    for row, line in enumerate(lines[1:], start=2):
        if line.strip() == "":
            raise DatasetFormatError(f"{path}: line {row}: blank line")
        fields = line.split(",")
        if len(fields) != width:
            raise DatasetFormatError(
                f"{path}: line {row}: expected {width} fields, found {len(fields)}"
            )
        for col, text in enumerate(fields):
            try:
                value = float(text)
            except ValueError as exc:
                raise DatasetFormatError(
                    f"{path}: line {row}: cannot parse {text!r} as a number"
                ) from exc
            if not math.isfinite(value):
                raise DatasetFormatError(
                    f"{path}: line {row}: non-finite value in column {header[col]!r}"
                )
            data[row - 2, col] = value
    if data.shape[0] == 0:
        raise DatasetFormatError(f"{path}: no data rows")

    t = data[:, 0]
    for row in range(1, t.shape[0]):
        dt = t[row] - t[row - 1]
        if dt <= 0:
            raise DatasetFormatError(
                f"{path}: line {row + 2}: time column is not strictly increasing"
            )
        if abs(dt - Ts) > TIME_GRID_RTOL * max(abs(Ts), abs(dt)):
            raise DatasetFormatError(
                f"{path}: line {row + 2}: sample spacing {dt:.9g} does not match "
                f"Ts={Ts:.9g} (relative tolerance {TIME_GRID_RTOL:g})"
            )
    return IdentDataset(U=data[:, 1 : 1 + n_u], Y=data[:, 1 + n_u :], Ts=Ts)


def _parse_header(path, header: list[str]) -> tuple[int, int]:
    if not header or header[0] != "t":
        raise DatasetFormatError(f"{path}: line 1: header must start with column 't'")
    kinds = []
    for name in header[1:]:
        m = re.fullmatch(r"([uy])([1-9][0-9]*)", name)
        if m is None:
            raise DatasetFormatError(
                f"{path}: line 1: malformed column name {name!r} "
                "(expected u<k> or y<k>)"
            )
        kinds.append((m.group(1), int(m.group(2))))
    n_u = sum(1 for kind, _ in kinds if kind == "u")
    n_y = len(kinds) - n_u
    expected = [("u", k) for k in range(1, n_u + 1)] + [("y", k) for k in range(1, n_y + 1)]
    if kinds != expected:
        for kind, k in expected:
            if (kind, k) not in kinds:
                raise DatasetFormatError(f"{path}: line 1: missing column '{kind}{k}'")
        raise DatasetFormatError(
            f"{path}: line 1: columns must be ordered u1..u{n_u},y1..y{n_y}"
        )
    if n_u == 0:
        raise DatasetFormatError(f"{path}: line 1: missing column 'u1'")
    if n_y == 0:
        raise DatasetFormatError(f"{path}: line 1: missing column 'y1'")
    return n_u, n_y


def write_dataset(path, data: IdentDataset) -> None:
    """Write a dataset CSV (inverse of :func:`load_dataset`)."""
    n_u, n_y = data.n_u, data.n_y
    header = ["t"] + [f"u{j}" for j in range(1, n_u + 1)] + [f"y{i}" for i in range(1, n_y + 1)]
    lines = [",".join(header)]
    for row in range(data.n_samples):
        fields = [_fmt(row * data.Ts)]
        fields += [_fmt(v) for v in data.U[row]]
        fields += [_fmt(v) for v in data.Y[row]]
        lines.append(",".join(fields))
    _write_lines(path, lines)


def write_markov_csv(path, markov: MarkovSequence) -> None:
    """Write a Markov sequence as ``k,i,j,value`` rows (k outer, then i, j)."""
    lines = ["k,i,j,value"]
    for k in range(markov.ell + 1):
        for i in range(1, markov.n_y + 1):
            for j in range(1, markov.n_u + 1):
                lines.append(f"{k},{i},{j},{_fmt(markov.blocks[k, i - 1, j - 1])}")
    _write_lines(path, lines)


def write_model_file(path, model: StateSpaceModel) -> None:
    """Write the plain-text model schema: dims line then labeled blocks."""
    lines = [f"{model.n} {model.n_u} {model.n_y} {_fmt(model.Ts)}"]
    for label, mat in (("A", model.A), ("B", model.B), ("C", model.C), ("D", model.D)):
        lines.append(f"{label}:")
        for row in range(mat.shape[0]):
            lines.append(" ".join(_fmt(v) for v in mat[row]))
    _write_lines(path, lines)


def read_model_file(path) -> StateSpaceModel:
    """Parse the plain-text model schema written by :func:`write_model_file`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip() != ""]
    if not lines:
        raise DatasetFormatError(f"{path}: empty model file")
    head = lines[0].split()
    if len(head) != 4:
        raise DatasetFormatError(
            f"{path}: line 1: expected 'n n_u n_y Ts', found {lines[0]!r}"
        )
    try:
        n, n_u, n_y = int(head[0]), int(head[1]), int(head[2])
        Ts = float(head[3])
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: line 1: cannot parse dims line") from exc

    shapes = {"A": (n, n), "B": (n, n_u), "C": (n_y, n), "D": (n_y, n_u)}
    mats: dict[str, np.ndarray] = {}
    pos = 1
    for label in ("A", "B", "C", "D"):
        rows, cols = shapes[label]
        if pos >= len(lines) or lines[pos] != f"{label}:":
            raise DatasetFormatError(f"{path}: expected block label '{label}:'")
        pos += 1
        block = np.zeros((rows, cols))
        for r in range(rows):
            if cols == 0:
                continue
            if pos >= len(lines):
                raise DatasetFormatError(f"{path}: block {label} is truncated")
            fields = lines[pos].split()
            if len(fields) != cols:
                raise DatasetFormatError(
                    f"{path}: block {label} row {r}: expected {cols} entries, "
                    f"found {len(fields)}"
                )
            block[r] = [float(v) for v in fields]
            pos += 1
        mats[label] = block
    return StateSpaceModel(A=mats["A"], B=mats["B"], C=mats["C"], D=mats["D"], Ts=Ts)


def write_constraints_csv(path, cs: EqualityConstraintSet) -> None:
    """Dump A_eq and b_eq for external tools: ``tag,c0..c{M-1},rhs`` rows."""
    size = cs.indexing.size
    header = ["tag"] + [f"c{idx}" for idx in range(size)] + ["rhs"]
    lines = [",".join(header)]
    for row in range(cs.n_rows):
        tag = cs.provenance[row].replace(",", ";")
        fields = [tag] + [_fmt(v) for v in cs.A_eq[row]] + [_fmt(cs.b_eq[row])]
        lines.append(",".join(fields))
    _write_lines(path, lines)


_PRIOR_TYPES = {
    "dc_gain": DcGain,
    "dc_gain_matrix": DcGainMatrix,
    "gain_ratio": GainRatio,
    "first_order_decay": FirstOrderDecay,
    "integrator": IntegratorChannel,
    "second_order_recurrence": SecondOrderRecurrence,
    "zero_channel": ZeroChannel,
}


def _integer(value) -> int:
    """An integral number, or its text: 30, 30.0, "30" and "30.0" but not 2.7."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            value = float(value)
    number = int(value)
    if number != float(value):
        raise ValueError(f"{value!r} is not an integer")
    return number


def _typed(kind: type):
    def parse(value):
        if not isinstance(value, kind):
            raise ValueError(f"{value!r} is not a {kind.__name__}")
        return value

    return parse


# dataclass field annotation, less "| None" -> parser of a JSON value
_FIELD_PARSERS = {
    "int": _integer,
    "float": float,
    "str": _typed(str),
    "tuple[float, float]": lambda value: tuple(map(float, value)),
    "list[int]": lambda value: [_integer(v) for v in _typed(list)(value)],
    "np.ndarray": lambda value: np.asarray(value, dtype=float),
    "dict[str, Any]": _typed(dict),
}


def _parse_field(f: dataclasses.Field, value, where: str):
    """JSON ``value`` read by the annotation of field ``f``; null is None where allowed.

    A value that is not of the field's type raises a ValueError that starts
    with ``where``.
    """
    kind = f.type.removesuffix(" | None")
    if value is None and kind != f.type:
        return None
    try:
        return _FIELD_PARSERS[kind](value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _from_dict(entry, what: str, kind_key: str, types: dict[str, type], params):
    """The ``types[entry[kind_key]]`` built from the other keys of ``entry``.

    ``params(cls)`` maps each key to its field of ``cls``; a key whose field
    has a default may be left out.  ``what`` names the entry in errors.
    """
    if not isinstance(entry, dict) or kind_key not in entry:
        raise ValueError(f"{what} entry must be a dict with a {kind_key!r} key, got {entry!r}")
    kind = entry[kind_key]
    if kind not in types:
        raise ValueError(f"unknown {what} type {kind!r}; expected one of {sorted(types)}")
    cls = types[kind]
    keys = params(cls)
    extra = set(entry) - set(keys) - {kind_key}
    if extra:
        raise ValueError(f"{what} {kind!r} has unknown keys {sorted(extra)}")
    values = {}
    for key, f in keys.items():
        if key in entry:
            values[f.name] = _parse_field(f, entry[key], f"{what} {kind!r} field {key!r}")
        elif f.default is dataclasses.MISSING:
            raise ValueError(f"{what} {kind!r} is missing key {key!r}")
    return cls(**values)


def _prior_params(cls: type) -> dict[str, dataclasses.Field]:
    return {f.name: f for f in dataclasses.fields(cls)}


def prior_from_dict(entry: dict) -> PriorSpec:
    """Build one PriorSpec from its JSON dictionary form.

    The keys are ``type`` and the fields of the prior's class; a field with
    a default may be left out.  A value that is not of its field's type,
    such as a fractional channel index, raises a ValueError naming the field.
    """
    return _from_dict(entry, "prior", "type", _PRIOR_TYPES, _prior_params)


def priors_from_file(path) -> list[PriorSpec]:
    """Read priors from a JSON file: either a list or {"priors": [...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        doc = doc.get("priors", [])
    if not isinstance(doc, list):
        raise ValueError(f"{path}: expected a list of prior entries")
    return [prior_from_dict(entry) for entry in doc]


_PROTO_TYPES = {
    "integrator": Integrator,
    "first_order": FirstOrder,
    "integrator_first_order": IntegratorFirstOrder,
    "two_time_constants": TwoTimeConstants,
    "second_order_osc": SecondOrderOsc,
}


def _proto_params(cls: type) -> dict[str, dataclasses.Field]:
    """Parameter key -> field of a prototype class: the field names, but ``gain`` for ``K``."""
    return {"gain" if f.name == "K" else f.name: f for f in dataclasses.fields(cls)}


def prototype_from_dict(entry: dict) -> PrototypeModel:
    """Build a prototype model from {"proto": name, <params>...}.

    The parameters are the fields of the prototype's class, under the key
    ``gain`` for ``K``.  A value that is not a number raises a ValueError
    naming the prototype and the key.
    """
    return _from_dict(entry, "prototype", "proto", _PROTO_TYPES, _proto_params)
