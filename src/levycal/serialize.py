"""File formats: model/params JSON, curve CSVs, grid sidecars and reports.

All floats are written with 17 significant digits so rereading a file
reproduces the in-memory values bit for bit.  Every JSON value read back is
checked against the type it must have, and a bad one is a ValueError naming
the file and the key.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from .calibrate import K_BUCKETS, W_BUCKETS
from .elnn import ElnnParams
from .levy_models import MODELS, CustomModel
from .spectral import SpectralGrid


def _fmt(x):
    return f"{float(x):.17g}"


def _is_number(value):
    # an integer is finite here; one beyond the float range fails when it is read
    return (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and math.isfinite(value))


# what each kind of JSON value accepts, and what it is read as
_KINDS = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), int),
    float: ("a finite number", _is_number, float),
    str: ("a string", lambda v: isinstance(v, str), str),
    dict: ("an object", lambda v: isinstance(v, dict), dict),
    list: ("a list of finite numbers", lambda v: isinstance(v, list) and all(map(_is_number, v)),
           lambda v: np.asarray(v, dtype=float)),
    None: ("a finite number or null", lambda v: v is None or _is_number(v),
           lambda v: None if v is None else float(v)),
}


def checked(value, kind, where):
    """A JSON value read as `kind`, one of int, float, str, dict, list (of numbers) or None.

    int takes integers only, float any finite number, None a finite number or
    null; booleans are not numbers, and NaN and the infinities are not finite.
    Anything else is a ValueError naming `where`.
    """
    name, accepts, read = _KINDS[kind]
    if not accepts(value):
        text = json.dumps(value)
        text = text if len(text) <= 40 else text[:37] + "..."
        raise ValueError(f"{where} must be {name}, got {text}")
    try:
        return read(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{where} is out of the float range") from None


def field(doc, key, kind, where):
    """doc[key] read as `kind` (see `checked`); `where` names the document."""
    if key not in doc:
        raise ValueError(f"{where}: missing key {key!r}")
    return checked(doc[key], kind, f"{where}: {key!r}")


def load_object(path):
    """The JSON object held by the file at `path`."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return checked(doc, dict, path)


# --- models -----------------------------------------------------------------


def _model_params(cls):
    """(field name, JSON key, kind) of each of a model class's parameters after sigma."""
    kind = list if cls is CustomModel else float
    return [(f.name, f.name.replace("lam", "lambda"), kind) for f in fields(cls)[1:]]


def model_to_dict(model):
    params = {key: list(map(float, getattr(model, name))) if kind is list else getattr(model, name)
              for name, key, kind in _model_params(type(model))}
    return {"model": model.kind, "sigma": model.sigma, "params": params}


def model_from_dict(doc, where):
    kind = field(doc, "model", str, where)
    sigma = field(doc, "sigma", float, where)
    params, where = field(doc, "params", dict, where), f"{where}: 'params'"
    if kind not in MODELS:
        raise ValueError(f"unknown model kind {kind!r}")
    cls = MODELS[kind]
    return cls(sigma, *(field(params, key, k, where) for _, key, k in _model_params(cls)))


def save_model(model, path):
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(path):
    return model_from_dict(load_object(path), path)


# --- network parameters -------------------------------------------------------


def params_to_dict(params):
    return {
        "sigma": params.sigma,
        "wr0": list(map(float, params.wr0)),
        "wr1": list(map(float, params.wr1)),
        "wi0": list(map(float, params.wi0)),
        "wi1": list(map(float, params.wi1)),
    }


def params_from_dict(doc, where):
    sigma = field(doc, "sigma", float, where)
    weights = {k: field(doc, k, list, where) for k in ("wr0", "wr1", "wi0", "wi1")}
    if len({len(v) for v in weights.values()}) > 1:
        raise ValueError(f"{where}: wr0, wr1, wi0 and wi1 must have the same length")
    return ElnnParams(s=sigma, **weights)


def save_params(params, path):
    Path(path).write_text(json.dumps(params_to_dict(params), indent=2) + "\n")


def load_params(path):
    return params_from_dict(load_object(path), path)


# --- curves -------------------------------------------------------------------


def save_columns(path, header, columns):
    cols = [np.asarray(c) for c in columns]
    lines = [",".join(header)]
    for row in zip(*cols):
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_columns(path, expected_header=None):
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file, expected a header line")
    header = lines[0].split(",")
    if expected_header is not None and header != list(expected_header):
        raise ValueError(f"{path}: expected header {expected_header}, got {header}")
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        row = line.split(",")
        if len(row) != len(header):
            raise ValueError(f"{path}: line {line_no}: expected {len(header)} values, got {len(row)}")
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
    data = np.array(rows, dtype=float).reshape(-1, len(header))
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: line {bad[0] + 2}: non-finite value")
    return header, data


def save_time_values(path, k, z):
    save_columns(path, ["k", "z"], [k, z])


def load_time_values(path):
    _, data = load_columns(path, ["k", "z"])
    return data[:, 0], data[:, 1]


def save_grid(path, grid):
    doc = {"n": grid.n, "dw": grid.dw, "offset": grid.w_offset}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_grid(path):
    doc = load_object(path)
    return SpectralGrid(n=field(doc, "n", int, path), dw=field(doc, "dw", float, path))


def save_loss_trace(path, losses):
    save_columns(path, ["epoch", "loss"], [np.arange(len(losses)), losses])


def save_density(path, x, dvdx):
    save_columns(path, ["x", "dvdx"], [x, dvdx])


# --- reports ------------------------------------------------------------------


# report.json's error tables: key, columns (bucket names in table order, then the sum), CSV
_REPORT_TABLES = (("z_rmse", (*K_BUCKETS, "sum"), "report_z.csv"),
                  ("phi_re_rmse", (*W_BUCKETS, "sum"), "report_re.csv"),
                  ("phi_im_rmse", (*W_BUCKETS, "sum"), "report_im.csv"))


def save_report(report, path):
    Path(path).write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")


def load_report(path):
    """A calibrate report.json, which must hold every key calibrate writes."""
    doc = load_object(path)
    report = {"label": field(doc, "label", str, path)}
    report |= {key: field(doc, key, float, path) for key in ("sigma", "lambda")}
    for key, columns, _ in _REPORT_TABLES:
        table = field(doc, key, dict, path)
        report[key] = {n: field(table, n, None, f"{path}: {key!r}") for n in columns}
    report["final_loss"] = field(doc, "final_loss", None, path)
    return report


def save_report_tables(reports, out_dir):
    """One CSV per error table, one row per report label, buckets plus sum."""
    for key, columns, fname in _REPORT_TABLES:
        lines = [",".join(("label",) + columns)]
        for rep in reports:
            cells = [rep[key][n] for n in columns]
            lines.append(",".join([rep["label"]] + ["" if c is None else _fmt(c) for c in cells]))
        (Path(out_dir) / fname).write_text("\n".join(lines) + "\n")
