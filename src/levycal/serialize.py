"""File formats: model/params JSON, curve CSVs, grid sidecars and reports.

All floats are written with 17 significant digits so rereading a file
reproduces the in-memory values bit for bit.  Every JSON value read back is
checked against the type it must have, and a bad one is a ValueError naming
the file and the key.
"""

from __future__ import annotations

import json
import math
import warnings
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
    params = field(doc, "params", dict, where)
    if kind not in MODELS:
        raise ValueError(f"{where}: unknown model kind {kind!r}")
    cls = MODELS[kind]
    values = [field(params, key, k, f"{where}: 'params'") for _, key, k in _model_params(cls)]
    try:
        return cls(sigma, *values)
    except ValueError as exc:  # the model's own checks
        raise ValueError(f"{where}: {exc}") from None


def save_model(model, path):
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(path):
    return model_from_dict(load_object(path), path)


# --- network parameters -------------------------------------------------------


# a params file's weight groups, ElnnParams' fields after s, in file order
_WEIGHTS = tuple(f.name for f in fields(ElnnParams)[1:])


def save_params(params, path):
    doc = {"sigma": params.sigma} | {k: list(map(float, getattr(params, k))) for k in _WEIGHTS}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_fit(path):
    """The fitted law in a params file: the jump model of a document that names its
    "model", otherwise network parameters."""
    doc = load_object(path)
    if "model" in doc:
        return model_from_dict(doc, path)
    sigma = field(doc, "sigma", float, path)
    weights = {k: field(doc, k, list, path) for k in _WEIGHTS}
    if len({len(v) for v in weights.values()}) > 1:
        raise ValueError(f"{path}: {', '.join(_WEIGHTS[:-1])} and {_WEIGHTS[-1]} must have the "
                         "same length")
    return ElnnParams(s=sigma, **weights)


# --- curves -------------------------------------------------------------------


def save_columns(path, header, columns):
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    # one format string for the whole file; %.17g writes what _fmt writes
    row_format = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    body = (row_format * len(rows)) % tuple(rows.ravel().tolist())
    Path(path).write_text(",".join(header) + "\n" + body)


def load_columns(path, expected_header=None):
    text = Path(path).read_text()
    body = text.lstrip()
    # the header's line number, counting the blank lines stripped before it
    header_line = len((text[:len(text) - len(body)] + "x").splitlines())
    lines = body.rstrip().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file, expected a header line")
    header = lines[0].split(",")
    if expected_header is not None and header != list(expected_header):
        raise ValueError(f"{path}: expected header {expected_header}, got {header}")
    data = _parse_rows(path, lines[1:], len(header), header_line + 1).reshape(-1, len(header))
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: line {bad[0] + header_line + 1}: non-finite value")
    return header, data


def _parse_rows(path, rows, width, first):
    """The values of the CSV rows, the first on line `first`, each parsed by float(); an
    error names the first ragged or bad line."""
    values = []
    for line_no, line in enumerate(rows, start=first):
        row = line.split(",")
        if len(row) != width:
            raise ValueError(f"{path}: line {line_no}: expected {width} values, got {len(row)}")
        try:
            values += map(float, row)
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
    return np.array(values, dtype=float)


def save_time_values(path, k, z):
    save_columns(path, ["k", "z"], [k, z])


def load_time_values(path):
    _, data = load_columns(path, ["k", "z"])
    return data[:, 0], data[:, 1]


# a market's slice files are read 64 at a time, so that a batch's bytes do not grow
# with the market's days
_READ_BATCH = 64
_TIME_VALUE_HEADER = b"k,z\n"
# the bytes save_time_values writes after the header: %.17g values, commas, line breaks
_TIME_VALUE_BYTES = b"0123456789.+-eE,\n"


def load_time_value_pool(directory, names):
    """The time values of the slice files `names` under `directory` as one (2, quotes)
    float64 pool, k over z, in the order of `names`.

    The pool is sized on the first batch of files for as many files as there are, grown
    geometrically and trimmed once if the files differ in length.  A batch that is not
    as save_time_values writes it is read file by file through load_time_values, so an
    error names the file and line that load_time_values names.
    """
    directory = Path(directory)
    pool, n = np.empty((2, 0)), 0
    for start in range(0, len(names), _READ_BATCH):
        paths = [directory / name for name in names[start:start + _READ_BATCH]]
        batch = _parse_time_value_batch(paths)
        pieces = [load_time_values(path) for path in paths] if batch is None else [batch]
        stop = n + sum(k.size for k, _ in pieces)
        if stop > pool.shape[1]:
            grown = np.empty((2, max(stop, 2 * pool.shape[1]) if n
                              else -(-stop * len(names) // len(paths))))
            grown[:, :n] = pool[:, :n]
            pool = grown
        for k, z in pieces:
            pool[0, n:n + k.size], pool[1, n:n + k.size] = k, z
            n += k.size
    return pool[:, :n].copy() if n < pool.shape[1] else pool


def _parse_time_value_batch(paths):
    """The pooled (k, z) of the slice files at `paths` when each is exactly as
    save_time_values writes it, parsed in one pass; None for any other batch.

    numpy's text parser reads each value with PyOS_string_to_double, the function
    float() uses, so the values equal load_time_values' bit for bit.
    """
    try:
        texts = [path.read_bytes() for path in paths]
    except OSError:  # read file by file, an earlier file's error comes first
        return None
    if not all(t.startswith(_TIME_VALUE_HEADER) and t.endswith(b"\n") for t in texts):
        return None
    body = b"".join(t[len(_TIME_VALUE_HEADER):] for t in texts)
    if body.translate(None, _TIME_VALUE_BYTES):
        return None
    chars = np.frombuffer(body, np.uint8)
    commas, ends = np.flatnonzero(chars == ord(",")), np.flatnonzero(chars == ord("\n"))
    # each row is two non-empty values joined by one comma
    if commas.size != ends.size or commas.size and not (
            commas[0] > 0 and (ends - commas > 1).all() and (commas[1:] - ends[:-1] > 1).all()):
        return None
    with warnings.catch_warnings():
        # numpy rejects unmatched data with a ValueError; older releases only warn
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(body.replace(b"\n", b","), sep=",")
        except (ValueError, DeprecationWarning):
            return None
    # fromstring passes a trailing comma, reads 1e999 as inf and reads nan(x)
    if values.size != 2 * ends.size or not np.isfinite(values).all():
        return None
    return values[0::2], values[1::2]


def save_grid(path, grid):
    doc = {"n": grid.n, "dw": grid.dw, "offset": grid.w_offset}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_grid(path):
    doc = load_object(path)
    n, dw = field(doc, "n", int, path), field(doc, "dw", float, path)
    try:
        return SpectralGrid(n, dw)
    except ValueError as exc:  # the grid's own checks
        raise ValueError(f"{path}: {exc}") from None


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
    label = field(doc, "label", str, path)
    # save_report_tables writes the label into a CSV cell as it is
    if any(c in label for c in ',"\n\r'):
        raise ValueError(f"{path}: 'label' must hold no comma, double quote or line break, "
                         f"got {label!r}")
    report = {"label": label}
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
