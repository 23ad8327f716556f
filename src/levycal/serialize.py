"""File formats: model/params JSON, curve CSVs, grid sidecars and reports.

All floats are written with 17 significant digits so rereading a file
reproduces the in-memory values bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .calibrate import BucketTable, CalibrationReport
from .elnn import ElnnParams
from .levy_models import CustomModel, KouModel, MertonModel
from .spectral import SpectralGrid


def _fmt(x):
    return f"{float(x):.17g}"


def _require_object(doc, what):
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")


# --- models -----------------------------------------------------------------


def model_to_dict(model):
    if model.kind == "merton":
        params = {"lambda": model.lam, "mu": model.mu, "delta": model.delta}
    elif model.kind == "kou":
        params = {"lambda": model.lam, "p": model.p,
                  "lambda_plus": model.lam_plus, "lambda_minus": model.lam_minus}
    else:
        params = {"x": list(map(float, model.x)), "dvdx": list(map(float, model.dvdx))}
    return {"model": model.kind, "sigma": model.sigma, "params": params}


def model_from_dict(doc):
    _require_object(doc, "model document")
    kind = doc.get("model")
    sigma = float(doc["sigma"])
    p = doc.get("params", {})
    if kind == "merton":
        return MertonModel(sigma, float(p["lambda"]), float(p["mu"]), float(p["delta"]))
    if kind == "kou":
        return KouModel(sigma, float(p["lambda"]), float(p["p"]),
                        float(p["lambda_plus"]), float(p["lambda_minus"]))
    if kind == "custom":
        return CustomModel(sigma, np.asarray(p["x"], dtype=float),
                           np.asarray(p["dvdx"], dtype=float))
    raise ValueError(f"unknown model kind {kind!r}")


def save_model(model, path):
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(path):
    return model_from_dict(json.loads(Path(path).read_text()))


# --- network parameters -------------------------------------------------------


def params_to_dict(params):
    return {
        "sigma": params.sigma,
        "wr0": list(map(float, params.wr0)),
        "wr1": list(map(float, params.wr1)),
        "wi0": list(map(float, params.wi0)),
        "wi1": list(map(float, params.wi1)),
    }


def params_from_dict(doc):
    _require_object(doc, "params document")
    return ElnnParams(
        s=float(doc["sigma"]),
        wr0=np.asarray(doc["wr0"], dtype=float),
        wr1=np.asarray(doc["wr1"], dtype=float),
        wi0=np.asarray(doc["wi0"], dtype=float),
        wi1=np.asarray(doc["wi1"], dtype=float),
    )


def save_params(params, path):
    Path(path).write_text(json.dumps(params_to_dict(params), indent=2) + "\n")


def load_params(path):
    return params_from_dict(json.loads(Path(path).read_text()))


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
    doc = json.loads(Path(path).read_text())
    _require_object(doc, path)
    return SpectralGrid(n=int(doc["n"]), dw=float(doc["dw"]))


def save_loss_trace(path, losses):
    save_columns(path, ["epoch", "loss"], [np.arange(len(losses)), losses])


def save_density(path, x, dvdx):
    save_columns(path, ["x", "dvdx"], [x, dvdx])


# --- reports ------------------------------------------------------------------


def report_to_dict(report):
    return {
        "label": report.label,
        "sigma": report.sigma,
        "lambda": report.lam,
        "z_rmse": dict(report.z_table.entries, sum=report.z_table.total),
        "phi_re_rmse": dict(report.re_table.entries, sum=report.re_table.total),
        "phi_im_rmse": dict(report.im_table.entries, sum=report.im_table.total),
        "final_loss": report.final_loss,
    }


def report_from_dict(doc):
    def table(key):
        entries = {k: v for k, v in doc[key].items() if k != "sum"}
        return BucketTable(entries)

    return CalibrationReport(doc["label"], doc["sigma"], doc["lambda"],
                             table("z_rmse"), table("phi_re_rmse"), table("phi_im_rmse"),
                             doc.get("final_loss", float("nan")))


def save_report(report, path):
    Path(path).write_text(json.dumps(report_to_dict(report), indent=2) + "\n")


def load_report(path):
    doc = json.loads(Path(path).read_text())
    _require_object(doc, path)
    return report_from_dict(doc)


def save_report_tables(report_or_reports, out_dir):
    """One CSV per error family, one row per report label, buckets plus sum."""
    reports = report_or_reports if isinstance(report_or_reports, list) else [report_or_reports]
    out_dir = Path(out_dir)
    tables = [("report_z.csv", "z_table", ("ATM", "ITM", "OTM")),
              ("report_re.csv", "re_table", ("Low", "Mid", "High")),
              ("report_im.csv", "im_table", ("Low", "Mid", "High"))]
    for fname, attr, names in tables:
        lines = ["label," + ",".join(names) + ",sum"]
        for rep in reports:
            table = getattr(rep, attr)
            cells = [table.entries.get(n) for n in names]
            row = [rep.label] + ["" if c is None else _fmt(c) for c in cells]
            row.append("" if table.total is None else _fmt(table.total))
            lines.append(",".join(row))
        (out_dir / fname).write_text("\n".join(lines) + "\n")
