"""CSV ingestion and report emission for the command-line front end.

Reals are serialized with 17 significant digits so that a written dataset
reloads to exactly the same float64 values.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .core import Dataset


class CsvFormatError(ValueError):
    """Malformed CSV input; the message carries row/column coordinates."""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".17g")
    if isinstance(value, (np.floating,)):
        return format(float(value), ".17g")
    return str(value)


def load_csv(path: str, response_column: str, delimiter: str = ",") -> Dataset:
    """Read a headed CSV into a Dataset.

    The named column becomes the response; every remaining column becomes a
    covariate, in file order.  Any cell that does not parse as a decimal real
    aborts the load with its row number and column name.
    """
    if len(delimiter) != 1:
        raise CsvFormatError(f"delimiter must be a single character, got {delimiter!r}")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        if response_column not in header:
            raise CsvFormatError(
                f"{path}: response column {response_column!r} not found; "
                f"available columns: {', '.join(header)}"
            )
        y_idx = header.index(response_column)
        x_names = [h for i, h in enumerate(header) if i != y_idx]
        if not x_names:
            raise CsvFormatError(f"{path}: no covariate columns besides the response")

        ys, xs = [], []
        for rownum, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvFormatError(
                    f"{path}: row {rownum} has {len(row)} cells, expected {len(header)}"
                )
            parsed = []
            for col, cell in zip(header, row):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise CsvFormatError(
                        f"{path}: row {rownum}, column {col!r}: "
                        f"cannot parse {cell.strip()!r} as a real number"
                    ) from None
            ys.append(parsed[y_idx])
            xs.append([v for i, v in enumerate(parsed) if i != y_idx])
    if not ys:
        raise CsvFormatError(f"{path}: no data rows")
    return Dataset(np.asarray(xs), np.asarray(ys), column_names=x_names)


def save_csv(data: Dataset, path: str) -> None:
    """Write a Dataset as comma-separated CSV under the header
    ``y,x1,...,xd`` (response first, then covariates)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["y"] + [f"x{j + 1}" for j in range(data.d)])
        for i in range(data.n):
            writer.writerow([_fmt(float(data.y[i]))] +
                            [_fmt(float(v)) for v in data.x[i]])


def write_records(records, columns, out, fmt: str = "csv") -> None:
    """Write homogeneous dict records as CSV (fixed column order) or as
    JSON lines."""
    close = False
    if isinstance(out, (str, os.PathLike)):
        out = open(out, "w", newline="", encoding="utf-8")
        close = True
    try:
        if fmt == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(columns)
            for rec in records:
                writer.writerow([_fmt(rec.get(c, "")) for c in columns])
        elif fmt == "jsonl":
            for rec in records:
                out.write(json.dumps({c: rec.get(c) for c in columns},
                                     sort_keys=True))
                out.write("\n")
        else:
            raise ValueError(f"unknown output format {fmt!r}")
    finally:
        if close:
            out.close()


# metadata keys that vary run to run without affecting results
_VOLATILE_KEYS = ("threads",)


def write_meta(meta: dict, out_path: str) -> None:
    """Write the JSON sidecar ``<out_path>.meta.json`` of an experiment output.

    The worker count is dropped so two runs with the same seed produce
    byte-identical files.
    """
    meta = {k: v for k, v in meta.items() if k not in _VOLATILE_KEYS}
    with open(str(out_path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_report(report, out_path: str, fmt: str = "csv") -> None:
    """Persist an ExperimentReport: one row per replication per estimator
    plus a summary block, and its metadata sidecar (``write_meta``)."""
    data_cols = sorted({k for row in report.rows for k in row})
    summary_cols = sorted({k for row in report.summary for k in row})
    records = [dict(kind="data", **row) for row in report.rows]
    records += [dict(kind="summary", **row) for row in report.summary]
    columns = ["kind"] + sorted(set(data_cols) | set(summary_cols))
    write_records(records, columns, out_path, fmt=fmt)
    write_meta(report.metadata, out_path)
