"""CSV ingestion and report emission for the command-line front end.

Reals are serialized with 17 significant digits so that a written dataset
reloads to exactly the same float64 values.
"""

from __future__ import annotations

import codecs
import csv
import json
import math
import os
import warnings

import numpy as np

from .core import Dataset


class CsvFormatError(ValueError):
    """Malformed CSV input; the message carries row/column coordinates."""


def _fmt(value) -> str:
    if value is None:  # absent; JSON lines write null
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")  # also spells nan, inf and -inf
    return str(value)


def _json_value(value):
    # JSON (RFC 8259) has no NaN or infinity; a non-finite real is null
    return None if isinstance(value, float) and not math.isfinite(value) else value


# bytes per read of the pre-parse scan
_CHUNK = 1 << 20


def _scan(path: str):
    """One pass over the raw bytes of ``path``: the number of lines.

    A line ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as both body parsers
    split them.  The first byte that is not UTF-8 raises CsvFormatError with
    its offset in the file.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    breaks = offset = 0
    last = b""
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_CHUNK)
            pending = len(decoder.getstate()[0])
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                raise CsvFormatError(
                    f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
                    f"at offset {offset - pending + exc.start} ({exc.reason})"
                ) from None
            if not chunk:
                break
            breaks += chunk.count(b"\n")
            if b"\r" in chunk:
                breaks += chunk.count(b"\r") - chunk.count(b"\r\n")
            if last == b"\r" and chunk.startswith(b"\n"):
                breaks -= 1  # a \r\n split across two reads
            offset += len(chunk)
            last = chunk[-1:]
    return breaks + (last not in (b"", b"\n", b"\r"))


def _loadtxt_body(path: str, delimiter: str, shape):
    """The body (every line after the header) parsed by numpy's C reader,
    or None unless it is a float matrix of exactly ``shape``.

    loadtxt skips blank lines, which the row parser rejects, and refuses
    some cells that ``float`` accepts (``1_0``, non-ASCII digits); the
    shape check and the fallback on ValueError hand both to the row parser.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            matrix = np.loadtxt(path, delimiter=delimiter, comments=None,
                                skiprows=1, ndmin=2, dtype=np.float64,
                                encoding="utf-8")
    except ValueError:
        return None
    return matrix if matrix.shape == shape else None


def _parse_rows(path: str, reader, header: list) -> np.ndarray:
    """The rows left in ``reader`` parsed one by one with ``float``."""
    rows = []
    for rownum, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise CsvFormatError(
                f"{path}: row {rownum} has {len(row)} cells, expected {len(header)}"
            )
        try:
            rows.append(list(map(float, row)))
        except ValueError:
            for col, cell in zip(header, row):
                try:
                    float(cell)
                except ValueError:
                    raise CsvFormatError(
                        f"{path}: row {rownum}, column {col!r}: "
                        f"cannot parse {cell.strip()!r} as a real number"
                    ) from None
    return np.array(rows)


def read_table(path: str, delimiter: str = ","):
    """Read a headed UTF-8 CSV of reals into (header, n-by-k float matrix).

    Header names are stripped of surrounding blanks, and a leading byte-order
    mark is dropped.  A ragged row, a cell that does not parse as a decimal
    real, or a non-finite cell aborts the read with its row number (the
    header is row 1) and column name.  Under a header on one line, the body
    is parsed by numpy's C reader, which refuses any quoted cell; anything it
    does not accept goes through the row parser, which gives every error
    message.
    """
    if len(delimiter) != 1:
        raise CsvFormatError(f"delimiter must be a single character, got {delimiter!r}")
    if delimiter in '"\r\n':
        raise CsvFormatError(
            f"delimiter {delimiter!r} cannot separate fields: it quotes or ends a line")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    lines = _scan(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = [h.strip() for h in next(reader)]
            matrix = (_loadtxt_body(path, delimiter, (lines - 1, len(header)))
                      if reader.line_num == 1 else None)  # loadtxt skips one line
            if matrix is None:
                matrix = _parse_rows(path, reader, header)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file, header row required") from None
        except csv.Error as exc:
            # e.g. a cell longer than csv.field_size_limit()
            raise CsvFormatError(f"{path}: line {reader.line_num}: {exc}") from None
    if not len(matrix):
        raise CsvFormatError(f"{path}: no data rows")
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        i, j = bad[0]
        raise CsvFormatError(
            f"{path}: row {i + 2}, column {header[j]!r}: "
            f"{float(matrix[i, j])} is not a finite real number"
        )
    return header, matrix


def column_index(path: str, header: list, name: str) -> int:
    """Position of the column ``name`` in a ``read_table`` header."""
    if name not in header:
        raise CsvFormatError(
            f"{path}: response column {name!r} not found; "
            f"available columns: {', '.join(header)}"
        )
    return header.index(name)


def load_csv(path: str, response_column: str, delimiter: str = ",") -> Dataset:
    """Read a headed CSV (``read_table``) into a Dataset.

    The named column becomes the response; every remaining column becomes a
    covariate, in file order.
    """
    header, matrix = read_table(path, delimiter)
    y_idx = column_index(path, header, response_column)
    if len(header) == 1:
        raise CsvFormatError(f"{path}: no covariate columns besides the response")
    return Dataset(np.delete(matrix, y_idx, axis=1), matrix[:, y_idx].copy(),
                   column_names=header[:y_idx] + header[y_idx + 1:])


def save_csv(data: Dataset, path: str) -> None:
    """Write a Dataset as comma-separated CSV under the header
    ``y,x1,...,xd`` (response first, then covariates)."""
    np.savetxt(path, np.column_stack([data.y, data.x]), fmt="%.17g",
               delimiter=",", comments="",
               header=",".join(["y"] + [f"x{j + 1}" for j in range(data.d)]))


def write_records(records, columns, out, fmt: str = "csv") -> None:
    """Write homogeneous dict records as CSV (fixed column order) or as
    JSON lines, where a non-finite real is written as null."""
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
                out.write(json.dumps({c: _json_value(rec.get(c)) for c in columns},
                                     sort_keys=True, allow_nan=False))
                out.write("\n")
        else:
            raise ValueError(f"unknown output format {fmt!r}")
    finally:
        if close:
            out.close()


def write_meta(meta: dict, out_path: str) -> None:
    """Write the JSON sidecar ``<out_path>.meta.json`` of an experiment
    output, keys sorted."""
    with open(str(out_path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_report(report, out_path: str, fmt: str = "csv") -> None:
    """Persist an ExperimentReport: one row per replication per estimator
    plus a summary block."""
    records = [dict(kind="data", **row) for row in report.rows]
    records += [dict(kind="summary", **row) for row in report.summary]
    columns = ["kind"] + sorted({k for row in report.rows + report.summary
                                 for k in row})
    write_records(records, columns, out_path, fmt=fmt)
