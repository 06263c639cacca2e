"""CSV ingestion and report emission for the command-line front end.

Reals are serialized with 17 significant digits so that a written dataset
reloads to exactly the same float64 values.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import warnings

import numpy as np

from ._forkjoin import _map_ordered, resolve_threads
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


# about the bytes in one share of a body read (``_cuts``); a share of a body
# written holds at most about an eighth
_CHUNK = 1 << 20


def _breaks(data: bytes) -> int:
    # the lines that end in ``data``
    breaks = data.count(b"\n")
    if b"\r" in data:
        breaks += data.count(b"\r") - data.count(b"\r\n")
    return breaks


def _cuts(path: str) -> list:
    """The share bounds of a body read: byte 0, the byte just after the first
    ``\\n`` at or after each multiple of ``_CHUNK`` (so no cut splits a
    ``\\r\\n`` pair or a UTF-8 character), and the end of the file.  A
    multiple inside the line the last cut ended is skipped unread."""
    cuts = [0]
    with open(path, "rb") as fh:
        size = fh.seek(0, os.SEEK_END)
        for start in range(_CHUNK, size, _CHUNK):
            if cuts[-1] <= start:
                fh.seek(start)
                cuts.append(start + len(fh.readline()))
    return cuts if cuts[-1] == size else cuts + [size]


def _loadtxt_share(path: str, delimiter: str, width: int, start: int, end: int):
    """Bytes ``start`` to ``end`` of ``path``, read once and parsed by numpy's
    C reader (the header skipped at byte 0), or None unless each of their
    lines gives one row of ``width`` floats.

    A line ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as both body parsers
    split them.  loadtxt skips blank lines, which the row parser rejects,
    so a share with one comes out short; bytes that are not UTF-8 raise a
    ValueError, as does a cell that loadtxt refuses.
    """
    with open(path, "rb") as fh:
        fh.seek(start)
        data = fh.read(end - start)
    skip = int(start == 0)
    rows = _breaks(data) + (data[-1:] not in (b"\n", b"\r")) - skip
    if not rows:  # the first share may hold only the header
        return np.empty((0, width))
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=None)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            part = np.loadtxt(text, delimiter=delimiter, comments=None,
                              skiprows=skip, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    return part if part.shape == (rows, width) else None


def _loadtxt_body(path: str, delimiter: str, width: int):
    """The body (every line after the header) parsed by numpy's C reader in
    the shares between ``_cuts``, or None if any share gives None.

    The shares are parsed on the ``resolve_threads()`` workers of the
    fork-join and joined in order; each float is parsed on its own, so the
    matrix is the same at any worker count.  loadtxt refuses some cells that
    ``float`` accepts (``1_0``, non-ASCII digits); the fallback hands them
    to the row parser.
    """
    cuts = _cuts(path)
    parts = _map_ordered(
        lambda i: _loadtxt_share(path, delimiter, width, cuts[i], cuts[i + 1]),
        (len(cuts) - 1,), None)
    return None if any(part is None for part in parts) else np.concatenate(parts)


def _check_utf8(path: str) -> None:
    # the first byte of ``path`` that is not UTF-8 raises CsvFormatError
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CsvFormatError(
            f"{path}: not UTF-8 text: byte 0x{data[exc.start]:02x} "
            f"at offset {exc.start} ({exc.reason})"
        ) from None


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

    Header names are stripped of surrounding blanks and must be distinct,
    and a leading byte-order mark is dropped.  A ragged row, a cell that
    does not parse as a decimal real, or a non-finite cell aborts the read
    with its row number (the header is row 1) and column name.  Under a
    header on one line, the body is read once, in shares parsed by numpy's C
    reader (which refuses any quoted cell) on the fork-join workers.  What
    it does not accept goes through the row parser, which gives every error
    message; only there, or where the header read fails, is the whole file
    checked for the offset of its first byte that is not UTF-8.
    """
    if len(delimiter) != 1:
        raise CsvFormatError(f"delimiter must be a single character, got {delimiter!r}")
    if delimiter in '"\r\n':
        raise CsvFormatError(
            f"delimiter {delimiter!r} cannot separate fields: it quotes or ends a line")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = [h.strip() for h in next(reader)]
            if len(set(header)) < len(header):
                name = next(h for i, h in enumerate(header) if h in header[:i])
                raise CsvFormatError(f"{path}: header repeats column {name!r}")
            matrix = (_loadtxt_body(path, delimiter, len(header))
                      if reader.line_num == 1 else None)  # share 0 skips one line
            if matrix is None:
                _check_utf8(path)
                matrix = _parse_rows(path, reader, header)
        except UnicodeDecodeError:  # in the header read
            _check_utf8(path)
            raise
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file, header row required") from None
        except csv.Error as exc:
            # e.g. a cell longer than csv.field_size_limit()
            _check_utf8(path)
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


# shares of a written body per worker in one round of the fork-join; a
# round's text is all that is held in memory at once
_WRITE_ROUND = 8


def save_csv(data: Dataset, path: str) -> None:
    """Write a Dataset as comma-separated CSV under the header
    ``y,x1,...,xd`` (response first, then covariates), each real at 17
    significant digits (``%.17g``), one row per line ending in ``\n``.

    The body is cut into shares of ``_CHUNK // (192 * columns)`` rows; a
    cell and its delimiter take at most 25 bytes, so a share holds at most
    about an eighth of ``_CHUNK`` of text.  Each share is formatted by one
    ``%`` over its rows' line formats.  The shares are formatted on
    the ``resolve_threads()`` workers of the fork-join in rounds of
    ``_WRITE_ROUND`` shares per worker and written in order, so the file is
    byte-identical at any worker count and a body of one share forks
    nothing.  The worker count is resolved before ``path`` is opened, so a
    bad ``ADAHUBER_THREADS`` leaves an existing file unchanged.
    """
    threads = resolve_threads()
    matrix = np.column_stack([data.y, data.x])
    n, width = matrix.shape
    rows = max(1, _CHUNK // (192 * width))
    line = ",".join(["%.17g"] * width) + "\n"

    def share(start):
        block = matrix[start:start + rows]
        return (line * len(block)) % tuple(block.ravel().tolist())

    starts = range(0, n, rows)
    per_round = _WRITE_ROUND * threads
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(["y"] + [f"x{j + 1}" for j in range(data.d)]) + "\n")
        for first in range(0, len(starts), per_round):
            batch = starts[first:first + per_round]
            fh.writelines(_map_ordered(lambda i: share(batch[i]), (len(batch),),
                                       threads))


_FORMATS = ("csv", "jsonl")  # of write_records, and so of every --format


def write_records(records, columns, out, fmt: str = "csv") -> None:
    """Write homogeneous dict records as CSV (fixed column order) or as
    JSON lines, where a non-finite real is written as null.  An unknown
    ``fmt`` is rejected before a path is opened, so no file is truncated."""
    if fmt not in _FORMATS:
        raise ValueError(f"unknown output format {fmt!r}")
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
        else:
            for rec in records:
                out.write(json.dumps({c: _json_value(rec.get(c)) for c in columns},
                                     sort_keys=True, allow_nan=False))
                out.write("\n")
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
