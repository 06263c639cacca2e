"""CSV ingestion and report emission for the command-line front end.

Reals are serialized with 17 significant digits so that a written dataset
reloads to exactly the same float64 values.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
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


# bytes per read of the pre-parse scan, and so about the size of one share
# of a body read; a share of a body written holds at most about an eighth
_CHUNK = 1 << 20


def _breaks(data: bytes) -> int:
    # the lines that end in ``data``
    breaks = data.count(b"\n")
    if b"\r" in data:
        breaks += data.count(b"\r") - data.count(b"\r\n")
    return breaks


def _scan(path: str):
    """One pass over the raw bytes of ``path``: the number of lines and the
    share starts of the body.

    A line ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as both body parsers
    split them.  Each read that holds a ``\\n`` gives one share start,
    ``(offset, lines)``: the byte just after its first ``\\n`` and the number
    of lines before that byte.  The first byte that is not UTF-8 raises
    CsvFormatError with its offset in the file.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    breaks = offset = 0
    last = b""
    starts = []
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
            if last == b"\r" and chunk.startswith(b"\n"):
                breaks -= 1  # a \r\n split across two reads
            first = chunk.find(b"\n") + 1
            if first:
                starts.append((offset + first, breaks + _breaks(chunk[:first])))
            breaks += _breaks(chunk)
            offset += len(chunk)
            last = chunk[-1:]
    return breaks + (last not in (b"", b"\n", b"\r")), starts


def _loadtxt_share(path: str, delimiter: str, offset: int, skip: int,
                   rows: int):
    """The ``rows`` lines after the first ``skip`` from byte ``offset`` on,
    parsed by numpy's C reader, or None if it raises ValueError.

    The lines are counted by the same universal-newline reader that loadtxt
    uses on a path, blank ones included, so a share never reads into the
    next one.
    """
    try:
        with open(path, "rb") as raw:
            raw.seek(offset)
            with io.TextIOWrapper(raw, encoding="utf-8", newline=None) as text, \
                    warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                return np.loadtxt(itertools.islice(text, skip, skip + rows),
                                  delimiter=delimiter, comments=None, ndmin=2,
                                  dtype=np.float64)
    except ValueError:
        return None


def _loadtxt_body(path: str, delimiter: str, width: int, lines: int,
                  starts: list):
    """The body (every line after the header) parsed by numpy's C reader,
    or None unless it is a float matrix of ``lines - 1`` rows and ``width``
    columns.

    The body is cut at the ``_scan`` share starts, the shares are parsed on
    the ``resolve_threads()`` workers of the fork-join and joined in order;
    each float is parsed on its own, so the matrix is the same at any
    worker count.  loadtxt skips blank lines, which the row parser rejects,
    and refuses some cells that ``float`` accepts (``1_0``, non-ASCII
    digits); the shape check and the fallback on ValueError hand both to the
    row parser.
    """
    bounds = [(0, 0), *starts, (None, lines)]
    shares = []  # (offset, lines to skip, rows)
    for (offset, begin), (_, end) in zip(bounds, bounds[1:]):
        skip = int(begin == 0)  # the header opens share 0
        if end - begin > skip:  # share 0 may hold only the header
            shares.append((offset, skip, end - begin - skip))
    if not shares:
        return None
    parts = _map_ordered(lambda i: _loadtxt_share(path, delimiter, *shares[i]),
                         (len(shares),), None)
    if any(part is None or part.shape != (rows, width)
           for part, (_, _, rows) in zip(parts, shares)):
        return None
    return np.concatenate(parts)


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
    is parsed by numpy's C reader, which refuses any quoted cell, in shares
    on the fork-join workers; anything it does not accept goes through the
    row parser, which gives every error message.
    """
    if len(delimiter) != 1:
        raise CsvFormatError(f"delimiter must be a single character, got {delimiter!r}")
    if delimiter in '"\r\n':
        raise CsvFormatError(
            f"delimiter {delimiter!r} cannot separate fields: it quotes or ends a line")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")
    lines, starts = _scan(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = [h.strip() for h in next(reader)]
            matrix = (_loadtxt_body(path, delimiter, len(header), lines, starts)
                      if reader.line_num == 1 else None)  # share 0 skips one line
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
