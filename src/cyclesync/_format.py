"""The one CSV dialect of the package: UTF-8, LF line ends, a header row,
round-trip floats, and a cell holding a comma, a double quote, CR or LF
quoted as RFC 4180 does (``csv.QUOTE_MINIMAL``)."""

import csv
import re

import numpy as np

#: rows formatted and written at a time; bounds the text held in memory
_CHUNK_ROWS = 4096
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def fmt(value) -> str:
    """Round-trip decimal form of a float (plain Python repr, full precision)."""
    return repr(float(value))


def _cells(column: np.ndarray, lo: int) -> list:
    """Cell text of rows lo .. lo + _CHUNK_ROWS of one column."""
    part, kind = column[lo:lo + _CHUNK_ROWS].tolist(), column.dtype.kind
    if kind == "f":
        return list(map(repr, part))
    if kind in "iub":
        return list(map(str, map(int, part)))
    cells = list(map(str, part))
    if _NEEDS_QUOTES.search("".join(cells)):
        cells = ['"' + c.replace('"', '""') + '"' if _NEEDS_QUOTES.search(c) else c for c in cells]
    return cells


def write_table(path, header, *columns):
    """Write equal-length 1-D columns under ``header``, ``_CHUNK_ROWS`` rows at a time.

    Float columns are written as :func:`fmt`, integer and bool columns as
    decimal integers, any other column as ``str``.
    """
    arrays = [np.asarray(column) for column in columns]
    if any(array.ndim != 1 for array in arrays):
        raise ValueError("table columns must be 1-D")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, max(map(len, arrays), default=0), _CHUNK_ROWS):
            rows = zip(*(_cells(array, lo) for array in arrays), strict=True)
            fh.write("\n".join(map(",".join, rows)) + "\n")


def read_table(path, header, error):
    """Yield ``(lineno, cells)`` for each non-blank row of a UTF-8 table under ``header``.

    A leading UTF-8 byte-order mark is skipped.  Raises ``error`` naming the
    file for a missing or wrong header, bytes that are not UTF-8 (decoded a
    block at a time, so no line is known), and, with its line, a row without
    one cell per header name.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None or tuple(h.strip() for h in first) != tuple(header):
                raise error(f"{path}: expected header {','.join(header)}")
            for lineno, row in enumerate(reader, start=2):
                # a row is blank exactly when its cells joined are whitespace
                if not "".join(row).strip():
                    continue
                if len(row) != len(header):
                    raise error(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
                yield lineno, row
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: "
                    f"{exc.reason})") from None
