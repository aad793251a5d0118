"""The CSV format of every input table: registry, reference, generation, grid
and series files.

A file is UTF-8, decoded as it is read.  Rows end at ``\\n`` or ``\\r\\n``; a
lone ``\\r`` outside quotes is a ``DataError`` naming its row, as is a field
over ``csv.field_size_limit()``.  Header cells are stripped.  Data rows are
numbered from 1 (the header is row 0), and blank rows are skipped but
counted.  A file that does not decode raises its ``UnicodeDecodeError``
before any other error.  A table is read from bytes or from a binary file, as
a stream: only the rows being checked are held.
"""

from __future__ import annotations

import csv
import io
import itertools
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from typing import BinaryIO

import numpy as np

from .errors import DataError

#: rows read and checked at a time
BLOCK_ROWS = 1024
#: bytes read at a time while a source's newlines are counted
_COUNT_BYTES = 1 << 16


class Table:
    """The data rows of a CSV file below its ``header``."""

    def __init__(self, reader, header: list[str] | None, max_rows: int):
        self.header = header
        #: the source's newline count, which the data rows never exceed: the
        #: header ends at a newline, and only the last row may end without one
        self.max_rows = max_rows
        self.count = 0  # nonblank rows read so far
        self._reader = reader

    def blocks(self) -> Iterator[tuple[np.ndarray, list[list[str]]]]:
        """The nonblank rows, read ``BLOCK_ROWS`` rows at a time, with their
        row numbers.  A row of another length than the header's (``expected N
        columns, got M, row R``) or a csv error (``<text>, row R``) raises
        only after the rows before it are yielded, so those are checked
        first."""
        n_columns, row_no = len(self.header or ()), 1
        while True:
            rows: list[list[str]] = []
            try:
                # extend keeps the rows read before an error
                rows.extend(itertools.islice(self._reader, BLOCK_ROWS))
            except csv.Error as exc:
                error = _row_error(exc, row_no + len(rows))
            else:
                error = None
                if not rows:
                    return
            lengths = np.fromiter(map(len, rows), np.intp, len(rows))
            wrong = np.flatnonzero((lengths != n_columns) & (lengths != 0))
            end = wrong[0] if len(wrong) else len(rows)
            at = np.flatnonzero(lengths[:end])
            if len(at):
                self.count += len(at)
                yield row_no + at, [rows[i] for i in at]
            if len(wrong):
                raise DataError(f"expected {n_columns} columns, got {lengths[end]}, "
                                f"row {row_no + end}")
            if error is not None:
                raise error
            row_no += len(rows)

    def __iter__(self) -> Iterator[tuple[int, list[str]]]:
        """``(row number, row)`` of every nonblank row."""
        for row_nos, rows in self.blocks():
            yield from zip(row_nos.tolist(), rows)


@contextmanager
def table(source: bytes | BinaryIO, what: str = "",
          columns: Sequence[str] | None = None) -> Iterator[Table]:
    """Read ``source``, bytes or a binary file from its position on, as a CSV
    table.  With ``columns``, the header must be exactly those names and at
    least one data row must follow.  Every error raised while the table is
    open, by the reader or by the caller's own checks, yields to a decode
    error anywhere in ``source``: on that path alone the whole source is
    read again, so the decode error names its byte offset."""
    binary = io.BytesIO(source) if isinstance(source, bytes) else source
    start = binary.tell()
    newlines = sum(chunk.count(b"\n")
                   for chunk in iter(lambda: binary.read(_COUNT_BYTES), b""))
    binary.seek(start)
    text = io.TextIOWrapper(binary, encoding="utf-8", newline="\n")
    try:
        reader = csv.reader(text)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise _row_error(exc, 0) from None
        header = None if header is None else [h.strip() for h in header]
        if columns is not None and header != list(columns):
            raise DataError(f"{what} CSV header must be {','.join(columns)}")
        rows = Table(reader, header, newlines)
        yield rows
        if columns is not None and not rows.count:
            raise DataError(f"no {what} data")
    except (DataError, UnicodeDecodeError):
        binary.seek(start)
        binary.read().decode("utf-8")  # text that does not decode fails first, at its byte offset
        raise
    finally:
        text.detach()  # the caller's file stays open


def _row_error(exc: csv.Error, row_no: int) -> DataError:
    """A ``csv.Error`` as a data error naming its row; a lone ``\\r`` is said
    as such, without the ``csv`` module's advice on Python file modes."""
    text = str(exc)
    if text.startswith("new-line character seen in unquoted field"):
        text = "lone carriage return in an unquoted field"
    return DataError(f"{text}, row {row_no}")


def number(kind: type, raw: str, what: str, row_no: int):
    """``kind`` (``int`` or ``float``) of ``raw`` stripped of white space, or
    ``non-numeric <what>, row R``."""
    try:
        return kind(raw.strip())
    except ValueError:
        raise DataError(f"non-numeric {what}, row {row_no}") from None
