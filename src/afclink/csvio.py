"""Line-numbered reading of the CSV files the package reads back, and the
one writer of the CSV files it writes.

Every reader reports a bad file the same way: ValueError(f"{path}: ...") for
the file as a whole and ValueError(f"{path}: line {n}: ...") for one row,
with n the 1-based line number and the header on line 1.
"""

import csv
import math


def csv_rows(path, header: tuple[str, ...], kind: str):
    """Yield (line number, fields) for each non-blank row after the header.

    Raises ValueError for an empty file ("empty {kind} file"), a header other
    than `header`, and a row whose field count differs from the header's."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            found = tuple(next(reader))
        except StopIteration:
            raise ValueError(f"{path}: empty {kind} file") from None
        if found != header:
            raise ValueError(f"{path}: unexpected header {found!r}")
        for line_no, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) != len(header):
                raise ValueError(
                    f"{path}: line {line_no}: expected {len(header)} fields, "
                    f"got {len(raw)}"
                )
            yield line_no, raw


def float_fields(path, line_no: int, fields) -> list[float]:
    """The fields of one row as finite floats; raises ValueError naming the
    line for a non-numeric or non-finite (nan, inf) field."""
    try:
        values = [float(v) for v in fields]
    except ValueError:
        raise ValueError(f"{path}: line {line_no}: non-numeric field") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{path}: line {line_no}: non-finite field")
    return values


def write_csv(path, header, rows) -> None:
    """Write the header and then each row with csv.writer's defaults."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
