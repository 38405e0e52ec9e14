"""Line-numbered reading of the CSV files the package reads back, and the
writer of every CSV file it writes but two: events.csv, whose rows harness
formats itself, and the comb profile, which memory writes with numpy.

Every reader reports a bad file the same way: ValueError(f"{path}: ...") for
the file as a whole and ValueError(f"{path}: line {n}: ...") for one row,
with n the 1-based line number and the header on line 1.  csv_rows adds the
line prefix to every ValueError a loader's row function raises, so a loader
states only its own rule.
"""

import csv
import math


def csv_rows(path, header: tuple[str, ...], kind: str, parse):
    """Yield (line number, parse(fields)) for each non-blank row after the header.

    The file is read as UTF-8, with or without the byte-order mark that some
    spreadsheets put first.  Raises ValueError for an empty file ("empty
    {kind} file") and a header other than `header`; a row whose field count
    differs from the header's, or whose parse raises ValueError, raises
    ValueError(f"{path}: line {n}: {reason}")."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
            try:
                if len(raw) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(raw)}")
                row = parse(raw)
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from exc
            yield line_no, row


def floats(fields) -> list[float]:
    """The fields of one row as finite floats; raises ValueError for a
    non-numeric or non-finite (nan, inf) field."""
    try:
        values = [float(v) for v in fields]
    except ValueError:
        raise ValueError("non-numeric field") from None
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite field")
    return values


def write_csv(path, header, rows) -> None:
    """Write the header and then each row as UTF-8 with csv.writer's defaults."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
