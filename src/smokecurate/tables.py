"""The one table format: every CSV the tool writes or reads is a header line
naming its columns, then one line per row, in the `csv` module's default
dialect. A read names the file, and the line or the missing column, of a fault.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")


def write_table(path: Path | str, header: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def read_table(path: Path | str, columns: Sequence[str],
               parse: Callable[[dict[str, str]], T]) -> list[T]:
    """`parse(row)` for each row of the table at `path`, whose header must
    name every one of `columns`. A row that cannot be split, that has fewer
    or more cells than the header or that `parse` rejects (TypeError or
    ValueError) raises ValueError naming the file and the line."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        try:
            missing = [c for c in columns if c not in (reader.fieldnames or ())]
            if not missing:
                parsed = []
                for row in reader:
                    if None in row.values():  # DictReader's short-row filler
                        raise ValueError("fewer cells than the header names")
                    if None in row:  # DictReader's key for a long row's rest
                        raise ValueError("more cells than the header names")
                    parsed.append(parse(row))
                return parsed
        except (csv.Error, TypeError, ValueError) as e:
            raise ValueError(f"{path} line {reader.line_num}: {e}") from e
    raise ValueError(f"{path}: missing column {', '.join(missing)}")
