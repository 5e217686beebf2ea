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
    name every one of `columns`; `parse` gets each row as a dict by the
    header's names. A blank line is skipped. A row that cannot be split,
    that has fewer or more cells than the header or that `parse` rejects
    (TypeError or ValueError) raises ValueError naming the file and the
    physical line, blank lines counted."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, [])
            missing = [c for c in columns if c not in header]
            if not missing:
                parsed = []
                for cells in reader:
                    if not cells:  # a blank line
                        continue
                    if len(cells) != len(header):
                        fewer = len(cells) < len(header)
                        raise ValueError(f"{'fewer' if fewer else 'more'} "
                                         f"cells than the header names")
                    parsed.append(parse(dict(zip(header, cells))))
                return parsed
        except (csv.Error, TypeError, ValueError) as e:
            raise ValueError(f"{path} line {reader.line_num}: {e}") from e
    raise ValueError(f"{path}: missing column {', '.join(missing)}")
