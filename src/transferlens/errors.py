"""Shared error types, and the one reader of input files.

``DataError`` covers everything wrong with inputs at run time: malformed
corpora, inconsistent LSOs where consistency is required, unusable numeric
preconditions.  ``UsageError`` covers bad invocations.  The command-line
layer maps them to distinct exit codes.  :func:`read_input` reads every
input file, and every knowledge-base response, as UTF-8 and turns a missing
path, a directory or bytes that are not UTF-8 into a ``DataError`` naming the
file or URL (and the line of the bytes).
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path


class DataError(Exception):
    pass


class UsageError(Exception):
    pass


def read_input(path: str | Path, data: bytes | None = None) -> str:
    """The text of an input file, or of ``data`` fetched from ``path`` (a
    URL, say), decoded as UTF-8."""
    if data is None:
        try:
            data = Path(path).read_bytes()
        except OSError as err:
            raise DataError(f"cannot read {path}: {err.strerror}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data[: err.start].count(b"\n") + 1
        raise DataError(f"{path}:{line}: not UTF-8 text ({err.reason})") from None


def read_key_values(path: str | Path, key=str) -> Iterator[tuple[int, str, str]]:
    """Line number, key and value of each ``key = value`` line of a file,
    refusing a key that ``key()`` maps to an earlier line's; ``#`` starts a
    comment, and blank lines are skipped."""
    seen: set[str] = set()
    for lineno, raw in enumerate(read_input(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        name, value = (part.strip() for part in line.split("=", 1))
        name = key(name)
        if name in seen:
            raise DataError(f"{path}:{lineno}: duplicate key {name!r}")
        seen.add(name)
        yield lineno, name, value
