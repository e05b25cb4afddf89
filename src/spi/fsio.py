"""Atomic file writes and line-delimited JSON helpers.

All output files are written to a temp file in the destination directory and
renamed into place, so readers never observe a partial file.
"""
from __future__ import annotations

import io
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable

from .errors import ContractError


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path``, making its directory if need be; a file
    that cannot be written ends in a ContractError that names it."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as err:
        raise ContractError(f"{path}: cannot write ({err.strerror})") from None


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def dump_json_line(record: dict) -> str:
    """Deterministic single-line JSON (insertion key order preserved)."""
    return json.dumps(record, separators=(", ", ": "), sort_keys=False)


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    atomic_write_text(path, "".join(dump_json_line(r) + "\n" for r in records))


def read_text(path: str | Path, what: str) -> str:
    """A UTF-8 text file; a file that cannot be read or is not UTF-8 ends in
    a ContractError that names it (and the line of the first bad byte)."""
    try:
        blob = Path(path).read_bytes()
    except OSError as err:
        raise ContractError(f"{path}: cannot read {what} ({err.strerror})") from None
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as err:
        line = blob.count(b"\n", 0, err.start) + 1
        raise ContractError(f"{path}:{line}: {what} is not UTF-8 text") from None


def read_jsonl(path: str | Path) -> list[tuple[int, object]]:
    """Each record of a JSON-lines file with its 1-based line number; blank
    lines are skipped."""
    out = []
    # lines split as a text-mode file splits them
    for number, line in enumerate(io.StringIO(read_text(path, "the file"), newline=None),
                                  start=1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append((number, json.loads(line)))
        except json.JSONDecodeError as err:
            raise ContractError(f"{path}:{number}: malformed JSON ({err.msg})") from err
        except RecursionError:
            raise ContractError(f"{path}:{number}: malformed JSON (nested too deeply)") from None
    return out
