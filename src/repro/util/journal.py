"""Append-only NDJSON journal with crash recovery.

One JSON object per line: a header ``{"magic": ..., "fingerprint": ...}``
naming the format and the run or service the journal belongs to, then
one record per line.  A subclass supplies only data — its magic string,
its exception class, what a fingerprint identifies, and which objects
count as records — and this class loads, checks, recovers and appends.
The recovery rules are described in DESIGN.md §15.1.
"""

from __future__ import annotations

import json
import os
from typing import IO, ClassVar, TypeVar

__all__ = ["Journal"]

_J = TypeVar("_J", bound="Journal")


class Journal:
    """Base of the repository's append-only journals.

    Subclasses set :attr:`magic`, :attr:`error` and :attr:`owner`,
    implement :meth:`_is_record`, and call :meth:`_load` once to read
    the records back.
    """

    #: Header magic naming the on-disk format.
    magic: ClassVar[str]
    #: Raised for every journal that cannot be used.
    error: ClassVar[type[Exception]]
    #: What a fingerprint identifies, for the mismatch message.
    owner: ClassVar[str]

    def __init__(
        self, path: str | os.PathLike[str], fingerprint: str, *, fsync: bool
    ) -> None:
        self.path = os.fspath(path)
        self.fingerprint = fingerprint
        self.fsync = fsync
        self._handle: IO[str] | None = None
        self._has_header = False

    @staticmethod
    def _is_record(record: dict) -> bool:
        """Whether a parsed line is one of this journal's records."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def _load(self) -> list[dict]:
        """Read the records back, truncating a torn tail or header.

        The torn bytes are cut off the file, not just skipped: appends
        reopen it in append mode, so the next record would otherwise be
        glued onto them and the next load would refuse the journal.  An
        append returns only after its full line, newline included,
        reached the file, so an unterminated record was never
        acknowledged and is dropped too.
        """
        if not os.path.exists(self.path):
            return []
        with open(self.path, "rb") as handle:
            raw = handle.read()
        cut = raw.rfind(b"\n") + 1
        body, tail = raw[:cut], raw[cut:]
        if not body.strip():
            self._recover_torn_header(tail.strip())
            return []
        header, *lines = body.split(b"\n")[:-1]
        self._check_header(self._parse(header))
        self._has_header = True
        records: list[dict] = []
        # Byte offset just past the last valid newline-terminated line:
        # the truncation point when the tail is torn.
        good_end = offset = len(header) + 1
        for number, line in enumerate(lines, start=2):
            offset += len(line) + 1
            if line.strip():
                record = self._parse(line)
                if record is None or not self._is_record(record):
                    # Only the crash's final write can be torn.
                    rest = [*lines[number - 1 :], tail]
                    if any(self._parse(later) is not None for later in rest):
                        raise self.error(
                            f"{self.path}:{number}: corrupt journal line "
                            "followed by valid records"
                        )
                    break
                records.append(record)
            good_end = offset
        if good_end < len(raw):
            os.truncate(self.path, good_end)
        return records

    def _check_header(self, header: dict | None) -> None:
        if header is None or header.get("magic") != self.magic:
            raise self.error(f"{self.path}: not a {self.magic} journal")
        if header.get("fingerprint") != self.fingerprint:
            raise self.error(
                f"{self.path}: journal belongs to a different {self.owner}; "
                "refusing to load it"
            )

    def _recover_torn_header(self, text: bytes) -> None:
        """Truncate to empty when the file holds at most our header, torn
        or missing its newline; refuse anything else."""
        header = self._parse(text)
        if header is not None:
            self._check_header(header)
        elif not json.dumps(self._header(), sort_keys=True).startswith(
            text.decode("utf-8", errors="replace")
        ):
            raise self.error(f"{self.path}: not a {self.magic} journal")
        os.truncate(self.path, 0)

    @staticmethod
    def _parse(line: bytes) -> dict | None:
        try:
            record = json.loads(line.decode("utf-8", errors="replace"))
        except json.JSONDecodeError:
            return None
        return record if isinstance(record, dict) else None

    def _header(self) -> dict:
        return {"magic": self.magic, "fingerprint": self.fingerprint}

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def _write(self, record: dict) -> None:
        """Append one record line (raises ``OSError`` on failure)."""
        self._append_line(self._open(), record)

    def _open(self) -> IO[str]:
        if self._handle is None:
            self._handle = open(  # noqa: SIM115 - held across appends
                self.path, "a", encoding="utf-8"
            )
            if not self._has_header:
                self._append_line(self._handle, self._header())
                self._has_header = True
        return self._handle

    def _append_line(self, handle: IO[str], record: dict) -> None:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self: _J) -> _J:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
