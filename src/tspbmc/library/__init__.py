"""Embedded protocol/scenario library.

Each entry is a directory shipped with the package: one ``protocol.ab``
Alice-Bob file plus one JSON scenario per attack/fair variant. Entries are
addressable by name from the CLI (``tspbmc check nspkt fair``) and
extractable to plain files with ``tspbmc list --export DIR``.
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Mapping
from pathlib import Path

# protocol: the protocol.ab source text; scenarios: scenario name -> JSON
# text, each file read when it is looked up; notes: the protocol file's
# comment lines
LibraryEntry = namedtuple("LibraryEntry", "name protocol scenarios notes")

_DIR = os.path.dirname(__file__)


class _Scenarios(Mapping):
    """Scenario name -> JSON text of one entry's directory. The names come
    from its listing; a file is read each time its name is looked up."""

    def __init__(self, directory: str, names):
        self._dir, self._names = directory, tuple(names)

    def __getitem__(self, name: str) -> str:
        if name not in self._names:
            raise KeyError(name)
        with open(os.path.join(self._dir, name + ".json"), encoding="utf-8") as f:
            return f.read()

    def __contains__(self, name) -> bool:
        return name in self._names

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


def _read_entry(item: os.DirEntry) -> LibraryEntry | None:
    """The entry in package directory ``item``; None if it is not one.
    Reads its protocol file only."""
    if not item.is_dir():
        return None
    names = sorted(os.listdir(item.path))
    if "protocol.ab" not in names:
        return None
    with open(os.path.join(item.path, "protocol.ab"), encoding="utf-8") as f:
        first = f.read()
    scenarios = _Scenarios(item.path, (n[:-len(".json")] for n in names if n.endswith(".json")))
    notes = "\n".join(
        line.lstrip("# ").rstrip()
        for line in first.splitlines()
        if line.startswith("#")
    )
    return LibraryEntry(item.name, first, scenarios, notes)


def entries() -> dict:
    """All library entries, keyed by name, deterministically ordered."""
    with os.scandir(_DIR) as items:
        found = [_read_entry(item) for item in sorted(items, key=lambda e: e.name)]
    return {entry.name: entry for entry in found if entry is not None}


def get(name: str) -> LibraryEntry:
    """The named entry, reading only its own files. The name is matched
    against the package directory's entries, never joined into a path."""
    with os.scandir(_DIR) as items:
        for item in items:
            if item.name == name:
                entry = _read_entry(item)
                if entry is not None:
                    return entry
    raise KeyError(f"no library entry named {name!r}")


def export(directory) -> list:
    """Write every entry's files under ``directory``; returns written paths."""
    written = []
    base = Path(directory)
    for entry in entries().values():
        d = base / entry.name
        d.mkdir(parents=True, exist_ok=True)
        p = d / "protocol.ab"
        p.write_text(entry.protocol, encoding="utf-8")
        written.append(p)
        for sname, text in entry.scenarios.items():
            sp = d / f"{sname}.json"
            sp.write_text(text, encoding="utf-8")
            written.append(sp)
    return written
