"""Embedded protocol/scenario library.

Each entry is a directory shipped with the package: one ``protocol.ab``
Alice-Bob file plus one JSON scenario per attack/fair variant. Entries are
addressable by name from the CLI (``tspbmc check nspkt fair``) and
extractable to plain files with ``tspbmc list --export DIR``.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class LibraryEntry:
    name: str
    protocol: str  # protocol.ab source text
    scenarios: dict  # scenario name -> JSON text
    notes: str = ""


def _read_entry(item) -> Optional[LibraryEntry]:
    """The entry in package directory ``item``; None if it is not one."""
    if not item.is_dir() or not (item / "protocol.ab").is_file():
        return None
    scenarios = {}
    for f in sorted(item.iterdir(), key=lambda p: p.name):
        if f.name.endswith(".json"):
            scenarios[f.name[:-len(".json")]] = f.read_text(encoding="utf-8")
    first = (item / "protocol.ab").read_text(encoding="utf-8")
    notes = "\n".join(
        line.lstrip("# ").rstrip()
        for line in first.splitlines()
        if line.startswith("#")
    )
    return LibraryEntry(item.name, first, scenarios, notes)


def entries() -> dict:
    """All library entries, keyed by name, deterministically ordered."""
    found = (_read_entry(item) for item in
             sorted(resources.files(__name__).iterdir(), key=lambda p: p.name))
    return {entry.name: entry for entry in found if entry is not None}


def get(name: str) -> LibraryEntry:
    """The named entry, reading only its own files. The name is matched
    against the package directory's entries, never joined into a path."""
    for item in resources.files(__name__).iterdir():
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
