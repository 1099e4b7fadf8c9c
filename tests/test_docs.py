"""The docs describe the tree as it is.

``docs/architecture.md`` stays under its size budget, and every
``repro.<pkg>.<module>`` path and repo-relative file path that README.md,
DESIGN.md, EXPERIMENTS.md or ``docs/*.md`` names resolves.  CHANGES.md
and ROADMAP.md record history, so they may name what is gone.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

ARCHITECTURE_MAX_BYTES = 50_000

CHECKED_DOCS = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    + list((ROOT / "docs").glob("*.md"))
)

#: ``repro.core.deployment.SiteSpec`` -- a dotted path under the package,
#: not the tail of a file name such as ``src/repro.egg-info``.
MODULE_PATH = re.compile(r"(?<![\w/.-])repro(?:\.[A-Za-z_]\w*)+")

#: ``tests/test_docs.py``, ``benchmarks/results/`` or ``tests/fixtures/*.json``.
FILE_PATH = re.compile(
    r"(?<![\w/.-])(?:\.github|benchmarks|docs|examples|src|tests)/[\w./*-]*"
)


def _resolves(dotted: str) -> bool:
    """The longest importable prefix is a module; the rest are attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def _exists(path: str) -> bool:
    path = path.rstrip(".")
    if "*" in path:
        return any(ROOT.glob(path))
    return (ROOT / path).exists()


def _names(pattern: re.Pattern[str], doc: Path) -> list[str]:
    return sorted(set(pattern.findall(doc.read_text(encoding="utf-8"))))


def test_architecture_doc_within_budget():
    size = (ROOT / "docs" / "architecture.md").stat().st_size
    assert size <= ARCHITECTURE_MAX_BYTES, (
        f"docs/architecture.md is {size:,} bytes (budget "
        f"{ARCHITECTURE_MAX_BYTES:,}): describe the system as it is and keep "
        "measurements and their history in CHANGES.md"
    )


@pytest.mark.parametrize("doc", CHECKED_DOCS, ids=lambda p: p.name)
def test_module_paths_resolve(doc):
    missing = [name for name in _names(MODULE_PATH, doc) if not _resolves(name)]
    assert not missing, f"{doc.name} names what the package does not have: {missing}"


@pytest.mark.parametrize("doc", CHECKED_DOCS, ids=lambda p: p.name)
def test_file_paths_resolve(doc):
    missing = [path for path in _names(FILE_PATH, doc) if not _exists(path)]
    assert not missing, f"{doc.name} names files the repo does not have: {missing}"


def test_the_guard_sees_a_stale_name():
    assert _resolves("repro.mboxes.firewall.ConnectionTracker")
    assert not _resolves("repro.policy.acl")
    assert not _resolves("repro.mboxes.firewall.NoSuchElement")
    assert _exists("tests/test_docs.py") and _exists("tests/fixtures/*.json")
    assert not _exists("tests/test_acl.py")
