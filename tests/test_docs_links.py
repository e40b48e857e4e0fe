"""Every Markdown file the code and the docs point at must exist.

Docstrings and ``docs/*.md`` refer readers to other documents by path.
A path that names no file sends the reader nowhere, so this test
resolves each one:

* a repo-root path named in ``src/**/*.py`` or in ``docs/*.md`` prose
  (``docs/performance.md``, ``perfbench/README.md``) resolves from the
  repository root;
* a relative Markdown link target in ``docs/*.md`` (``[...](traces.md)``)
  resolves from ``docs/``, as a Markdown renderer would.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator, Tuple

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"

#: ``[text](target.md)`` or ``[text](target.md#anchor)``.
_LINK = re.compile(r"\]\(([^)\s#]+\.md)(?:#[^)\s]*)?\)")
#: A path-like token ending in ``.md``.
_PATH = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[\w.-]+\.md)\b")


def _named_paths() -> Iterator[Tuple[str, Path]]:
    """Yield ``(where, resolved path)`` for every ``.md`` path named."""
    for source in sorted((REPO / "src").rglob("*.py")):
        text = source.read_text(encoding="utf-8")
        for match in _PATH.finditer(text):
            yield f"{source.relative_to(REPO)}: {match.group(1)}", REPO / match.group(1)
    for doc in sorted(DOCS.glob("*.md")):
        text = doc.read_text(encoding="utf-8")
        for match in _LINK.finditer(text):
            target = match.group(1)
            if "://" not in target:
                yield f"{doc.relative_to(REPO)}: ({target})", DOCS / target
        for match in _PATH.finditer(_LINK.sub("]", text)):
            yield f"{doc.relative_to(REPO)}: {match.group(1)}", REPO / match.group(1)


def test_scan_finds_references():
    # Guards the regexes: a scan that matches nothing would pass vacuously.
    named = [where for where, _ in _named_paths()]
    assert any(where.startswith("src/") for where in named)
    assert any("(" in where for where in named)


def test_every_named_markdown_file_exists():
    missing = [where for where, path in _named_paths() if not path.is_file()]
    assert missing == [], "dangling Markdown references:\n" + "\n".join(missing)
