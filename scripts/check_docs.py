"""Docs quality gate: code snippets must parse, links must resolve.

Checks every Markdown page under ``docs/`` plus ``README.md``:

- each fenced ```` ```python ```` block is compiled
  (``compile(..., "exec")``), so documentation examples cannot rot
  into syntax errors;
- every relative Markdown link/image target (``[text](path)``)
  resolves to an existing file or directory, external
  ``http(s)``/``mailto`` targets excluded;
- every ``#fragment`` of a link to a Markdown page (``page.md#anchor``,
  or ``#anchor`` within the page) names one of that page's headings,
  by GitHub's anchor rule: the heading text lower-cased, inline
  markup dropped, every character but letters, digits, ``_``, ``-``
  and spaces removed, spaces turned into ``-``, and ``-1``, ``-2``, …
  appended to repeats.  Lines inside fenced code blocks are not
  headings.

Exits non-zero listing every failure.  CI runs this in the lint job;
run it locally with ``python scripts/check_docs.py``.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PYTHON_BLOCK = re.compile(r"```python[ \t]*\n(.*?)```", re.DOTALL)
# [text](target) links and ![alt](target) images; stops at the first
# closing paren, which Markdown requires be balanced for plain paths.
LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
EXTERNAL = ("http://", "https://", "mailto:")
FENCE = re.compile(r"^[ \t]*(```|~~~)")
HEADING = re.compile(r"^#{1,6}[ \t]+(.*?)(?:[ \t]+#+)?[ \t]*$")
LINK_TEXT = re.compile(r"!?\[([^\]]*)\]\([^)]*\)")


def heading_slugs(text: str) -> set:
    """The GitHub anchor of every heading on a Markdown page."""
    slugs, seen = set(), {}
    in_fence = False
    for line in text.splitlines():
        if FENCE.match(line):
            in_fence = not in_fence
            continue
        match = None if in_fence else HEADING.match(line)
        if match is None:
            continue
        title = LINK_TEXT.sub(r"\1", match.group(1)).strip().lower()
        slug = re.sub(r"[^\w\- ]", "", title).replace(" ", "-")
        repeat = seen.get(slug, 0)
        seen[slug] = repeat + 1
        slugs.add(f"{slug}-{repeat}" if repeat else slug)
    return slugs


def check_file(path: pathlib.Path) -> list:
    errors = []
    text = path.read_text(encoding="utf-8")
    rel = path.relative_to(ROOT)

    for i, match in enumerate(PYTHON_BLOCK.finditer(text)):
        block = match.group(1)
        line = text[:match.start(1)].count("\n") + 1
        try:
            compile(block, f"{rel}:{line}", "exec")
        except SyntaxError as exc:
            errors.append(
                f"{rel}:{line}: python block {i + 1} does not parse: "
                f"{exc.msg} (block line {exc.lineno})")

    for match in LINK.finditer(text):
        target = match.group(1)
        if target.startswith(EXTERNAL):
            continue
        line = text[:match.start()].count("\n") + 1
        page, _, fragment = target.partition("#")
        resolved = (path.parent / page).resolve() if page else path
        if not resolved.exists():
            errors.append(
                f"{rel}:{line}: broken relative link -> {target}")
        elif fragment and resolved.suffix == ".md" and fragment not in \
                heading_slugs(resolved.read_text(encoding="utf-8")):
            errors.append(f"{rel}:{line}: broken anchor -> {target}")
    return errors


def main() -> int:
    pages = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]
    missing = [p for p in pages if not p.exists()]
    if missing:
        for page in missing:
            print(f"MISSING: {page.relative_to(ROOT)}")
        return 1
    errors = []
    for page in pages:
        errors.extend(check_file(page))
    for error in errors:
        print(error)
    checked = ", ".join(str(p.relative_to(ROOT)) for p in pages)
    if errors:
        print(f"FAIL: {len(errors)} docs problem(s) in: {checked}")
        return 1
    print(f"PASS: docs snippets parse, links and anchors resolve "
          f"({checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
