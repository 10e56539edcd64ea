"""JSON format tag and certificate verdicts shared by every gapforge file format."""

from __future__ import annotations

from .errors import ParseError, SchemaVersionError

FORMAT_TAG = "gapforge-v1"

COMPLETENESS_OK = "completeness_ok"
SOUNDNESS_OK = "soundness_ok"
VACUOUS_OK = "vacuous_ok"
VERDICT_VIOLATION = "violation"


def check_format(doc: dict) -> None:
    """Reject documents with a wrong format tag; a missing tag is accepted."""
    if not isinstance(doc, dict):
        raise ParseError(f"document must be a JSON object, got {type(doc).__name__}")
    tag = doc.get("format")
    if tag is not None and tag != FORMAT_TAG:
        raise SchemaVersionError(f"unsupported format tag {tag!r}, expected {FORMAT_TAG!r}")


def require_keys(doc: dict, keys: tuple[str, ...], what: str) -> None:
    for key in keys:
        if key not in doc:
            raise SchemaVersionError(f"{what} document is missing key {key!r}")


def require_ints(value, depth: int, what: str):
    """Return value after checking it is lists nested depth deep around ints."""
    if depth == 0:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(f"{what}: expected an integer, got {type(value).__name__}")
    elif isinstance(value, list):
        for item in value:
            require_ints(item, depth - 1, what)
    else:
        raise ParseError(f"{what}: expected a list, got {type(value).__name__}")
    return value
