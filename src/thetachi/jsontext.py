"""Indented JSON text: the bytes that ``json.dumps`` writes with ``indent=2``.

Every JSON output of the CLI comes from this module.  ``eval``, ``kummer``
and ``enumerate --format json`` render their payloads with ``dumps``.
``verify`` renders each report with ``dumps``, except a passing numeric
trial, which fills a per-identity template: the ``to_json_text`` of one
report with a placeholder for each value (see ``identities``).  With
``indent`` set, ``json.dumps`` leaves its C encoder for the pure-Python
one; a renderer for the few types of the output contract gives the same
text in about half the time.  Strings are escaped by ``json.encoder``'s own
``encode_basestring_ascii``, the default escaping of ``json.dumps``.
The output contract has no raw numbers (every number is already an exact
decimal string), so any value that is not a ``str``, ``True``, ``False``,
``None``, ``list`` or ``dict`` with ``str`` keys raises TypeError,
subclasses of those types included.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as quote

__all__ = ["dumps", "quote"]


def _render(value, indent: str) -> str:
    """``value`` as JSON text; ``indent`` is a newline and the spaces of the
    level that ``value`` sits at."""
    kind = type(value)
    if kind is str:
        return quote(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        items = []
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            items.append(quote(key) + ": " + (quote(item) if type(item) is str
                                               else _render(item, inner)))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join(
            [quote(item) if type(item) is str else _render(item, inner) for item in value]
        ) + indent + "]"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    raise TypeError(f"{kind.__name__} is not in the JSON output contract")


def dumps(value) -> str:
    """``value`` as ``json.dumps`` renders it with ``indent=2``; TypeError
    outside the output contract."""
    return _render(value, "\n")
