"""A reference writer of the canonical report layout, independent of
``scalecover.formats``, for tests and CI to compare its bytes with.

The layout is ``json.dumps(value, sort_keys=True, indent=2,
ensure_ascii=True)`` plus a newline, except that every non-empty array
whose members are all JSON scalars (strings, numbers, booleans, null) is
written on one line, as ``json.dumps`` writes it without an indent:
``[1, "a", null]``.  ``value`` is a tree of JSON values (dicts with string
keys, lists and scalars), such as ``formats.to_jsonable`` returns.
"""

import json


def reference_dumps(value) -> str:
    return _text(value, "\n") + "\n"


def _text(value, newline):
    inner = newline + "  "
    if isinstance(value, dict) and value:
        members = [json.dumps(key) + ": " + _text(value[key], inner) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(members) + newline + "}"
    if isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        members = [_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(members) + newline + "]"
    return json.dumps(value)  # a scalar, {}, [] or an array of scalars
