"""JSON text as ``json.dumps(o, indent=2, sort_keys=True)`` writes it.

With an indent, json runs its pure-Python encoder, so degone formats
its reports itself: strings through json's C string quoting, floats and
unknown types through json.dumps.  An ``indent`` below is the text that
starts a line at the current level: a newline and two spaces per level.

Text encoded once at the top level goes in at any depth by replacing
each of its newlines with the depth's ``indent``.  That is exact because
ASCII-escaped JSON never holds a raw newline inside a string.  The
catalog stores each entry's descriptor list that way, and the writer
splices it into every record that lists it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as quote

# the descriptor text of every record without descriptors
EMPTY_LIST = "[]"

# the indent of the members of a top-level list
MEMBER = "\n  "


def list_text(members: list[str]) -> str:
    """The top-level text of a nonempty list whose members are encoded
    at ``MEMBER``."""
    return "[" + MEMBER + ("," + MEMBER).join(members) + "\n]"


@dataclass(frozen=True, slots=True)
class JsonText:
    """A value held as its JSON text at the top level."""

    text: str

    def to_json(self):
        return json.loads(self.text)

    def json_text(self, indent: str) -> str:
        return self.text.replace("\n", indent)


def dict_key(k) -> str:
    """A dict key as json writes it: None, bools, ints and floats as
    their JSON text."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {k.__class__.__name__}"
    )


def encode(o, indent: str = "\n") -> str:
    """``o`` as json.dumps(o, indent=2, sort_keys=True) writes it at
    ``indent``.  Exact types are tested first and string members are
    quoted in place: this runs once per value of a report.  An object
    whose type has a ``json_text(indent)`` method writes itself."""
    t = type(o)
    if t is str:
        return quote(o)
    if t is dict:
        if not o:
            return "{}"
        inner = indent + "  "
        items = [
            quote(k if type(k) is str else dict_key(k))
            + ": "
            + (quote(x) if type(x) is str else encode(x, inner))
            for k, x in sorted(o.items())
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = indent + "  "
        items = [quote(x) if type(x) is str else encode(x, inner) for x in o]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if t is int:
        return int.__repr__(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    own = getattr(t, "json_text", None)
    if own is not None:
        return own(o, indent)
    if isinstance(o, str):
        return quote(o)
    if isinstance(o, dict):
        return encode(dict(o.items()), indent)
    if isinstance(o, (list, tuple)):
        return encode(list(o), indent)
    return json.dumps(o)
