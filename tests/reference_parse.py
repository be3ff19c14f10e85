"""The plane-tree parser as it stood before it wrote the flat form, kept as
the reference for the one that does.

``parse_plane_tree`` reads the text into nested ``LabeledPlaneTree`` nodes
built by hand: each vertex is built when its bracket closes, or at once on a
leaf, and joins the children of the vertex whose bracket is open.  It gives
the package's errors, but a label longer than ``int`` converts raises
``int``'s own ``ValueError``.
"""

import re

from treepark import InputError, LabeledPlaneTree

# A token, or else the character that cannot start one.
_TOKEN = re.compile(r"\s*(?:(\*|\d+|\[|\])|(\S))")


def parse_plane_tree(text: str) -> LabeledPlaneTree:
    if not isinstance(text, str):
        raise InputError(f"plane tree: expected text, got {text!r}")
    tokens: list[str] = []
    for m in _TOKEN.finditer(text):
        if m.group(2) is not None:
            raise InputError(f"plane tree: unexpected character at {text[m.start():]!r}")
        tokens.append(m.group(1))
    if not tokens:
        raise InputError("plane tree: empty input")

    # The vertices whose bracket is open, each with the children read so far.
    open_: list[tuple[int | None, list[LabeledPlaneTree]]] = []
    root: LabeledPlaneTree | None = None
    for i, tok in enumerate(tokens):
        if root is not None:
            raise InputError("plane tree: trailing tokens")
        if tok == "[":
            if i == 0 or tokens[i - 1] in "[]":
                raise InputError("plane tree: expected a vertex")
            continue  # opened with the vertex before it
        if tok == "]":
            if not open_:  # the first token
                raise InputError("plane tree: expected a vertex")
            label, kids = open_.pop()
            if not kids:
                raise InputError("plane tree: empty bracket pair")
            node = LabeledPlaneTree(label, tuple(kids))
        else:
            label = None if tok == "*" else int(tok)
            if tokens[i + 1 : i + 2] == ["["]:
                open_.append((label, []))
                continue
            node = LabeledPlaneTree(label, ())
        if open_:
            open_[-1][1].append(node)
        else:
            root = node
    if open_:
        raise InputError("plane tree: missing closing bracket")
    return root
