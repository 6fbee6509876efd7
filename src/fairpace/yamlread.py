"""The YAML that fairpace's run configs and ``gen --spec`` files are written in.

:func:`loads` reads one document built of block mappings and sequences
(nested by indentation, with ``- key: value`` items and sequences written
at their key's column, as ``yaml.safe_dump`` writes them), flow ``[...]``
and ``{...}`` collections, which may nest and span lines, plain, single- and
double-quoted scalars, scalar keys and ``#`` comments.  A plain scalar is
read by YAML 1.2's core schema: ``null``, ``~`` or nothing is None,
``true``/``false`` a bool, ``17`` or ``0x1F`` an int, ``1e-9``, ``-0.0``,
``.inf`` or ``.nan`` a float, anything else a str.  That is what PyYAML's
safe loader with YAML 1.2's float pattern returns for the same text.

Everything else is refused with a :class:`ValueError` ending ``(line L)``:
anchors, aliases, tags, block scalars, complex keys, scalars that span
lines, a second document, a key given twice, and the plain scalars that
YAML 1.1 reads otherwise than 1.2 (``017``, ``1:30``, ``1_000``, ``yes``,
``2024-01-01``), which are refused rather than guessed.
"""

from __future__ import annotations

import re

_NAN = float("-nan")  # PyYAML's NaN, whose sign bit is set
_NAMED = {
    **dict.fromkeys(("", "~", "null", "Null", "NULL")),
    **dict.fromkeys(("true", "True", "TRUE"), True),
    **dict.fromkeys(("false", "False", "FALSE"), False),
    **{s + "." + inf: float(s + "inf") for s in ("", "+", "-") for inf in ("inf", "Inf", "INF")},
    **dict.fromkeys((".nan", ".NaN", ".NAN"), _NAN),
}
_YAML11_WORDS = frozenset(("yes", "Yes", "YES", "no", "No", "NO", "on", "On", "ON", "off", "Off", "OFF", "<<", "="))
_NUMERAL = frozenset("0123456789+-.eE")  # over these, float() reads just YAML 1.2's float pattern
_HEX = frozenset("0123456789abcdefABCDEF")
# The patterns below are compiled on first use, through re's cache: few configs
# hold a quoted scalar, a non-ASCII character or a plain scalar that may be a
# YAML 1.1 number, and compiling the patterns at import cost every fairpace
# process about 6 ms, half of what importing PyYAML did.
#
# The other plain scalars that YAML 1.1 reads otherwise than 1.2: binaries,
# signed hex, numbers with `_`, base 60 (1:30 is 90), dates, and 1.2's own
# octals, which are strings in 1.1.
_YAML11 = r"""0o[0-7]+ | [-+]?0b[0-1_]+ | [-+]0x[0-9a-fA-F_]+
    | (?=[^_]*_)([-+]?(0x[0-9a-fA-F_]+ | 0[0-7_]+ | [1-9][0-9_]* | [0-9][0-9_]*\.[0-9_]*([eE][-+][0-9]+)?)
                 | \.[0-9][0-9_]*([eE][-+][0-9]+)?)
    | [-+]?([1-9][0-9_]*(:[0-5]?[0-9])+ | [0-9][0-9_]*(:[0-5]?[0-9])+\.[0-9_]*)
    | [0-9]{4}-([0-9]{2}-[0-9]{2} | [0-9]{1,2}-[0-9]{1,2}([Tt]|[ \t]+)[0-9]{1,2}:[0-9]{2}:[0-9]{2}(\.[0-9]*)?
                ([ \t]*(Z|[-+][0-9]{1,2}(:[0-9]{2})?))?)"""
# where a plain scalar ends: a ':' before a space, a ' #' comment or, in a
# flow collection, one of ',?[]{}'
_PLAIN_END = re.compile(r"\n| #|:(?:[ \n]|$)|\t")
_FLOW_PLAIN_END = re.compile(r"[\n\t,?\[\]{}]| #|:(?:[ \n,\[\]{}]|$)")
_SINGLE = r"'((?:[^'\n]|'')*)'"
_DOUBLE = r'"((?:[^"\\\n]|\\.)*)"'
_ESCAPE = r"\\(x[0-9a-fA-F]{2}|u[0-9a-fA-F]{4}|U[0-9a-fA-F]{8}|.)"
_ESCAPES = dict(zip("0abtnvfre \"/\\N_LP\t", "\0\a\b\t\n\v\f\r\x1b \"/\\\x85\xa0\u2028\u2029\t"))
_SPECIAL = "[^\t\n\x20-\x7e\xa0-\u2027\u202a-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]"
_REFUSED = {"&": "anchors", "*": "aliases", "!": "tags", "|": "block scalars", ">": "block scalars", "?": "complex keys"}


def loads(text: str):
    """The value of the one YAML document ``text`` holds (None when it holds none)."""
    return _Reader(text.removeprefix("\ufeff")).document()


class _Reader:
    def __init__(self, text: str):
        self.s, self.i = text, 0

    def fail(self, message: str, at=None):
        raise ValueError(f"{message} (line {self.s.count(chr(10), 0, self.i if at is None else at) + 1})")

    def document(self):
        # an ASCII text of tabs, line breaks and printable characters needs no search
        plain = self.s.isascii() and self.s.replace("\t", "").replace("\n", "").isprintable()
        bad = None if plain else re.search(_SPECIAL, self.s)
        if bad:
            self.fail(f"special character {bad[0]!r}", bad.start())
        self.skip()
        if self.col() == 0 and self.indicator("---"):
            self.i += 3
        if self.blank() < 0:
            return None
        value = self.block()
        if self.i < len(self.s):
            self.fail("more indented than the node before it, or outside the document")
        return value

    def peek(self, k: int = 0) -> str:
        return self.s[self.i + k : self.i + k + 1]

    def gap(self) -> None:
        """Skip spaces and a comment, to the end of the line."""
        while self.peek() == " ":
            self.i += 1
        if self.peek() == "#":
            end = self.s.find("\n", self.i)
            self.i = len(self.s) if end < 0 else end

    def blank(self) -> int:
        """Go to the next line's content; its column, or -1 at the end."""
        while True:
            self.gap()
            if self.i >= len(self.s):
                return -1
            if self.peek() != "\n":
                if self.col() == 0 and (self.indicator("---") or self.indicator("...")):
                    self.fail("more than one document, or a document end marker")
                return self.col()
            self.i += 1

    def col(self) -> int:
        return self.i - self.s.rfind("\n", 0, self.i) - 1 if self.i < len(self.s) else -1

    def end_of_line(self) -> None:
        self.gap()
        if self.peek() not in ("", "\n"):
            self.fail(f"unexpected {self.peek()!r}")
        self.blank()

    def indicator(self, mark: str) -> bool:
        """Whether ``mark``, then a space or a line's end, comes next."""
        return self.s.startswith(mark, self.i) and self.peek(len(mark)) in ("", " ", "\n")

    def entry(self) -> bool:
        return self.indicator("-")

    def block(self):
        """The block node at the current column; leaves ``i`` at the next
        content indented no deeper than the node."""
        col = self.col()
        if self.entry():
            items, at = [], col
            while at == col and self.entry():
                self.i += 1
                self.gap()
                if self.peek() in ("", "\n"):
                    at = self.blank()
                    items.append(self.block() if at > col else None)
                else:
                    items.append(self.block())
                at = self.col()
            return self.dedent(items, at, col)
        start, key = self.i, self.inline(False)
        self.gap()
        if not self.indicator(":"):
            self.end_of_line()
            return key
        out = {}
        while True:
            self.i += 1
            self.gap()
            if self.peek() in ("", "\n"):
                at = self.blank()
                value = self.block() if at > col or at == col and self.entry() else None
            else:
                value = self.inline(False)
                self.end_of_line()
            self.put(out, key, value, start)
            at = self.col()
            if at != col or self.entry():
                return self.dedent(out, at, col)
            start, key = self.i, self.inline(False)
            self.gap()
            if not self.indicator(":"):
                self.fail("expected ':' after a mapping key")

    def dedent(self, node, at: int, col: int):
        if at > col:
            self.fail("more indented than the node before it, or a scalar that spans lines")
        return node

    def put(self, out: dict, key, value, at: int) -> None:
        if isinstance(key, (list, dict)):
            self.fail("a mapping key must be a scalar", at)
        if key in out:
            self.fail(f"duplicate key {key!r}", at)
        out[key] = value

    def skip(self) -> None:
        """Skip spaces, comments and line breaks inside a flow collection."""
        self.gap()
        while self.peek() == "\n":
            self.i += 1
            self.gap()

    def inline(self, flow: bool):
        """The scalar or flow collection at ``i``."""
        s, i, ch = self.s, self.i, self.peek()
        if ch in ("[", "{"):
            self.i += 1
            out = [] if ch == "[" else {}
            close = "]" if ch == "[" else "}"
            while True:
                self.skip()
                if self.peek() == close:
                    self.i += 1
                    return out
                at = self.i
                item = self.inline(True)
                self.skip()
                if ch == "{":
                    value = None
                    if self.peek() == ":":
                        self.i += 1
                        self.skip()
                        if self.peek() not in (",", "}"):
                            value = self.inline(True)
                            self.skip()
                    self.put(out, item, value, at)
                else:
                    out.append(item)
                if self.peek() == ",":
                    self.i += 1
                elif self.peek() != close:
                    self.fail(f"expected ',' or {close!r} in a flow collection")
        if ch in ("'", '"'):
            m = re.compile(_SINGLE if ch == "'" else _DOUBLE).match(s, i)
            if not m:
                self.fail("a quoted scalar that is not closed on its line")
            self.i = m.end()
            return m[1].replace("''", "'") if ch == "'" else re.sub(_ESCAPE, self.unescape, m[1])
        if ch in _REFUSED and (ch != "?" or self.indicator("?")):
            self.fail(f"{_REFUSED[ch]} are not read")
        if ch == "" or ch in " \t\n,[]{}#%@`" or ch in "-?:" and (self.indicator(ch) or flow and ch != "-"):
            self.fail(f"expected a value, found {ch or 'the end'!r}")
        end = (_FLOW_PLAIN_END if flow else _PLAIN_END).search(s, i)
        text = s[i : end.start() if end else len(s)].rstrip(" ")
        self.i = i + len(text)
        if text in _NAMED:
            return _NAMED[text]
        legacy = text in _YAML11_WORDS
        if not legacy and _NUMERAL.issuperset(text):
            try:
                value = float(text)
            except ValueError:
                pass
            else:
                digits = text.lstrip("+-")
                if not digits.isdigit():
                    return value
                legacy = digits[0] == "0" and int(digits) > 7  # YAML 1.1 reads 017 as octal 15, 08 as a float
                if not legacy:
                    return int(text)
        if legacy or text[0] in "+-.0123456789" and re.fullmatch(_YAML11, text, re.X):
            self.fail(f"YAML 1.1 and 1.2 read {text!r} differently; quote it or write it otherwise", i)
        return int(text, 16) if text[:2] == "0x" and len(text) > 2 and _HEX.issuperset(text[2:]) else text

    def unescape(self, m) -> str:
        code = m[1]
        if len(code) > 1:
            return chr(int(code[1:], 16))
        if code not in _ESCAPES:
            self.fail(f"unknown escape '\\{code}'")
        return _ESCAPES[code]
