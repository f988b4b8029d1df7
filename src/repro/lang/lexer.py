"""The lexer for the ShadowDP concrete syntax.

The concrete syntax follows the paper's figures as closely as ASCII allows:

* ``x^o`` and ``x^s`` stand for the hat variables ``x̂°`` and ``x̂†``;
* ``aligned`` / ``shadow`` stand for the selector versions ``°`` / ``†``;
* ``:=`` is assignment, ``::`` is list cons, and ``?:`` is the ternary.

Comments run from ``#`` or ``//`` to the end of the line.

The lexer scans with one compiled master regex: each step matches one
whitespace run, comment, number, word or operator at the current
position, and the match's group names the token kind.  Its classes are
Python's Unicode ones, which agree with the ``str`` predicates the
language is defined by: ``\\w`` is ``isalnum()`` plus ``_`` (identifier
characters) and ``\\d`` is ``isdecimal()`` (number digits).  Only two
kinds of character fall between them, both outside ASCII: digits that
are not decimal (``²``, ``①``), which ``isdigit()`` accepts so a number
runs on through them and ``Fraction`` then rejects the literal, and
other numeric characters (``½``), which are unexpected characters.  The
lexer handles both where a match meets one.  Lines count ``\\n`` only,
and columns count code points from 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List


class LexError(ValueError):
    """Raised on malformed input, with a line/column position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    ``kind`` is one of ``NUMBER``, ``IDENT``, ``HAT``, ``KEYWORD``, ``OP``
    or ``EOF``.  ``value`` holds the decoded payload: a ``Fraction`` for
    numbers, the identifier text for ``IDENT``/``KEYWORD``, a
    ``(base, version)`` pair for ``HAT`` and the operator text for ``OP``.
    """

    kind: str
    value: object
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r})"


KEYWORDS = frozenset(
    {
        "function",
        "returns",
        "precondition",
        "costbound",
        "define",
        "while",
        "invariant",
        "if",
        "else",
        "skip",
        "return",
        "true",
        "false",
        "Lap",
        "aligned",
        "shadow",
        "forall",
        "assert",
        "assume",
        "havoc",
        "abs",
        "list",
        "num",
        "bool",
    }
)

# Multi-character operators must be listed before their prefixes.
OPERATORS = (
    ":=",
    "::",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "?",
    ":",
    ";",
    ",",
    "!",
    "=",
)


#: Trivia (whitespace runs and comments), then at most one token; the
#: token's group names its kind.  Operators keep the order of
#: ``OPERATORS``, longest first.
_MASTER = re.compile(
    r"(?P<trivia>(?:[ \t\r\n]+|(?:\#|//)[^\n]*)*)"
    r"(?:(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<word>[^\W\d]\w*)"
    "|(?P<op>" + "|".join(map(re.escape, OPERATORS)) + "))?"
)


def _digits_end(source: str, pos: int) -> int:
    while source[pos : pos + 1].isdigit():
        pos += 1
    return pos


def _number_end(source: str, start: int) -> int:
    """Where a number starting at ``start`` ends under ``str.isdigit``:
    a digit run, then ``.`` and a second run if a digit follows it."""
    end = _digits_end(source, start)
    if source[end : end + 1] == "." and source[end + 1 : end + 2].isdigit():
        end = _digits_end(source, end + 1)
    return end


class Lexer:
    """Streaming tokenizer over a source string."""

    def __init__(self, source: str) -> None:
        self._source = source
        self._pos = 0
        self._line = 1
        #: Offset of the first character of the current line.
        self._line_start = 0

    def next_token(self) -> Token:
        """Return the next token (``EOF`` at end of input)."""
        source = self._source
        match = _MASTER.match(source, self._pos)
        kind = match.lastgroup
        pos = match.end("trivia")
        newlines = source.count("\n", self._pos, pos)
        if newlines:
            self._line += newlines
            self._line_start = source.rfind("\n", 0, pos) + 1
        self._pos = pos
        line, column = self._line, pos - self._line_start + 1
        if kind == "trivia":
            if pos >= len(source):
                return Token("EOF", None, line, column)
            raise LexError(f"unexpected character {source[pos]!r}", line, column)
        end = match.end()
        text = match.group(kind)
        if kind == "op":
            self._pos = end
            return Token("OP", text, line, column)
        if kind == "word" and not (text[0].isalpha() or text[0] == "_"):
            # A numeric character that is not a letter: a digit starts a
            # number, anything else is unexpected.
            if not text[0].isdigit():
                raise LexError(f"unexpected character {text[0]!r}", line, column)
            kind, end = "number", _number_end(source, pos)
        if kind == "number":
            after = source[end : end + 1]
            if after.isdigit() or (
                after == "." and "." not in text and source[end + 1 : end + 2].isdigit()
            ):
                end = _number_end(source, pos)
            # Past a non-decimal digit Fraction rejects the literal.
            self._pos = end
            return Token("NUMBER", Fraction(source[pos:end]), line, column)
        # A hat suffix turns `q^o` into a HAT token for q-hat-aligned.
        if source.startswith("^", end):
            self._pos = end
            hat_column = column + len(text)
            version = source[end + 1 : end + 2]
            if version not in ("o", "s"):
                raise LexError(
                    f"bad hat suffix ^{version!r} (expected ^o or ^s)", line, hat_column
                )
            after = source[end + 2 : end + 3]
            if after.isalnum() or after == "_":
                raise LexError("hat suffix must be exactly ^o or ^s", line, hat_column)
            self._pos = end + 2
            return Token("HAT", (text, version), line, column)
        self._pos = end
        return Token("KEYWORD" if text in KEYWORDS else "IDENT", text, line, column)

    def tokens(self) -> Iterator[Token]:
        """Iterate all tokens, ending with a single ``EOF``."""
        while True:
            token = self.next_token()
            yield token
            if token.kind == "EOF":
                return


def tokenize(source: str) -> List[Token]:
    """Tokenize a whole source string into a list ending with ``EOF``."""
    return list(Lexer(source).tokens())
