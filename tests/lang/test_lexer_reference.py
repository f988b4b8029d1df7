"""The master-regex lexer against the character-at-a-time lexer it
replaced: the same tokens (kind, value, line, column) on every registry
and example source, and the same error, at the same position, on a
malformed corpus and on seeded random input.
"""

import random
from fractions import Fraction
from pathlib import Path
from typing import Iterator

import pytest

from repro.algorithms import all_specs
from repro.lang.lexer import KEYWORDS, OPERATORS, LexError, Lexer, Token

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


class ReferenceLexer:
    """The character-at-a-time lexer the master-regex one replaced."""

    def __init__(self, source: str) -> None:
        self._source = source
        self._pos = 0
        self._line = 1
        self._column = 1

    def _error(self, message: str) -> LexError:
        return LexError(message, self._line, self._column)

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index < len(self._source):
            return self._source[index]
        return ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos >= len(self._source):
                return
            if self._source[self._pos] == "\n":
                self._line += 1
                self._column = 1
            else:
                self._column += 1
            self._pos += 1

    def _skip_trivia(self) -> None:
        while self._pos < len(self._source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "#" or (ch == "/" and self._peek(1) == "/"):
                while self._pos < len(self._source) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _lex_number(self) -> Token:
        line, column = self._line, self._column
        start = self._pos
        while self._peek().isdigit():
            self._advance()
        if self._peek() == "." and self._peek(1).isdigit():
            self._advance()
            while self._peek().isdigit():
                self._advance()
        text = self._source[start : self._pos]
        return Token("NUMBER", Fraction(text), line, column)

    def _lex_word(self) -> Token:
        line, column = self._line, self._column
        start = self._pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self._source[start : self._pos]
        # A hat suffix turns `q^o` into a HAT token for q-hat-aligned.
        if self._peek() == "^":
            version = self._peek(1)
            if version not in ("o", "s"):
                raise self._error(f"bad hat suffix ^{version!r} (expected ^o or ^s)")
            after = self._peek(2)
            if after.isalnum() or after == "_":
                raise self._error("hat suffix must be exactly ^o or ^s")
            self._advance(2)
            return Token("HAT", (text, version), line, column)
        if text in KEYWORDS:
            return Token("KEYWORD", text, line, column)
        return Token("IDENT", text, line, column)

    def next_token(self) -> Token:
        """Return the next token (``EOF`` at end of input)."""
        self._skip_trivia()
        line, column = self._line, self._column
        if self._pos >= len(self._source):
            return Token("EOF", None, line, column)
        ch = self._peek()
        if ch.isdigit():
            return self._lex_number()
        if ch.isalpha() or ch == "_":
            return self._lex_word()
        for op in OPERATORS:
            if self._source.startswith(op, self._pos):
                self._advance(len(op))
                return Token("OP", op, line, column)
        raise self._error(f"unexpected character {ch!r}")

    def tokens(self) -> Iterator[Token]:
        """Iterate all tokens, ending with a single ``EOF``."""
        while True:
            token = self.next_token()
            yield token
            if token.kind == "EOF":
                return


def _outcome(lexer_class, source):
    """Every token, then the error if any, then what one more
    ``next_token`` call does."""
    lexer = lexer_class(source)
    seen = []
    for _ in range(2):
        try:
            while True:
                token = lexer.next_token()
                seen.append((token.kind, token.value, token.line, token.column))
                if token.kind == "EOF":
                    break
        except ValueError as err:
            seen.append((type(err).__name__, str(err)))
    return seen


def _sources():
    for spec in all_specs():
        yield spec.name, spec.source
    for path in sorted(EXAMPLES.glob("*.sdp")):
        yield path.name, path.read_text()


@pytest.mark.parametrize("name,source", list(_sources()), ids=[n for n, _ in _sources()])
def test_same_tokens_on_every_program(name, source):
    assert _outcome(Lexer, source) == _outcome(ReferenceLexer, source)


MALFORMED = [
    "q^x", "q^", "q^out", "q^o_", "q^s1", "q^ o", "if^o", "1^o", "^o",
    "1.", "1.x", "1..2", "1.2.3", "3.25", "007", "x @ y", "$", "a.b", "x ~ y",
    "x \x0b y", "x\xa0y", "\r\nx\r\n  y", "# only a comment", "x // trailing",
    "x #", "//", "/ /", "café := 1", "变量 + x^o", "_x9 :: y", "naïve^s",
    "x²", "²", "1²", "1.²", "1.5²", "٣", "٣.٥", "½", "x½", "Ⅻ", "x\n\n  @",
]


@pytest.mark.parametrize("source", MALFORMED)
def test_same_outcome_on_malformed_input(source):
    assert _outcome(Lexer, source) == _outcome(ReferenceLexer, source)


def test_same_outcome_on_random_input():
    alphabet = list("ab_osO19 .\n\t\r#/^@²½٣é变") + list(OPERATORS)
    rng = random.Random(0)
    for _ in range(3000):
        source = "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
        assert _outcome(Lexer, source) == _outcome(ReferenceLexer, source), source
