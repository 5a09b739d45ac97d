"""Tokenizer for the supported Verilog subset."""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator, List, Optional


class LexerError(ValueError):
    """Raised when the source text contains an unrecognised character."""

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        # Optional: an unpickled copy is rebuilt from the formatted message.
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class TokenKind(enum.Enum):
    """Lexical token categories."""

    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    SIZED_NUMBER = "sized_number"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "module",
        "endmodule",
        "input",
        "output",
        "inout",
        "wire",
        "reg",
        "assign",
        "always",
        "posedge",
        "negedge",
        "begin",
        "end",
        "if",
        "else",
        "parameter",
        "localparam",
    }
)

# Multi-character operators must be listed before their prefixes.
_OPERATORS = [
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "~^",
    "^~",
    "~&",
    "~|",
    "+",
    "-",
    "*",
    "/",
    "%",
    "&",
    "|",
    "^",
    "~",
    "!",
    "<",
    ">",
    "=",
    "?",
]

_PUNCT = ["(", ")", "[", "]", "{", "}", ",", ";", ":", "@", "#", "."]

_SIZED_NUMBER_RE = re.compile(r"(\d+)\s*'\s*([bdhoBDHO])\s*([0-9a-fA-F_xXzZ]+)")
_NUMBER_RE = re.compile(r"\d[\d_]*")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
_ESCAPED_IDENT_RE = re.compile(r"\\[^\s]+")


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source position."""

    kind: TokenKind
    text: str
    line: int
    column: int
    value: Optional[int] = None
    width: Optional[int] = None

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def is_op(self, op: str) -> bool:
        return self.kind is TokenKind.OPERATOR and self.text == op

    def is_punct(self, punct: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == punct

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.text!r}@{self.line}:{self.column}"


def _strip_comments(source: str) -> str:
    """Replace comments with spaces while preserving line/column positions."""
    out: List[str] = []
    i = 0
    n = len(source)
    while i < n:
        two = source[i : i + 2]
        if two == "//":
            j = source.find("\n", i)
            if j < 0:
                j = n
            out.append(" " * (j - i))
            i = j
        elif two == "/*":
            j = source.find("*/", i + 2)
            if j < 0:
                j = n
            else:
                j += 2
            chunk = source[i:j]
            out.append("".join("\n" if ch == "\n" else " " for ch in chunk))
            i = j
        else:
            out.append(source[i])
            i += 1
    return "".join(out)


class Lexer:
    """Converts Verilog source text into a token stream."""

    def __init__(self, source: str):
        self.source = source
        self._clean = _strip_comments(source)

    def tokens(self) -> List[Token]:
        """Return the complete token list, terminated by an EOF token."""
        return list(self._iter_tokens())

    def _iter_tokens(self) -> Iterator[Token]:
        text = self._clean
        pos = 0
        line = 1
        line_start = 0
        n = len(text)
        while pos < n:
            ch = text[pos]
            if ch == "\n":
                line += 1
                pos += 1
                line_start = pos
                continue
            if ch.isspace():
                pos += 1
                continue
            column = pos - line_start + 1

            match = _SIZED_NUMBER_RE.match(text, pos)
            if match:
                width = int(match.group(1))
                base_char = match.group(2).lower()
                digits = match.group(3).replace("_", "")
                base = {"b": 2, "d": 10, "h": 16, "o": 8}[base_char]
                digits = digits.replace("x", "0").replace("X", "0")
                digits = digits.replace("z", "0").replace("Z", "0")
                value = int(digits, base) if digits else 0
                yield Token(
                    TokenKind.SIZED_NUMBER,
                    match.group(0),
                    line,
                    column,
                    value=value,
                    width=width,
                )
                pos = match.end()
                continue

            match = _NUMBER_RE.match(text, pos)
            if match:
                value = int(match.group(0).replace("_", ""))
                yield Token(
                    TokenKind.NUMBER, match.group(0), line, column, value=value
                )
                pos = match.end()
                continue

            match = _ESCAPED_IDENT_RE.match(text, pos)
            if match:
                yield Token(TokenKind.IDENT, match.group(0)[1:], line, column)
                pos = match.end()
                continue

            match = _IDENT_RE.match(text, pos)
            if match:
                word = match.group(0)
                kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
                yield Token(kind, word, line, column)
                pos = match.end()
                continue

            op = self._match_fixed(text, pos, _OPERATORS)
            if op is not None:
                yield Token(TokenKind.OPERATOR, op, line, column)
                pos += len(op)
                continue

            punct = self._match_fixed(text, pos, _PUNCT)
            if punct is not None:
                yield Token(TokenKind.PUNCT, punct, line, column)
                pos += len(punct)
                continue

            raise LexerError(f"unexpected character {ch!r}", line, column)

        yield Token(TokenKind.EOF, "", line, 1)

    @staticmethod
    def _match_fixed(text: str, pos: int, candidates: List[str]) -> Optional[str]:
        for candidate in candidates:
            if text.startswith(candidate, pos):
                return candidate
        return None


def tokenize(source: str) -> List[Token]:
    """Convenience wrapper: tokenize ``source`` and return the token list."""
    return Lexer(source).tokens()
