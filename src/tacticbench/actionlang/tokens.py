"""ActScript tokenizer.  Errors are deferred: unknown characters and
unterminated strings become ``error`` tokens for the parser to report."""
from __future__ import annotations

from dataclasses import dataclass

KEYWORDS = {"repeat", "loop", "if", "has", "else", "wait", "say"}

PUNCT = {
    "{": "lbrace",
    "}": "rbrace",
    "(": "lparen",
    ")": "rparen",
    ",": "comma",
}


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | string | keyword | lbrace | ... | error | eof
    text: str
    line: int  # 1-based
    col: int  # 1-based


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":  # comment to end of line
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        start_line, start_col = line, col
        if ch in PUNCT:
            tokens.append(Token(PUNCT[ch], ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == '"':
            j = i + 1
            buf: list[str] = []
            closed = False
            while j < n:
                c = source[j]
                if c == '"':
                    closed = True
                    j += 1
                    break
                if c == "\n":
                    break
                buf.append(c)
                j += 1
            if closed:
                tokens.append(Token("string", "".join(buf), start_line, start_col))
            else:
                tokens.append(Token("error", source[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and source[i + 1].isdigit()):
            j = i + 1
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("int", source[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        tokens.append(Token("error", ch, start_line, start_col))
        i += 1
        col += 1
    tokens.append(Token("eof", "", line, col))
    return tokens
