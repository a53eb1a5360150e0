"""ActScript: the sandboxed action-scripting language agents emit.

Scripts are plain text programs over a small statement set (primitive
calls, ``repeat N { }``, ``loop { }``, ``if has(item, n) { } else { }``,
``wait(ticks)``, ``say("...")``) interpreted stepwise against the world.
The grammar is documented in docs/actscript.md.
"""
from .tokens import Token, tokenize
from .parse import (
    ActionProgram,
    Call,
    IfHas,
    Loop,
    ParseError,
    Repeat,
    Say,
    Wait,
    parse,
    parse_source,
    pretty_print,
)
from .table import PrimitiveSpec, PrimitiveTable, ValidationIssue, validate
from .interp import (
    ExecState,
    PrimitiveRequest,
    Request,
    SayRequest,
    WaitRequest,
    step,
)

__all__ = [
    "Token",
    "tokenize",
    "ActionProgram",
    "Call",
    "IfHas",
    "Loop",
    "ParseError",
    "Repeat",
    "Say",
    "Wait",
    "parse",
    "parse_source",
    "pretty_print",
    "PrimitiveSpec",
    "PrimitiveTable",
    "ValidationIssue",
    "validate",
    "ExecState",
    "PrimitiveRequest",
    "Request",
    "SayRequest",
    "WaitRequest",
    "step",
]
