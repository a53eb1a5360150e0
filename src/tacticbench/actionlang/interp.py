"""Stepwise ActScript interpreter.

An ``ExecState`` is one agent's runtime: it runs its loaded program as a
Python generator, and ``step`` resumes it up to the next primitive/wait/say
request.  ``loop { }`` passes that produce no request yield an implicit
1-tick wait so interpretation always makes forward progress.  A primitive
failure reported through ``report_error`` aborts the program with the
environment feedback string.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Generator, Optional, Union

from .parse import ActionProgram, Call, IfHas, Loop, Repeat, Say, Statement, Wait

_ITEM_ID = re.compile(r"^[a-z_][a-z0-9_]*$")


@dataclass
class PrimitiveRequest:
    name: str
    args: list


@dataclass
class WaitRequest:
    ticks: int


@dataclass
class SayRequest:
    text: str


Request = Union[PrimitiveRequest, WaitRequest, SayRequest]


class _ProgramError(Exception):
    """Ends the whole program with status ``error``."""


class ExecState:
    """One agent's ActScript runtime.

    ``load`` starts a program (status ``running``); it ends ``done`` or, on
    a runtime error or a failure passed to ``report_error``, ``error``.
    With nothing loaded the status is ``done``.  Idle ticks charged with
    ``charge_idle`` wait in ``pending_idle`` for the team system to serve
    them as one wait before the program resumes.
    """

    def __init__(self, program: Optional[ActionProgram] = None) -> None:
        self.status = "done"  # running | done | error
        self.error_message: Optional[str] = None
        self.pending_idle = 0
        self._requests: Optional[Generator[Request, None, bool]] = None
        self._view = None  # the view of the step in progress
        if program is not None:
            self.load(program)

    def load(self, program: ActionProgram) -> None:
        self.status = "running"
        self.error_message = None
        self._requests = self._block(program.statements)

    def report_error(self, message: str) -> None:
        self.status = "error"
        self.error_message = message

    def charge_idle(self, ticks: int) -> None:
        if ticks > 0:
            self.pending_idle += ticks

    def _block(self, body: list[Statement]) -> Generator[Request, None, bool]:
        """Runs ``body`` once; returns whether it yielded a request."""
        produced = False
        for stmt in body:
            if isinstance(stmt, Call):
                yield PrimitiveRequest(stmt.name, list(stmt.args))
                produced = True
            elif isinstance(stmt, Wait):
                yield WaitRequest(stmt.ticks)
                produced = True
            elif isinstance(stmt, Say):
                yield SayRequest(stmt.text)
                produced = True
            elif isinstance(stmt, Repeat):
                if stmt.body:
                    for _ in range(stmt.count):
                        produced = (yield from self._block(stmt.body)) or produced
            elif isinstance(stmt, Loop):
                while True:
                    if not (yield from self._block(stmt.body)):
                        # request-free pass: burn a tick instead of spinning
                        yield WaitRequest(1)
            elif isinstance(stmt, IfHas):
                if not _ITEM_ID.match(stmt.item):
                    raise _ProgramError(f"has() called with malformed item id {stmt.item!r}")
                if self._view.inventory.count(stmt.item) >= stmt.count:
                    branch = stmt.then
                else:
                    branch = stmt.otherwise
                produced = (yield from self._block(branch)) or produced
            else:
                raise _ProgramError(f"unknown statement {stmt!r}")
        return produced


def step(state: ExecState, view) -> Optional[Request]:
    """Advance to the next request; None when the program is done/errored.

    ``view`` supplies the episode clock (``tick`` / ``duration``) and the
    inventory consulted by ``if has(...)``.
    """
    if state.status != "running":
        return None
    if view.tick >= view.duration:
        state.status = "done"
        return None
    state._view = view
    try:
        return next(state._requests)
    except StopIteration:
        state.status = "done"
    except _ProgramError as exc:
        state.report_error(str(exc))
    return None
