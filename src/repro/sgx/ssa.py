"""State save area frames.

On an asynchronous enclave exit the CPU pushes the full register
context and exception details into the current SSA frame *inside* the
enclave, then scrubs the context it exposes to the OS.  The trusted
runtime reads the SSA to learn the true faulting address — information
Autarky hides from the OS entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SgxError
from repro.sgx.params import AccessType


@dataclass
class ExitInfo:
    """EXITINFO as saved in the SSA's GPRSGX region on an AEX."""

    vector: str                 # "#PF" is the only vector we model
    vaddr: int                  # true, unmasked faulting address
    access: AccessType
    present: bool               # error-code P bit
    reason: str = ""


@dataclass
class SsaFrame:
    """One SSA frame: saved context plus exception information."""

    exitinfo: Optional[ExitInfo] = None
    #: Opaque register context token; the CPU stores the interrupted
    #: access here so ERESUME can replay the faulting instruction.
    saved_context: object = None


class SsaStack:
    """The SSA region of one TCS, managed as a stack (§2.1).

    AEX pushes a frame; ERESUME pops it.  Exhausting the stack renders
    the thread un-enterable — the condition footnote 1 of the paper
    warns the runtime to avoid, and that §5.3 uses to detect handler
    re-entrancy attacks.
    """

    def __init__(self, nssa):
        if nssa < 1:
            raise ValueError("need at least one SSA frame")
        self.nssa = nssa
        self._frames = []
        #: Frames in use.  A plain attribute that :meth:`push` and
        #: :meth:`pop` keep equal to the frame count: every fault's
        #: CPU, OS and handler steps test it.
        self.depth = 0

    def push(self, frame):
        if self.depth >= self.nssa:
            raise SgxError("SSA stack exhausted (nested AEX overflow)")
        self._frames.append(frame)
        self.depth += 1

    def pop(self):
        if not self.depth:
            raise SgxError("ERESUME with empty SSA stack")
        self.depth -= 1
        return self._frames.pop()

    def peek(self):
        """The frame the runtime inspects after re-entry (top of stack)."""
        if not self._frames:
            return None
        return self._frames[-1]
