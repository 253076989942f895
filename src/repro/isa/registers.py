"""Architectural register files of the TEPIC embedded core.

The paper fixes the register files to 32 general-purpose registers (GPRs),
32 floating-point registers (FPRs) and 32 one-bit predicate registers.
Predicate register 0 is hard-wired to *true*; the paper notes the predicate
field "most of the time is set to 'true'", which is what makes the predicate
stream highly compressible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

NUM_GPR = 32
NUM_FPR = 32
NUM_PR = 32

REGISTER_FIELD_BITS = 5


class RegisterBank(enum.Enum):
    """The three architectural register banks."""

    GPR = "r"
    FPR = "f"
    PRED = "p"

    # Singletons compared by identity; Enum's hash is a slow Python call.
    __hash__ = object.__hash__

    @property
    def size(self) -> int:
        return {
            RegisterBank.GPR: NUM_GPR,
            RegisterBank.FPR: NUM_FPR,
            RegisterBank.PRED: NUM_PR,
        }[self]


@dataclass(frozen=True, order=True)
class Register:
    """One architectural register, e.g. ``r4``, ``f0`` or ``p7``."""

    bank: RegisterBank
    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.bank.size:
            raise ValueError(
                f"register index {self.index} out of range for bank "
                f"{self.bank.name} (size {self.bank.size})"
            )

    def __str__(self) -> str:
        return f"{self.bank.value}{self.index}"

    @classmethod
    def parse(cls, text: str) -> "Register":
        """Parse ``r4`` / ``f0`` / ``p7`` back into a :class:`Register`."""
        if not text:
            raise ValueError("empty register name")
        prefix, digits = text[0], text[1:]
        for bank in RegisterBank:
            if bank.value == prefix:
                return cls(bank, int(digits))
        raise ValueError(f"unknown register bank prefix in {text!r}")


def gpr(index: int) -> Register:
    """Shorthand constructor for a general-purpose register."""
    return Register(RegisterBank.GPR, index)


def fpr(index: int) -> Register:
    """Shorthand constructor for a floating-point register."""
    return Register(RegisterBank.FPR, index)


def pred(index: int) -> Register:
    """Shorthand constructor for a predicate register."""
    return Register(RegisterBank.PRED, index)


#: Predicate register 0 is hard-wired true; unpredicated ops encode it.
TRUE_PREDICATE = pred(0)
