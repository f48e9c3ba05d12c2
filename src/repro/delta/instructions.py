"""Delta instruction model: COPY from the reference, ADD literal bytes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.exceptions import DeltaFormatError


@dataclass(frozen=True)
class Copy:
    """Copy ``length`` bytes starting at ``offset`` of the reference."""

    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError(f"offset must be non-negative, got {self.offset}")
        if self.length <= 0:
            raise ValueError(f"length must be positive, got {self.length}")

    @classmethod
    def decoded(cls, offset: int, length: int) -> "Copy":
        """A copy read off the wire: bad fields raise ``DeltaFormatError``."""
        if offset < 0 or length <= 0:
            raise DeltaFormatError(
                f"copy of {length} bytes at offset {offset} is malformed"
            )
        return cls(offset, length)


@dataclass(frozen=True)
class Add:
    """Emit literal bytes verbatim."""

    data: bytes

    def __post_init__(self) -> None:
        if not self.data:
            raise ValueError("Add instruction must carry at least one byte")


Instruction = Union[Copy, Add]


def apply_instructions(reference: bytes, instructions: list[Instruction]) -> bytes:
    """Reconstruct a target file from a reference and an instruction list."""
    out = bytearray()
    for instruction in instructions:
        if isinstance(instruction, Copy):
            end = instruction.offset + instruction.length
            if end > len(reference):
                raise DeltaFormatError(
                    f"copy [{instruction.offset}, {end}) exceeds reference "
                    f"length {len(reference)}"
                )
            out += reference[instruction.offset : end]
        elif isinstance(instruction, Add):
            out += instruction.data
        else:
            raise DeltaFormatError(f"unknown instruction {instruction!r}")
    return bytes(out)


def instructions_cover(instructions: list[Instruction]) -> int:
    """Total number of output bytes the instruction list produces."""
    total = 0
    for instruction in instructions:
        if isinstance(instruction, Copy):
            total += instruction.length
        else:
            total += len(instruction.data)
    return total
