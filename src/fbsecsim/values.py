"""Typed data values carried on function-block data ports and the wire."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class Variant(Enum):
    BOOL = "bool"
    INT = "int"
    STRING = "string"


# Module names for per-packet code: an Enum class read is ~10x a global on 3.10/3.11.
BOOL, INT, STRING = Variant.BOOL, Variant.INT, Variant.STRING


@dataclass(frozen=True, slots=True)
class DataValue:
    variant: Variant
    raw: bool | int | bytes

    def render(self) -> str:
        """Human/trace form: true|false, decimal, or 0x-hex."""
        if self.variant is BOOL:
            return "true" if self.raw else "false"
        if self.variant is INT:
            return str(self.raw)
        return "0x" + bytes(self.raw).hex()


def Bool(value: bool) -> DataValue:
    return DataValue(BOOL, bool(value))


def Int(value: int) -> DataValue:
    if not INT64_MIN <= value <= INT64_MAX:
        raise ValueError(f"INT value out of signed 64-bit range: {value}")
    return DataValue(INT, int(value))


def Str(value: bytes | str) -> DataValue:
    if isinstance(value, str):
        value = value.encode()
    return DataValue(STRING, bytes(value))


TRUE = Bool(True)
FALSE = Bool(False)

_ZEROS = {
    Variant.BOOL: FALSE,
    Variant.INT: Int(0),
    Variant.STRING: Str(b""),
}


def zero(variant: Variant) -> DataValue:
    """Initial latch value for an unwritten data port."""
    return _ZEROS[variant]
