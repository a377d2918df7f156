"""Object headers: mark word encoding and a decoded object view.

Layout (all offsets from the object's start address, which is 8-byte
aligned):

===========  =====================================================
offset 0     mark word (64-bit, encoding below)
offset 8     klass id (64-bit)
offset 16    instance fields / array length
offset 24    array elements (arrays only)
===========  =====================================================

Mark-word encoding (modelled on HotSpot's):

* bits [0:2] — state: ``0b01`` normal, ``0b11`` forwarded;
* bits [2:6] — GC age (survived MinorGC count);
* bit 6 — mark bit (live, set during MajorGC marking);
* bits [8:64) — when forwarded, the forwarding address shifted right
  by 3 (objects are 8-byte aligned).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import InvalidObjectError
from repro.heap.klass import (ARRAY_LENGTH_OFFSET, KlassDescriptor, KlassKind,
                              KlassTable)
from repro.units import WORD

#: Raw encoding constants (public for the drain loops that decode mark
#: words in place instead of building a :class:`MarkWord` per visit).
STATE_MASK = 0b11
STATE_NORMAL = 0b01
STATE_FORWARDED = 0b11
AGE_SHIFT = 2
AGE_MASK = 0b1111 << AGE_SHIFT
MARK_BIT = 1 << 6
FORWARD_SHIFT = 8
MAX_AGE = 15


@dataclass(frozen=True)
class MarkWord:
    """Immutable decoded mark word."""

    raw: int

    @staticmethod
    def fresh() -> "MarkWord":
        return MarkWord(STATE_NORMAL)

    @property
    def is_forwarded(self) -> bool:
        return (self.raw & STATE_MASK) == STATE_FORWARDED

    @property
    def forwarding_address(self) -> int:
        if not self.is_forwarded:
            raise InvalidObjectError("mark word is not forwarded")
        return (self.raw >> FORWARD_SHIFT) << 3

    @property
    def age(self) -> int:
        return (self.raw & AGE_MASK) >> AGE_SHIFT

    @property
    def is_marked(self) -> bool:
        return bool(self.raw & MARK_BIT)

    def forwarded_to(self, addr: int) -> "MarkWord":
        if addr % 8:
            raise InvalidObjectError("forwarding target must be 8-aligned")
        return MarkWord(STATE_FORWARDED | ((addr >> 3) << FORWARD_SHIFT))

    def with_age(self, age: int) -> "MarkWord":
        if not 0 <= age <= MAX_AGE:
            raise InvalidObjectError(f"age {age} out of range")
        return MarkWord((self.raw & ~AGE_MASK) | (age << AGE_SHIFT))

    def aged(self) -> "MarkWord":
        return self.with_age(min(MAX_AGE, self.age + 1))

    def marked(self) -> "MarkWord":
        return MarkWord(self.raw | MARK_BIT)

    def unmarked(self) -> "MarkWord":
        return MarkWord(self.raw & ~MARK_BIT)


@dataclass
class ObjectView:
    """A decoded object: address, klass, and layout helpers.

    The view holds no field data — reads and writes go through the heap
    buffer — it just caches the decoded header so collectors don't
    re-parse it on every touch.
    """

    addr: int
    klass: KlassDescriptor
    length: Optional[int] = None  #: element/byte count for arrays

    @property
    def size_bytes(self) -> int:
        return self.klass.instance_bytes(self.length)

    @property
    def size_words(self) -> int:
        return self.size_bytes // WORD

    @property
    def end_addr(self) -> int:
        return self.addr + self.size_bytes

    def reference_slots(self) -> Sequence[int]:
        """Absolute addresses of this object's reference slots."""
        return [self.addr + off
                for off in self.klass.reference_offsets(self.length)]

    @property
    def is_array(self) -> bool:
        return self.klass.kind.is_array

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f", len={self.length}" if self.length is not None else ""
        return f"ObjectView({self.klass.name}@{self.addr:#x}{extra})"


def decode_object(read_u64, addr: int, klasses: KlassTable) -> ObjectView:
    """Decode the object at ``addr`` using a 64-bit read callback."""
    klass_id = read_u64(addr + 8)
    klass = klasses.by_id(klass_id)
    length: Optional[int] = None
    if klass.kind.is_array:
        length = read_u64(addr + ARRAY_LENGTH_OFFSET)
    return ObjectView(addr=addr, klass=klass, length=length)
