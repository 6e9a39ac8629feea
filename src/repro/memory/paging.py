"""Virtual-to-physical page mapping policies.

Paper Section 4: "Access latency in modern DRAMs ... is highly
dependent on the stream of physical addresses presented to them, which
in turn depends on the virtual to physical page mappings."  A simulator
that does not run the OS cannot replicate the native machine's
mappings, and mismatched mappings change both DRAM row behaviour and
L2 conflict misses.  This is the paper's *irreducible* macro-benchmark
error source, so we model the policies explicitly:

``sequential``
    A bump allocator: pages are assigned consecutive frames in first-
    touch order.  This is what a user-level simulator (sim-alpha,
    SimpleScalar) effectively does.

``colored``
    Page colouring: the OS picks a frame whose colour (the L2 index
    bits above the page offset) matches the virtual page, eliminating
    L2 conflicts between pages that would not conflict virtually.  The
    Gibson FLASH study the paper cites found OS page colouring can
    markedly reduce cache misses; our NativeMachine uses this policy.

``hashed``
    A deterministic pseudo-random frame per page — a long-running
    machine's fragmented free list.  Useful for sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["PagingConfig", "PageMapper"]

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


@dataclass
class PagingConfig:
    page_bytes: int = 8192  # Alpha page size
    policy: str = "sequential"  # sequential | colored | hashed
    #: Number of page colours (L2 sets spanned by the index bits above
    #: the page offset).  2MB direct-mapped L2 / 8KB pages = 256 colours.
    colors: int = 256
    #: Physical memory size bound (DS-10L: 256MB).
    memory_bytes: int = 256 * 1024 * 1024
    seed: int = 0x5EED

    def __post_init__(self) -> None:
        if self.policy not in ("sequential", "colored", "hashed"):
            raise ValueError(f"unknown paging policy {self.policy!r}")
        if self.page_bytes & (self.page_bytes - 1):
            raise ValueError("page size must be a power of two")


class PageMapper:
    """First-touch page table implementing the three policies."""

    def __init__(self, config: PagingConfig | None = None):
        self.config = config or PagingConfig()
        self._page_shift = self.config.page_bytes.bit_length() - 1
        self._offset_mask = self.config.page_bytes - 1
        self._frames: Dict[int, int] = {}
        self._num_frames = self.config.memory_bytes // self.config.page_bytes
        self._next_frame = 0
        # Per-colour bump cursors for the coloured policy.
        self._color_cursor: Dict[int, int] = {}

    def translate(self, vaddr: int) -> int:
        """Physical address for ``vaddr``, allocating on first touch."""
        page = vaddr >> self._page_shift
        frame = self._frames.get(page)
        if frame is None:
            frame = self._allocate(page)
            self._frames[page] = frame
        return (frame << self._page_shift) | (vaddr & self._offset_mask)

    def _allocate(self, page: int) -> int:
        policy = self.config.policy
        if policy == "sequential":
            frame = self._next_frame
            self._next_frame = (self._next_frame + 1) % self._num_frames
            return frame
        if policy == "colored":
            color = page % self.config.colors
            cursor = self._color_cursor.get(color, 0)
            self._color_cursor[color] = cursor + 1
            # Frames of a given colour are spaced `colors` apart.
            frame = (color + cursor * self.config.colors) % self._num_frames
            return frame
        # hashed
        mixed = ((page + self.config.seed) * _GOLDEN) & _MASK64
        return (mixed >> 17) % self._num_frames
