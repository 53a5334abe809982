"""Enclave Page Cache: the dedicated physical memory region for enclaves.

The EPC is a finite pool of 4 KiB frames.  Frames store page *contents*
(we model contents as arbitrary Python objects so applications can put
real data in pages when an experiment needs it — most workloads only
care about the access trace and leave contents as ``None``).
"""

from __future__ import annotations

from repro.errors import EpcExhausted, SgxError


class EpcFrame:
    """One physical EPC frame."""

    __slots__ = ("pfn", "contents", "in_use")

    def __init__(self, pfn):
        self.pfn = pfn
        self.contents = None
        self.in_use = False

    def __repr__(self):
        state = "used" if self.in_use else "free"
        return f"EpcFrame(pfn={self.pfn}, {state})"


class EpcAllocator:
    """Allocates physical EPC frames.

    The OS driver owns this allocator; per-enclave quotas are enforced a
    level up (in :mod:`repro.host.driver`), matching the paper's note
    that "EPC is a limited resource, and the OS may enforce a limit on
    its use to prevent one enclave from monopolizing EPC".
    """

    def __init__(self, total_pages):
        if total_pages <= 0:
            raise ValueError("EPC must contain at least one page")
        self.total_pages = total_pages
        self._frames = {}
        self._free = list(range(total_pages - 1, -1, -1))

    @property
    def free_pages(self):
        return len(self._free)

    @property
    def used_pages(self):
        return self.total_pages - len(self._free)

    def alloc(self):
        """Allocate a frame, raising :class:`EpcExhausted` when full."""
        return self.alloc_frames(1)[0]

    def alloc_frames(self, count):
        """Allocate ``count`` frames in free-list order — the frames
        ``count`` single allocations would return — or none: raises
        :class:`EpcExhausted` when fewer are free."""
        free = self._free
        if count > len(free):
            raise EpcExhausted(
                f"all {self.total_pages} EPC pages are in use" if not free
                else f"{count} EPC pages requested, {len(free)} free"
            )
        frames = self._frames
        out = []
        for _ in range(count):
            pfn = free.pop()
            frame = frames.get(pfn)
            if frame is None:
                frame = frames[pfn] = EpcFrame(pfn)
            frame.in_use = True
            frame.contents = None
            out.append(frame)
        return out

    def free(self, frame):
        """Return a frame to the pool (models EREMOVE's frame release)."""
        self.free_frames((frame,))

    def free_frames(self, frames):
        """Return distinct frames to the pool in order, or none of them:
        a frame that is not in use is a double free."""
        for frame in frames:
            if not frame.in_use:
                raise SgxError(f"double free of EPC frame {frame.pfn}")
        free = self._free
        for frame in frames:
            frame.in_use = False
            frame.contents = None
            free.append(frame.pfn)

    def frame(self, pfn):
        """Look up a frame by physical number (must be allocated)."""
        frame = self._frames.get(pfn)
        if frame is None or not frame.in_use:
            raise SgxError(f"EPC frame {pfn} is not allocated")
        return frame

    def resize(self, new_total):
        """Grow or shrink the pool (hypervisor EPC rebalancing, §5.4).

        Growth adds fresh frame numbers; shrinking requires enough free
        frames — in-use frames are never revoked (the guest must have
        ballooned them out first)."""
        if new_total < self.used_pages:
            raise SgxError(
                f"cannot shrink EPC below {self.used_pages} in-use pages"
            )
        if new_total > self.total_pages:
            self._free.extend(range(self.total_pages, new_total))
        else:
            removable = self.total_pages - new_total
            keep = [pfn for pfn in self._free if pfn < new_total]
            if len(self._free) - len(keep) < removable:
                # Some high frames are in use: revoke free low frames
                # instead (frame numbers are fungible here).
                keep = sorted(self._free)[:len(self._free) - removable]
            self._free = keep
        self.total_pages = new_total
