"""Virtual memory: address spaces, regions, and content models.

A real checkpointer copies raw pages.  We cannot hold gigabytes of real
bytes, so each region carries a :class:`ContentProfile` -- a recipe that
can synthesize a *representative sample block* of its bytes.  Image sizes
and compression ratios are then computed from **real zlib runs on those
samples** (see :mod:`repro.core.compression`), which is what reproduces
effects like NAS/IS's near-free compression of mostly-zero sort buckets.

Regions also track a dirty fraction since the last checkpoint so that the
DejaVu-style incremental baseline (page-protection tracking) has something
honest to measure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from repro.errors import KernelError


@dataclass(frozen=True)
class ContentProfile:
    """A recipe for the statistical content of a memory region."""

    name: str
    #: Builds a representative sample of ``n`` bytes for this profile.
    sampler: Callable[[int, np.random.Generator], bytes]
    #: Human description for docs and reports.
    description: str = ""

    def sample(self, n: int, rng: np.random.Generator) -> bytes:
        """Synthesize ``n`` representative bytes of this content class."""
        data = self.sampler(n, rng)
        if len(data) != n:
            raise KernelError(f"profile {self.name}: sampler returned {len(data)} != {n}")
        return data


def _zero(n: int, rng: np.random.Generator) -> bytes:
    return bytes(n)


def _random(n: int, rng: np.random.Generator) -> bytes:
    return rng.integers(0, 256, n, dtype=np.uint8).tobytes()


def _text(n: int, rng: np.random.Generator) -> bytes:
    # English-like letter distribution: highly compressible, not constant.
    words = [b"the ", b"checkpoint ", b"process ", b"of ", b"and ", b"restart ",
             b"buffer ", b"socket ", b"data ", b"in ", b"thread ", b"kernel "]
    picks = rng.integers(0, len(words), max(n // 4, 1))
    blob = b"".join(words[i] for i in picks)
    while len(blob) < n:
        blob += blob
    return blob[:n]


def _code(n: int, rng: np.random.Generator) -> bytes:
    # Machine code: recurring instruction idioms (tiled opcode stream),
    # literal operands, and zero padding -- gzips roughly 2x, like real
    # .text sections.
    base = rng.integers(0, 24, 4096, dtype=np.uint8)
    tiles = np.tile(base, n // 4096 + 1)[:n]
    wild = rng.integers(0, 256, n, dtype=np.uint8)
    mask = rng.random(n) < 0.18
    out = np.where(mask, wild, tiles).astype(np.uint8)
    step = max(n // 256, 1)
    for i in range(0, n, step):
        out[i : i + 32] = 0
    return out.tobytes()


def _numeric(n: int, rng: np.random.Generator) -> bytes:
    # float64 arrays from simulations: mostly whole-valued state (grid
    # indices, counters, quantized fields) with a noisy minority --
    # gzips ~2x, like NAS-class working sets.
    m = max(n // 8, 1)
    vals = np.floor(np.cumsum(rng.standard_normal(m)) * 100.0)
    noisy = rng.random(m)
    mix = np.where(rng.random(m) < 0.12, noisy, vals)
    return mix.tobytes()[:n].ljust(n, b"\0")


def _sparse(n: int, rng: np.random.Generator) -> bytes:
    # Mostly zero with occasional payload -- NAS/IS bucket arrays.
    out = np.zeros(n, dtype=np.uint8)
    hot = max(n // 20, 1)
    idx = rng.integers(0, n, hot)
    out[idx] = rng.integers(1, 256, hot, dtype=np.uint8)
    return out.tobytes()


#: The profile library used by program specs and workloads.
PROFILES: dict[str, ContentProfile] = {
    p.name: p
    for p in [
        ContentProfile("zero", _zero, "untouched / zero-filled pages"),
        ContentProfile("random", _random, "incompressible (encrypted, hashed, white noise)"),
        ContentProfile("text", _text, "source text, logs, interpreter token streams"),
        ContentProfile("code", _code, "machine code and relocation tables"),
        ContentProfile("numeric", _numeric, "double-precision simulation state"),
        ContentProfile("sparse", _sparse, "mostly-zero arrays with scattered payload"),
    ]
}


class MemoryRegion:
    """One mapping in an address space (like a line of /proc/pid/maps)."""

    def __init__(
        self,
        start: int,
        size: int,
        kind: str,
        profile: ContentProfile,
        perms: str = "rw-p",
        path: Optional[str] = None,
        shared: bool = False,
        region_id: int = 0,
    ):
        if size <= 0:
            raise KernelError(f"region size must be positive, got {size}")
        #: The handle ``mmap`` returns: from the address space's counter,
        #: which is its world's (0 for a region outside any address space).
        self.region_id = region_id
        self.start = start
        self.size = size
        self.kind = kind  # code | data | heap | stack | anon | shm | lib
        self.profile = profile
        self.perms = perms
        self.path = path
        self.shared = shared
        #: Fraction of pages written since the last checkpoint [0, 1].
        self.dirty_fraction = 1.0  # everything is dirty at creation
        #: Content identity for the chunk store (repro.store).  Private
        #: default keys on region_id; AddressSpace.map_region replaces it
        #: with a program-derived key so identical allocations across
        #: ranks share chunk digests.
        self.content_key = f"r{self.region_id}"
        #: chunk index -> write generation (store mode; see store.chunking).
        self.chunk_gens: dict[int, int] = {}
        #: True once the application actually wrote here (creation
        #: dirtiness alone must not fork a region's content lineage).
        self.written = False
        #: Last ckpt_id whose store pass bumped this region's generations
        #: (guards shared regions against one bump per attached process).
        self.gen_marker = -1

    @property
    def end(self) -> int:
        """One past the region's last byte."""
        return self.start + self.size

    def touch(self, fraction: float) -> None:
        """Mark ``fraction`` of this region's pages written."""
        self.dirty_fraction = min(1.0, self.dirty_fraction + fraction)
        self.written = True

    def clean(self) -> None:
        """Reset dirty tracking (after a store-mode or DejaVu checkpoint)."""
        self.dirty_fraction = 0.0

    def clone(self, region_id: int) -> "MemoryRegion":
        """The private copy fork() makes, under its own ``region_id``
        (shared regions are aliased: see ``AddressSpace.fork_copy``)."""
        dup = MemoryRegion(
            self.start, self.size, self.kind, self.profile, self.perms, self.path,
            False, region_id,
        )
        dup.dirty_fraction = self.dirty_fraction
        dup.content_key = self.content_key
        dup.chunk_gens = dict(self.chunk_gens)
        dup.written = self.written
        dup.gen_marker = self.gen_marker
        return dup

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Region #{self.region_id} {self.kind} {self.start:#x}-{self.end:#x} "
            f"{self.size // 1024}KB {self.profile.name}>"
        )


class AddressSpace:
    """The set of mappings of one process."""

    #: Where anonymous mmaps begin (library/heap space sits below).
    MMAP_BASE = 0x7F00_0000_0000

    def __init__(self, page_bytes: int = 4096, ids: Optional[Iterator[int]] = None):
        self.page_bytes = page_bytes
        #: The world's region-id counter (a bare space counts alone).
        self._ids = ids if ids is not None else itertools.count(1)
        self.regions: list[MemoryRegion] = []
        self._next_addr = self.MMAP_BASE
        self._heap: Optional[MemoryRegion] = None
        #: Program-derived tag for content identity (set when a spec is
        #: instantiated).  While set, mapped regions get content keys of
        #: ``tag:ordinal:kind:profile:size`` -- identical programs make
        #: identical allocation sequences, so rank N and rank M of the
        #: same binary share keys.  None -> private per-region keys.
        self.content_tag: Optional[str] = None
        self._content_seq = 0

    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Total mapped bytes (what MTCP will write)."""
        return sum(r.size for r in self.regions)

    def map_region(
        self,
        size: int,
        kind: str,
        profile: ContentProfile,
        perms: str = "rw-p",
        path: Optional[str] = None,
        shared: bool = False,
        at: Optional[int] = None,
    ) -> MemoryRegion:
        """Create a page-aligned mapping; returns the new region."""
        size = self._round_up(size)
        start = at if at is not None else self._alloc(size)
        region = MemoryRegion(start, size, kind, profile, perms, path, shared, next(self._ids))
        if self.content_tag is not None:
            region.content_key = (
                f"{self.content_tag}:{self._content_seq}:{kind}:{profile.name}:{size}"
            )
        self._content_seq += 1
        self.regions.append(region)
        return region

    def attach(self, region: MemoryRegion) -> None:
        """Attach an existing (shared) region to this space."""
        self.regions.append(region)

    def unmap(self, region_id: int) -> MemoryRegion:
        """Remove a mapping by id; returns the removed region."""
        for i, region in enumerate(self.regions):
            if region.region_id == region_id:
                return self.regions.pop(i)
        raise KernelError(f"munmap: no region #{region_id}")

    def find(self, region_id: int) -> MemoryRegion:
        """Look a mapping up by id."""
        for region in self.regions:
            if region.region_id == region_id:
                return region
        raise KernelError(f"no region #{region_id}")

    def sbrk(self, delta: int, profile: ContentProfile) -> MemoryRegion:
        """Grow (or create) the heap by ``delta`` bytes with new content.

        Each growth is modelled as its own region so that different heap
        phases can carry different content profiles.
        """
        if delta <= 0:
            raise KernelError(f"sbrk delta must be positive, got {delta}")
        return self.map_region(delta, "heap", profile)

    def fork_copy(self) -> "AddressSpace":
        """The child's address space: private copied, shared aliased."""
        dup = AddressSpace(self.page_bytes, self._ids)
        dup._next_addr = self._next_addr
        dup.regions = [r if r.shared else r.clone(next(self._ids)) for r in self.regions]
        # The child's future allocations are its own content lineage.
        dup._content_seq = self._content_seq
        return dup

    # ------------------------------------------------------------------
    def _round_up(self, size: int) -> int:
        pages = -(-size // self.page_bytes)
        return pages * self.page_bytes

    def _alloc(self, size: int) -> int:
        start = self._next_addr
        self._next_addr += size + self.page_bytes  # guard page
        return start
