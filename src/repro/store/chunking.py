"""Chunking and content identity for the checkpoint image store.

A checkpoint image payload is split into fixed-size chunks that never
span a region boundary (each memory region is chunked independently, so
a region's chunk set is stable however its neighbours change).  Chunks
are keyed by a deterministic content digest derived from the simulation's
content ontology: the simulator carries no literal page bytes, so two
chunks are *defined* to hold identical bytes exactly when

* they belong to regions with the same :attr:`MemoryRegion.content_key`
  (same program, same allocation ordinal, same kind/profile/size --
  e.g. the physics tables every ParGeant4 rank builds at init), and
* they cover the same chunk index at the same write generation.

Generation 0 is the freshly-initialized content every rank shares, so
gen-0 digests dedup across processes.  Once a region has actually been
written (:attr:`MemoryRegion.written` -- creation-dirtiness alone does
not count), each store-mode checkpoint bumps the generations of the
dirty chunk prefix; bumped digests are additionally keyed on the
region's private lineage (its ``region_id``, preserved across restarts),
because two ranks writing "the same" region diverge in content even
though they started identical.  Unchanged chunks keep their digests, so
successive checkpoint generations dedup against each other: a store
generation is this repo's incremental checkpoint.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple


class ChunkRef(NamedTuple):
    """One manifest entry: a content-addressed slice of a region."""

    digest: str
    nbytes: int
    profile: str


def chunk_layout(size: int, chunk_bytes: int) -> list[int]:
    """Chunk sizes covering ``size`` bytes (last chunk may be short)."""
    if size <= 0:
        return []
    n_full, tail = divmod(size, chunk_bytes)
    return [chunk_bytes] * n_full + ([tail] if tail else [])


def chunk_digest(
    content_key: str,
    region_id: int,
    index: int,
    gen: int,
    nbytes: int,
    profile: str,
) -> str:
    """Deterministic content hash of one chunk.

    Gen 0 hashes only the shared content key (cross-rank dedup); gen > 0
    mixes in the region's private lineage so diverged writers cannot
    collide on "generation 2 of chunk 3" while holding different bytes.
    """
    lineage = content_key if gen == 0 else f"{content_key}#{region_id}"
    raw = f"{lineage}|{index}|{gen}|{nbytes}|{profile}".encode()
    return hashlib.blake2b(raw, digest_size=16).hexdigest()


def region_chunks(
    content_key: str,
    region_id: int,
    size: int,
    profile: str,
    chunk_gens: dict[int, int],
    chunk_bytes: int,
) -> list[ChunkRef]:
    """The chunk manifest of one region at its current generations."""
    refs = []
    for index, nbytes in enumerate(chunk_layout(size, chunk_bytes)):
        gen = chunk_gens.get(index, 0)
        refs.append(
            ChunkRef(
                chunk_digest(content_key, region_id, index, gen, nbytes, profile),
                nbytes,
                profile,
            )
        )
    return refs


def dirty_chunk_count(size: int, dirty_fraction: float, chunk_bytes: int) -> int:
    """How many chunks the region's dirty fraction touches (a prefix).

    The simulation tracks dirtiness as a fraction, not a page bitmap, so
    the dirty set is modeled as a deterministic prefix of the chunk list.
    """
    n = len(chunk_layout(size, chunk_bytes))
    if n == 0 or dirty_fraction <= 0.0:
        return 0
    return min(n, -(-int(round(dirty_fraction * n * 1e9)) // 10**9))


def advance_generations(region, chunk_bytes: int) -> int:
    """Bump the dirty-prefix generations of a written region.

    Called once per store-mode checkpoint (the caller guards shared
    regions against double bumps).  Returns the number of chunks bumped.
    """
    ndirty = dirty_chunk_count(region.size, region.dirty_fraction, chunk_bytes)
    for index in range(ndirty):
        region.chunk_gens[index] = region.chunk_gens.get(index, 0) + 1
    return ndirty
