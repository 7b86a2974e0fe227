"""Virtual file system: per-node namespaces, NFS shares, storage charging.

Files carry a *size* (what the storage models charge for) and an optional
*payload* -- an opaque Python object attached by whoever wrote the file.
Checkpoint images, restart scripts, and workload outputs all travel as
payloads; the simulated disk/SAN charge for their modelled sizes.

A mount table maps path prefixes to (namespace, storage) pairs, so a
checkpoint directory can live on the local disk, on the SAN via Fibre
Channel, or on an NFS re-export -- the Figure 5a/5b distinction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.errors import SyscallError
from repro.kernel.process import Description
from repro.sim.tasks import Future

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import Node


class SimFile:
    """An inode: size, payload, permissions, cache recency."""

    def __init__(self, path: str, perms: str = "rw"):
        self.path = path
        self.perms = perms
        self.size = 0
        self.payload: Any = None
        self.last_write_time: float = -1e18
        self.created = True

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SimFile {self.path} {self.size}B>"


class Namespace:
    """A flat path → inode map (one per local FS or NFS export)."""

    def __init__(self, name: str):
        self.name = name
        self.files: dict[str, SimFile] = {}

    def lookup(self, path: str) -> Optional[SimFile]:
        """Find an inode by path, or None."""
        return self.files.get(path)

    def create(self, path: str, perms: str = "rw") -> SimFile:
        """Create (or replace) the inode at ``path``."""
        f = SimFile(path, perms)
        self.files[path] = f
        return f

    def unlink(self, path: str) -> None:
        """Remove an inode (ENOENT if missing)."""
        if path not in self.files:
            raise SyscallError("ENOENT", path)
        del self.files[path]

    def rename(self, old: str, new: str) -> SimFile:
        """Atomically move an inode, replacing any existing ``new``."""
        file = self.files.pop(old, None)
        if file is None:
            raise SyscallError("ENOENT", old)
        file.path = new
        self.files[new] = file
        return file

    def listdir(self, prefix: str) -> list[str]:
        """All paths under ``prefix/``, sorted."""
        if not prefix.endswith("/"):
            prefix += "/"
        return sorted(p for p in self.files if p.startswith(prefix))


class Mount:
    """One entry of a node's mount table."""

    def __init__(self, prefix: str, namespace: Namespace, storage: str):
        #: storage is "local" | "san" (path decided by node.san_path)
        self.prefix = prefix
        self.namespace = namespace
        self.storage = storage


class MountTable:
    """Per-node path resolution; longest-prefix match."""

    def __init__(self, node: "Node", root: Namespace):
        self.node = node
        self.mounts: list[Mount] = [Mount("/", root, "local")]

    def add(self, prefix: str, namespace: Namespace, storage: str) -> None:
        """Mount a namespace at ``prefix`` on the given storage backend."""
        self.mounts.append(Mount(prefix, namespace, storage))
        self.mounts.sort(key=lambda m: len(m.prefix), reverse=True)

    def resolve(self, path: str) -> Mount:
        """Longest-prefix mount lookup for ``path``."""
        for mount in self.mounts:
            if path.startswith(mount.prefix):
                return mount
        raise SyscallError("ENOENT", path)  # pragma: no cover - "/" matches all

    # ------------------------------------------------------------------
    # Storage charging
    # ------------------------------------------------------------------
    def charge_write(self, mount: Mount, nbytes: float) -> Future:
        """Bill a write to the mount's storage device; returns its future."""
        if mount.storage == "san" and self.node.san is not None:
            return self.node.san.write(nbytes, self.node.san_path)
        return self.node.disk.write(nbytes)

    def page_cache(self, mount: Mount):
        """The write-back cache ``charge_write`` lands in (None: the SAN)."""
        if mount.storage == "san" and self.node.san is not None:
            return None
        return self.node.disk

    def charge_read(self, mount: Mount, nbytes: float, cached: bool) -> Future:
        """Bill a read (page-cache-hot or cold) to the storage device."""
        if mount.storage == "san" and self.node.san is not None:
            return self.node.san.read(nbytes, self.node.san_path)
        return self.node.disk.read(nbytes, cached=cached)


class OpenFile(Description):
    """An open regular file (shared description: offset shared after fork)."""

    def __init__(self, file: SimFile, mount: Mount, table: MountTable, flags: str):
        super().__init__()
        self.file = file
        self.mount = mount
        self.table = table
        self.flags = flags  # "r" | "w" | "a" | "rw"
        self.offset = 0 if "a" not in flags else file.size

    @property
    def writable(self) -> bool:
        """Was the file opened with write permission?"""
        return any(c in self.flags for c in "wa") or self.flags == "rw"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<OpenFile {self.file.path} @{self.offset}>"
