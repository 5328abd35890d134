"""Persistent versioned index snapshots with mmap warm-start.

The paper's economics are build-once / query-forever: the expensive
AppRI (or exact / peeling) construction is amortized over every later
query.  This module makes that amortization survive process restarts:
a built index is written once as an atomic, checksummed *snapshot*
file and mapped back with :func:`numpy.memmap` — a cold process
reaches its first correct top-k answer in milliseconds instead of
re-running the build (``benchmarks/bench_snapshot.py`` measures the
gap).

File format (version 1)
-----------------------

One file, magic ``RPSNAP01``::

    offset 0   magic                    8 bytes
    offset 8   header_length            uint64 little-endian
    offset 16  header_crc32             uint32 little-endian
    offset 20  header                   UTF-8 JSON, space-padded
    ...        zero padding to ``data_start`` (64-byte aligned)
    ...        buffer 0, buffer 1, ...  raw C-order array bytes,
                                        each 64-byte aligned

The JSON header carries ``format_version``, the registered ``kind``,
free-form ``meta`` scalars (index parameters plus anything the caller
adds, e.g. the catalog's ``table``/``table_version`` stamp),
``data_start``/``file_size`` for truncation detection, and one
descriptor per buffer (name, dtype, shape, offset relative to
``data_start``, byte length, CRC-32).  Everything needed to reject a
damaged or incompatible file is checked before any index object is
constructed:

* wrong magic / short header → :class:`SnapshotError`;
* header CRC mismatch → :class:`SnapshotError`;
* ``format_version`` != the library's → :class:`SnapshotError`
  (snapshots are versioned, never silently reinterpreted);
* actual file size != recorded ``file_size`` → :class:`SnapshotError`;
* per-buffer CRC mismatch (unless ``verify=False``) →
  :class:`SnapshotError`.

Writes are atomic: the file is assembled under a temporary name in the
target directory, fsynced, then :func:`os.replace`-d over the
destination, so readers only ever see a complete old or complete new
snapshot — never a torn one.

Zero-copy warm start
--------------------

With ``mmap=True`` (the default) every buffer — including the
layer-packed query slab — is an :class:`numpy.memmap` view of the
file, opened read-only.  Nothing is materialized up front; the first
query faults in exactly the slab prefix it scans.  Restorers bypass
``__init__`` (no rebuild, no re-sort, no slab re-pack), which is what
makes warm start O(header) instead of O(build): the layered kinds'
buffers (``points``, ``layers``, ``order``, ``offsets``, ``slab``) are
the fields of one :class:`~repro.indexes.robust.LayeredSlab`, adopted
as they are.

Registered kinds
----------------

``robust`` (:class:`~repro.indexes.robust.RobustIndex`),
``exact-robust`` (:class:`~repro.indexes.robust.ExactRobustIndex`),
``onion`` / ``shell`` (:class:`~repro.indexes.onion.OnionIndex` /
:class:`~repro.indexes.onion.ShellIndex`),
and ``dynamic-slab``
(:class:`~repro.indexes.dynamic.DynamicRobustIndex`, its serving slab
plus staleness and generation).  Each class serializes itself through
its public ``export_state()`` / ``from_state(arrays, meta)`` pair; new
index classes join via :func:`register_snapshot_kind`.

Two released tags are *restore-only*: ``dynamic-robust`` and
``dynamic-layers`` files (written before the dynamic index kept only
its slab, by the index and by its since-removed layer maintainer) hold
every row inserted since the last build, an alive mask and
uncompensated layers.  They load as a ``DynamicRobustIndex`` packed
once from their live rows; saving always writes ``dynamic-slab``.

Counters/timers: ``snapshot.saves`` / ``snapshot.loads`` /
``snapshot.bytes_written`` / ``snapshot.bytes_read`` and the
``snapshot.save`` / ``snapshot.load`` timers land on any active
:mod:`repro.obs` collector.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .. import obs

__all__ = [
    "SnapshotError",
    "SnapshotSpec",
    "register_snapshot_kind",
    "registered_kinds",
    "save_snapshot",
    "load_snapshot",
    "read_snapshot_header",
    "snapshot_info",
    "MAGIC",
    "FORMAT_VERSION",
]

MAGIC = b"RPSNAP01"
FORMAT_VERSION = 1

#: Alignment (bytes) of the data section and of every buffer within it.
_ALIGN = 64
#: magic + header_length + header_crc32.
_PREAMBLE = struct.Struct("<8sQI")


class SnapshotError(ValueError):
    """A snapshot file is damaged, truncated, or incompatible."""


@dataclass(frozen=True)
class SnapshotSpec:
    """How one class serializes: a kind tag plus export/restore hooks.

    ``export(obj)`` returns ``(arrays, meta)`` — named numpy arrays and
    JSON-safe scalars; ``restore(arrays, meta)`` rebuilds the object
    without recomputing anything (arrays may be read-only memmaps).
    A restore-only kind (a released tag no class writes any more) has
    ``export=None``.
    """

    kind: str
    cls: type
    export: Callable
    restore: Callable


_SPECS: dict[str, SnapshotSpec] = {}


def register_snapshot_kind(
    kind: str, cls: type, export: Callable, restore: Callable
) -> None:
    """Register a class with the snapshot machinery.

    ``kind`` is the stable on-disk tag (never rename a released one);
    registration is by *exact* class, so subclasses register their own
    kind (``ExactRobustIndex`` is not a ``robust`` snapshot).  A class
    may also register restore-only kinds (``export=None``) for files
    of older tags; it is saved under its one kind with an exporter.
    """
    if kind in _SPECS and _SPECS[kind].cls is not cls:
        raise ValueError(f"snapshot kind {kind!r} already registered")
    _SPECS[kind] = SnapshotSpec(kind, cls, export, restore)


def registered_kinds() -> dict[str, type]:
    """Mapping of registered kind tags to their classes."""
    return {kind: spec.cls for kind, spec in _SPECS.items()}


def _spec_for(obj) -> SnapshotSpec:
    for spec in _SPECS.values():
        if type(obj) is spec.cls and spec.export is not None:
            return spec
    raise SnapshotError(
        f"no snapshot support registered for {type(obj).__name__}; "
        f"known kinds: {sorted(_SPECS)}"
    )


def _align_up(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def _buffer_bytes(array: np.ndarray) -> np.ndarray:
    """The array as flat contiguous bytes (copying only if needed)."""
    contiguous = np.ascontiguousarray(array)
    return contiguous.view(np.uint8).reshape(-1)


def save_snapshot(obj, path, extra_meta: dict | None = None) -> dict:
    """Atomically write ``obj`` as a snapshot file; returns the header.

    ``extra_meta`` entries are merged into the header's ``meta`` dict
    (the catalog stamps ``table`` and ``table_version`` here so stale
    snapshots are recognizable).  The write goes to a temporary file in
    the destination directory and is renamed into place, so a crash or
    a concurrent reader never observes a partial snapshot.
    """
    path = Path(path)
    with obs.timed("snapshot.save"):
        spec = _spec_for(obj)
        arrays, meta = spec.export(obj)
        if extra_meta:
            meta = {**meta, **extra_meta}

        descriptors = []
        flats = []
        offset = 0
        for name, array in arrays.items():
            array = np.asarray(array)
            if array.dtype.hasobject:
                raise SnapshotError(
                    f"buffer {name!r} has object dtype; snapshots hold "
                    "plain numeric/bool buffers only"
                )
            flat = _buffer_bytes(array)
            offset = _align_up(offset)
            descriptors.append(
                {
                    "name": name,
                    "dtype": array.dtype.str,
                    "shape": list(array.shape),
                    "offset": offset,
                    "nbytes": int(flat.nbytes),
                    "crc32": zlib.crc32(flat),
                }
            )
            flats.append((offset, flat))
            offset += flat.nbytes

        header = {
            "format_version": FORMAT_VERSION,
            "kind": spec.kind,
            "created_unix": time.time(),
            "meta": meta,
            "buffers": descriptors,
            "data_start": 0,
            "file_size": 0,
        }
        try:
            draft = json.dumps(header).encode("utf-8")
        except TypeError as exc:
            raise SnapshotError(
                f"snapshot meta for {spec.kind!r} is not JSON-serializable: "
                f"{exc}"
            ) from exc
        # data_start/file_size change the header's own length, so pad
        # the JSON to a fixed reserved size (json.loads tolerates the
        # trailing whitespace) and compute the layout against that.
        header_len = len(draft) + 64
        data_start = _align_up(_PREAMBLE.size + header_len)
        header["data_start"] = data_start
        header["file_size"] = data_start + offset
        encoded = json.dumps(header).encode("utf-8")
        if len(encoded) > header_len:  # pragma: no cover - defensive
            raise SnapshotError("snapshot header layout overflow")
        encoded += b" " * (header_len - len(encoded))

        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                fh.write(
                    _PREAMBLE.pack(MAGIC, header_len, zlib.crc32(encoded))
                )
                fh.write(encoded)
                for buf_offset, flat in flats:
                    fh.seek(data_start + buf_offset)
                    fh.write(flat.data)
                fh.truncate(header["file_size"])
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # a failure above left the temp file behind
                tmp.unlink()
    obs.inc("snapshot.saves")
    obs.inc("snapshot.bytes_written", header["file_size"])
    return header


def read_snapshot_header(path) -> dict:
    """Parse and validate a snapshot's header without touching buffers.

    Raises :class:`SnapshotError` on bad magic, a damaged or truncated
    header, or an unsupported format version.  Does *not* verify
    buffer checksums (that is :func:`load_snapshot`'s job).
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            preamble = fh.read(_PREAMBLE.size)
            if len(preamble) < _PREAMBLE.size:
                raise SnapshotError(f"{path}: truncated snapshot preamble")
            magic, header_len, header_crc = _PREAMBLE.unpack(preamble)
            if magic != MAGIC:
                raise SnapshotError(f"{path}: not a repro snapshot file")
            encoded = fh.read(header_len)
    except OSError as exc:
        raise SnapshotError(f"{path}: unreadable snapshot: {exc}") from exc
    if len(encoded) < header_len:
        raise SnapshotError(f"{path}: truncated snapshot header")
    if zlib.crc32(encoded) != header_crc:
        raise SnapshotError(f"{path}: snapshot header checksum mismatch")
    try:
        header = json.loads(encoded.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"{path}: undecodable snapshot header") from exc
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"{path}: snapshot format version {version!r} is not "
            f"supported (this build reads version {FORMAT_VERSION})"
        )
    if header.get("kind") not in _SPECS:
        raise SnapshotError(
            f"{path}: unknown snapshot kind {header.get('kind')!r}; "
            f"known: {sorted(_SPECS)}"
        )
    return header


def _load_buffers(path: Path, header: dict, mmap: bool, verify: bool) -> dict:
    data_start = int(header["data_start"])
    actual = os.path.getsize(path)
    if actual != int(header["file_size"]):
        raise SnapshotError(
            f"{path}: truncated snapshot "
            f"({actual} bytes on disk, {header['file_size']} recorded)"
        )
    arrays: dict[str, np.ndarray] = {}
    for desc in header["buffers"]:
        dtype = np.dtype(desc["dtype"])
        shape = tuple(desc["shape"])
        offset = data_start + int(desc["offset"])
        if mmap:
            array = np.memmap(
                path, dtype=dtype, mode="r", offset=offset, shape=shape
            )
        else:
            with open(path, "rb") as fh:
                fh.seek(offset)
                array = np.fromfile(
                    fh, dtype=dtype, count=int(np.prod(shape, dtype=np.int64))
                ).reshape(shape)
        if verify:
            checksum = zlib.crc32(_buffer_bytes(array))
            if checksum != desc["crc32"]:
                raise SnapshotError(
                    f"{path}: buffer {desc['name']!r} checksum mismatch "
                    "(corrupted snapshot)"
                )
        arrays[desc["name"]] = array
    return arrays


def load_snapshot(path, mmap: bool = True, verify: bool = True):
    """Restore the object stored at ``path``.

    ``mmap=True`` maps every buffer read-only and zero-copy (the warm
    start path); ``mmap=False`` reads them into ordinary arrays.
    ``verify=True`` checks each buffer's CRC-32 before construction —
    pass ``verify=False`` to skip the pass over the bytes when the file
    is trusted (e.g. written moments ago by the same process).
    """
    path = Path(path)
    with obs.timed("snapshot.load"):
        header = read_snapshot_header(path)
        arrays = _load_buffers(path, header, mmap=mmap, verify=verify)
        obj = _SPECS[header["kind"]].restore(arrays, header["meta"])
    obs.inc("snapshot.loads")
    obs.inc("snapshot.bytes_read", int(header["file_size"]))
    return obj


def snapshot_info(path) -> dict:
    """Human-oriented summary of a snapshot file (header + sizes)."""
    path = Path(path)
    header = read_snapshot_header(path)
    buffers = {
        d["name"]: {
            "dtype": d["dtype"],
            "shape": tuple(d["shape"]),
            "nbytes": d["nbytes"],
            "crc32": d["crc32"],
        }
        for d in header["buffers"]
    }
    spec = _SPECS.get(header["kind"])
    points = buffers.get("points", {}).get("shape", (0, 0))
    offsets = buffers.get("offsets", {}).get("shape")
    if offsets is None:
        # Restore-only dynamic files carry raw layer labels, not
        # offsets; the deepest live layer is in the meta (None for
        # files older than that key).
        n_layers = header["meta"].get("n_layers")
    else:
        n_layers = max(0, offsets[0] - 1)
    return {
        "path": str(path),
        "kind": header["kind"],
        "class": spec.cls.__name__ if spec is not None else "unregistered",
        "format_version": header["format_version"],
        "created_unix": header["created_unix"],
        "file_size": header["file_size"],
        "n_points": points[0],
        "dimensions": points[1] if len(points) > 1 else 0,
        "n_layers": n_layers,
        "meta": dict(header["meta"]),
        "buffers": buffers,
    }


# ---------------------------------------------------------------------------
# Registrations for the shipped index classes
# ---------------------------------------------------------------------------


def _register_builtin_kinds() -> None:
    from ..indexes.dynamic import DynamicRobustIndex
    from ..indexes.onion import OnionIndex, ShellIndex
    from ..indexes.robust import ExactRobustIndex, RobustIndex

    for kind, cls in (
        ("robust", RobustIndex),
        ("exact-robust", ExactRobustIndex),
        ("onion", OnionIndex),
        ("shell", ShellIndex),
        ("dynamic-slab", DynamicRobustIndex),
    ):
        register_snapshot_kind(kind, cls, cls.export_state, cls.from_state)
    for kind in ("dynamic-robust", "dynamic-layers"):
        register_snapshot_kind(
            kind, DynamicRobustIndex, None,
            DynamicRobustIndex.from_legacy_state,
        )


_register_builtin_kinds()
