"""The column-bundle codec: named 1-D arrays in one self-describing buffer.

Every columnar byte layout in the package is this one format: the
shared-memory transport segments (:mod:`repro.runner.shm`), the
warehouse's segment files (:mod:`repro.labeling.warehouse`) and the
alarm cache's entries (:mod:`repro.runner.cache`).  A bundle is::

    offset  0   b"MWLW"                 magic
            4   u32 little-endian       format (1)
            8   u64 little-endian       header length H
           16   H bytes of JSON         the descriptor
                zero padding to the next multiple of 64
                array blocks, each 64-byte aligned and zero-padded

The descriptor (serialized with ``sort_keys``, so equal inputs give
equal bytes) records the bundle ``kind``, one ``{name, dtype, length,
offset}`` entry per array (offsets relative to the first block),
named string ``pools``, free-form JSON ``meta`` and ``data_bytes``.

Writing is :func:`describe` (plan the :class:`Layout`) then
:func:`write` (pack into any writable buffer: a ``bytearray``, a
``SharedMemory.buf``); :func:`encode` does both into fresh bytes.
Reading is :func:`view`: zero-copy NumPy views out of any buffer (an
``np.memmap``, a mapped segment), from a layout the caller already
holds or one :func:`read_layout` parses.  :func:`read_layout` checks
the required keys and every array's alignment and extent, so a
malformed bundle raises :class:`~repro.errors.CodecError` instead of
reading past its data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.errors import CodecError

MAGIC = b"MWLW"
FORMAT = 1
#: Alignment of the data start and of every array block.
ALIGN = 64
_PREAMBLE = 16

_HEADER_KEYS = ("arrays", "data_bytes", "kind", "meta", "pools")

NamedArrays = Sequence[tuple[str, np.ndarray]]


def _padded(nbytes: int) -> int:
    return nbytes + (-nbytes) % ALIGN


@dataclass(frozen=True)
class Layout:
    """A bundle's parsed descriptor: everything a view is built from.

    Small and picklable, so a shared-memory handle carries it and
    workers view a segment without re-parsing its header.
    """

    kind: str
    #: ``(name, dtype str, length, offset from data_start)`` per array.
    arrays: tuple[tuple[str, str, int, int], ...]
    pools: Mapping[str, tuple[str, ...]]
    meta: Mapping
    data_start: int
    data_bytes: int

    @property
    def nbytes(self) -> int:
        """Bytes the whole bundle occupies."""
        return self.data_start + self.data_bytes

    def header(self) -> bytes:
        """The JSON descriptor as stored in the bundle."""
        return json.dumps(
            {
                "kind": self.kind,
                "arrays": [
                    {"name": n, "dtype": d, "length": k, "offset": o}
                    for n, d, k, o in self.arrays
                ],
                "pools": {name: list(pool) for name, pool in self.pools.items()},
                "meta": self.meta,
                "data_bytes": self.data_bytes,
            },
            sort_keys=True,
        ).encode()


def describe(
    kind: str,
    arrays: NamedArrays,
    pools: Optional[Mapping[str, Sequence[str]]] = None,
    meta: Optional[Mapping] = None,
) -> Layout:
    """Plan the layout of ``arrays`` (1-D ndarrays, stored in order)."""
    entries = []
    offset = 0
    for name, array in arrays:
        if array.ndim != 1:
            raise ValueError(f"bundle array {name!r} must be one-dimensional")
        entries.append((name, array.dtype.str, int(array.shape[0]), offset))
        offset += _padded(array.nbytes)
    layout = Layout(
        kind=kind,
        arrays=tuple(entries),
        pools={name: tuple(pool) for name, pool in (pools or {}).items()},
        meta=dict(meta or {}),
        data_start=0,
        data_bytes=offset,
    )
    return replace(layout, data_start=_padded(_PREAMBLE + len(layout.header())))


def write(buffer, layout: Layout, arrays: NamedArrays) -> None:
    """Pack ``arrays`` (as described by ``layout``) into ``buffer``.

    ``buffer`` is any writable buffer of at least ``layout.nbytes``
    bytes; padding is zeroed, so equal inputs write equal bytes.
    """
    header = layout.header()
    with memoryview(buffer) as out:
        if out.nbytes < layout.nbytes:
            raise ValueError(
                f"buffer of {out.nbytes} bytes cannot hold a "
                f"{layout.nbytes}-byte bundle"
            )
        end = _PREAMBLE + len(header)
        out[:_PREAMBLE] = (
            MAGIC + FORMAT.to_bytes(4, "little") + len(header).to_bytes(8, "little")
        )
        out[_PREAMBLE:end] = header
        out[end : layout.data_start] = bytes(layout.data_start - end)
        for (_name, dtype, length, offset), (_, array) in zip(
            layout.arrays, arrays
        ):
            start = layout.data_start + offset
            block = np.ndarray((length,), dtype=dtype, buffer=buffer, offset=start)
            block[...] = array
            del block
            nbytes = length * np.dtype(dtype).itemsize
            out[start + nbytes : start + _padded(nbytes)] = bytes(
                _padded(nbytes) - nbytes
            )


def encode(
    kind: str,
    arrays: NamedArrays,
    pools: Optional[Mapping[str, Sequence[str]]] = None,
    meta: Optional[Mapping] = None,
) -> bytearray:
    """``arrays`` packed into a fresh in-memory bundle."""
    layout = describe(kind, arrays, pools, meta)
    out = bytearray(layout.nbytes)
    write(out, layout, arrays)
    return out


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def read_layout(buffer) -> Layout:
    """Parse and validate the descriptor at the start of ``buffer``."""
    with memoryview(buffer) as raw:
        size = raw.nbytes
        if size < _PREAMBLE or bytes(raw[:4]) != MAGIC:
            raise CodecError("not a column bundle (bad magic)")
        fmt = int.from_bytes(raw[4:8], "little")
        if fmt != FORMAT:
            raise CodecError(f"unsupported bundle format {fmt}")
        header_len = int.from_bytes(raw[8:16], "little")
        if _PREAMBLE + header_len > size:
            raise CodecError("truncated bundle header")
        try:
            header = json.loads(bytes(raw[_PREAMBLE : _PREAMBLE + header_len]))
        except ValueError as exc:
            raise CodecError(f"corrupt bundle header: {exc}") from exc
    if not isinstance(header, dict):
        raise CodecError("corrupt bundle header: not an object")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise CodecError(f"bundle header lacks {missing}")
    kind, pools, meta = header["kind"], header["pools"], header["meta"]
    data_bytes = header["data_bytes"]
    if not (
        isinstance(kind, str)
        and isinstance(meta, dict)
        and isinstance(pools, dict)
        and all(
            isinstance(pool, list) and all(isinstance(s, str) for s in pool)
            for pool in pools.values()
        )
        and isinstance(header["arrays"], list)
        and _is_count(data_bytes)
    ):
        raise CodecError("bundle header has a mistyped field")
    data_start = _padded(_PREAMBLE + header_len)
    if data_start + data_bytes > size:
        raise CodecError(
            f"truncated bundle: {size} bytes, descriptor needs "
            f"{data_start + data_bytes}"
        )
    entries = []
    for entry in header["arrays"]:
        try:
            name, length, offset = entry["name"], entry["length"], entry["offset"]
            dtype = np.dtype(entry["dtype"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CodecError(f"corrupt bundle array entry {entry!r}") from exc
        if (
            not isinstance(name, str)
            or dtype.hasobject
            or not _is_count(length)
            or not _is_count(offset)
            or offset % ALIGN
            or offset + length * dtype.itemsize > data_bytes
        ):
            raise CodecError(
                f"bundle array {name!r} (offset {offset}, length {length}, "
                f"{dtype}) lies outside the {data_bytes} data bytes or is "
                "misaligned"
            )
        entries.append((name, dtype.str, length, offset))
    return Layout(
        kind=kind,
        arrays=tuple(entries),
        pools={name: tuple(pool) for name, pool in pools.items()},
        meta=meta,
        data_start=data_start,
        data_bytes=data_bytes,
    )


def view(buffer, layout: Optional[Layout] = None) -> dict[str, np.ndarray]:
    """Zero-copy ``{name: array}`` views of a bundle held in ``buffer``.

    ``layout`` skips the header parse when the caller already holds
    the bundle's descriptor (a shared-memory handle); otherwise
    :func:`read_layout` parses and validates it.  The views share the
    buffer's writability.
    """
    if layout is None:
        layout = read_layout(buffer)
    return {
        name: np.ndarray(
            (length,), dtype=dtype, buffer=buffer, offset=layout.data_start + offset
        )
        for name, dtype, length, offset in layout.arrays
    }
