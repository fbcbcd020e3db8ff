"""Named parameter store with Adam state, plus a binary container format.

Container layout (version 1, every integer little-endian):

    magic     4 bytes   b"LXC1"
    version   uint32    1
    meta_len  uint32    length of the UTF-8 JSON metadata blob
    meta      bytes     JSON object (sorted keys)
    n_entries uint32
    entry*    uint16 name_len | name UTF-8 | uint8 dtype (1=f64, 2=f32)
              | uint8 ndim | uint32 dim* | raw array bytes, little-endian

Round-trips are bit-exact, and identical inputs produce identical files,
so checkpoint bytes can be compared directly for determinism checks. The
same container carries precomputed per-character context vectors (entry
name = sentence id). Writers replace a container, never rewrite it in place,
because a loaded store maps its Adam moments from the file (`load_arrays`).
"""
from __future__ import annotations

import json
import math
import mmap
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import FormatError

_MAGIC = b"LXC1"
_VERSION = 1
_DTYPES = {1: np.dtype("<f8"), 2: np.dtype("<f4")}
_DTYPE_CODES = {np.dtype("float64"): 1, np.dtype("float32"): 2}


class Param:
    """One named tensor: value, gradient, Adam moment buffers and live rows.

    `grad` is the one home of the tensor's gradient: `model.batch_loss` adds
    into it and `trainer.adam_step` checks, consumes and zeroes it. A loaded
    or copied tensor allocates it on first use, so a store only read holds
    none. `live` is None for a tensor whose gradient arrives whole. For a
    table whose gradient arrives by rows, it marks the rows that have ever
    had a gradient (`mark_live`): every other row has zero gradient and zero
    moments, and Adam leaves such a row as it is.
    """

    __slots__ = ("value", "_grad", "m", "v", "live")

    def __init__(self, value: np.ndarray, m: np.ndarray | None = None,
                 v: np.ndarray | None = None, live: np.ndarray | None = None):
        self.value = value
        self._grad = None
        self.m = _zeros(value, live) if m is None else m
        self.v = _zeros(value, live) if v is None else v
        self.live = live

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = _zeros(self.value, self.live)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:   # for `p.grad += g`
        self._grad = value

    def mark_live(self, rows: np.ndarray = np.empty(0, dtype=np.intp)) -> None:
        """Mark these rows live; a loaded table's first call reads its mask from its moments."""
        if self.live is None:
            self.live = _nonzero_rows(self.m) | _nonzero_rows(self.v)
        self.live[rows] = True


def _zeros(value: np.ndarray, live: np.ndarray | None) -> np.ndarray:
    """Zeros shaped like `value`. A table's (`live` set) are filled by rows, so they get their
    own anonymous mapping: its 4 KiB pages become resident when first written and go back to
    the OS when the array is freed. np.zeros would clear a buffer that glibc serves from its
    heap, and numpy asks for 2 MiB huge pages for 4 MiB or more, so one row written can make
    2 MiB resident."""
    if live is None or not value.nbytes:   # mmap cannot map 0 bytes
        return np.zeros(value.shape, value.dtype)
    return np.frombuffer(mmap.mmap(-1, value.nbytes), value.dtype).reshape(value.shape)


def _nonzero_rows(a: np.ndarray) -> np.ndarray:
    # bits, not values: the update turns a -0.0 moment into +0.0, so such a row is live
    bits = a.reshape(len(a), math.prod(a.shape[1:])).view(f"u{a.dtype.itemsize}")
    return np.any(bits != 0, axis=1)


class ParamStore:
    """Ordered mapping name -> Param. Mutated only between batches."""

    def __init__(self):
        self._params: dict[str, Param] = {}

    def add(self, name: str, value: np.ndarray, table: bool = False) -> np.ndarray:
        """A fresh tensor with zero moments and gradient; a `table` gets its
        gradient by rows, so it starts with no live row."""
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        value = np.asarray(value, order="C")   # unlike ascontiguousarray, keeps a 0-d shape
        live = np.zeros(len(value), dtype=bool) if table else None
        self._params[name] = p = Param(value, live=live)
        p.grad = _zeros(value, live)   # made to be trained: allocate in set-up
        return value

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def value(self, name: str) -> np.ndarray:
        return self._params[name].value

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def values_with_prefix(self, prefix: str) -> dict[str, np.ndarray]:
        return {
            name[len(prefix):]: p.value
            for name, p in self._params.items()
            if name.startswith(prefix)
        }

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad[...] = 0.0

    def num_values(self) -> int:
        return sum(p.value.size for p in self._params.values())

    def copy(self) -> "ParamStore":
        """Values, moments and live-row masks; no gradient is allocated.

        A table with a live-row mask has zero moments outside its live rows,
        so only the live rows of `m` and `v` are copied, into mapped zeros (`_zeros`).
        """
        out = ParamStore()
        for name, p in self._params.items():
            if p.live is None:
                out._params[name] = Param(p.value.copy(), p.m.copy(), p.v.copy())
                continue
            rows = np.flatnonzero(p.live)
            out._params[name] = q = Param(p.value.copy(), live=p.live.copy())
            q.m[rows], q.v[rows] = p.m[rows], p.v[rows]
        return out

    def save(self, path, meta: dict | None = None) -> None:
        """Write values and Adam moments; gradients are not persisted."""
        arrays: dict[str, np.ndarray] = {}
        for name, p in self._params.items():
            arrays[name] = p.value
            arrays[name + "!m"] = p.m
            arrays[name + "!v"] = p.v
        save_arrays(path, arrays, meta)

    @classmethod
    def load(cls, path) -> tuple["ParamStore", dict]:
        """Values read, with their stored Adam moments mapped (zero where none is stored)."""
        arrays, meta = load_arrays(path, mapped=lambda name: "!" in name)   # tagging never reads them
        store = cls()
        for name, arr in arrays.items():
            if "!" not in name:
                m, v = arrays.get(name + "!m"), arrays.get(name + "!v")
                for moment in (m, v):
                    if moment is not None and (moment.shape, moment.dtype) != (arr.shape, arr.dtype):
                        raise FormatError(f"{path}: Adam moments of {name!r} do not match "
                                          f"its {arr.dtype} values of shape {arr.shape}")
                store._params[name] = Param(arr, m, v)
        return store, meta


@contextmanager
def replacing(path, mode: str = "w"):
    """A file written at `<path>.tmp` and renamed onto `path` if the block completes."""
    try:
        with open(f"{path}.tmp", mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(f"{path}.tmp", path)
    finally:
        if os.path.exists(f"{path}.tmp"):
            os.remove(f"{path}.tmp")


def save_arrays(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    meta_bytes = json.dumps(meta or {}, sort_keys=True, ensure_ascii=False).encode("utf-8")
    with replacing(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            code = _DTYPE_CODES.get(arr.dtype)
            if code is None:
                raise FormatError(f"container cannot hold dtype {arr.dtype} (entry {name!r})")
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<BB", code, arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())


def load_arrays(path, mapped=lambda name: False) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container; each array is read straight into its own aligned buffer, or if
    `mapped(name)`, is a view of one private copy-on-write mapping of the file, read when touched."""
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size

        def need(n: int) -> None:
            nonlocal left
            if n > left:
                raise FormatError(f"{path}: truncated container")
            left -= n

        def take(n: int) -> bytes:
            need(n)
            if len(data := fh.read(n)) != n:   # the file shrank while being read
                raise FormatError(f"{path}: truncated container")
            return data

        if take(4) != _MAGIC:
            raise FormatError(f"{path}: not a lexner container (bad magic)")
        (version,) = struct.unpack("<I", take(4))
        if version != _VERSION:
            raise FormatError(f"{path}: unsupported container version {version}")
        (meta_len,) = struct.unpack("<I", take(4))
        try:   # take() raises FormatError, which is not a ValueError
            meta = json.loads(take(meta_len).decode("utf-8"))
        except ValueError as exc:   # JSONDecodeError and UnicodeDecodeError
            raise FormatError(f"{path}: corrupt container metadata ({exc})") from None
        (n_entries,) = struct.unpack("<I", take(4))

        arrays: dict[str, np.ndarray] = {}
        mm = None
        for _ in range(n_entries):
            (name_len,) = struct.unpack("<H", take(2))
            try:
                name = take(name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: corrupt entry name ({exc})") from None
            code, ndim = struct.unpack("<BB", take(2))
            if code not in _DTYPES:
                raise FormatError(f"{path}: unknown dtype code {code} (entry {name!r})")
            shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(ndim))
            dtype = _DTYPES[code]
            # Python ints, so a huge header cannot wrap; checked before allocating or mapping
            need(nbytes := math.prod(shape) * dtype.itemsize)
            try:
                if nbytes and mapped(name):   # a view of the file as it is now
                    mm = mm or mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
                    arr = np.ndarray(shape, dtype, buffer=mm, offset=fh.seek(nbytes, 1) - nbytes)
                else:
                    arr = np.empty(shape, dtype=dtype)
            except ValueError as exc:   # a shape numpy cannot hold, such as (0, 2**32 - 1, 2**32 - 1)
                raise FormatError(f"{path}: bad shape {shape} (entry {name!r}): {exc}") from None
            except TypeError:   # the mapping ends before the entry: the file shrank
                raise FormatError(f"{path}: truncated container") from None
            if arr.flags.owndata and fh.readinto(arr) != arr.nbytes:   # the file shrank while being read
                raise FormatError(f"{path}: truncated container")
            arrays[name] = arr if dtype.isnative else arr.astype(dtype.newbyteorder("="))
    return arrays, meta
