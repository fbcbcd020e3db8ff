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
name = sentence id).
"""
from __future__ import annotations

import json
import math
import os
import struct

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
        self.m = np.zeros(value.shape, value.dtype) if m is None else m
        self.v = np.zeros(value.shape, value.dtype) if v is None else v
        self.live = live

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            # np.zeros, unlike zeros_like, leaves a large buffer's pages untouched until written
            self._grad = np.zeros(self.value.shape, self.value.dtype)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:   # for `p.grad += g`
        self._grad = value

    def mark_live(self, rows: np.ndarray) -> None:
        if self.live is None:   # first rows into a loaded or copied table: read its moments
            self.live = _nonzero_rows(self.m) | _nonzero_rows(self.v)
        self.live[rows] = True


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
        value = np.ascontiguousarray(value)
        live = np.zeros(len(value), dtype=bool) if table else None
        self._params[name] = p = Param(value, live=live)
        p.grad = np.zeros(value.shape, value.dtype)   # made to be trained: allocate in set-up
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
        so only the live rows of `m` and `v` are copied, into zeroed arrays.
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
        """Values with their stored Adam moments (zero where none is stored)."""
        arrays, meta = load_arrays(path)
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


def save_arrays(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    meta_bytes = json.dumps(meta or {}, sort_keys=True, ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
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


def load_arrays(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container; each array is read straight into its own buffer."""
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size

        def need(n: int) -> None:
            nonlocal left
            if n > left:
                raise FormatError(f"{path}: truncated container")
            left -= n

        def take(n: int) -> bytes:
            need(n)
            return fh.read(n)

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
            # Python ints, so a huge header cannot wrap; checked before allocating
            need(math.prod(shape) * dtype.itemsize)
            try:
                arr = np.empty(shape, dtype=dtype)
            except ValueError as exc:   # a shape numpy cannot hold, such as (0, 2**32 - 1, 2**32 - 1)
                raise FormatError(f"{path}: bad shape {shape} (entry {name!r}): {exc}") from None
            if fh.readinto(arr) != arr.nbytes:   # the file shrank while being read
                raise FormatError(f"{path}: truncated container")
            arrays[name] = arr if dtype.isnative else arr.astype(dtype.newbyteorder("="))
    return arrays, meta
