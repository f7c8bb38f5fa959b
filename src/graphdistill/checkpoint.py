"""Versioned binary container for named float64 parameter arrays.

Byte layout (all integers little-endian):

    offset  size  content
    0       8     magic b"GDCHKPT1"
    8       4     uint32 header length H
    12      H     UTF-8 JSON: {"version": 1,
                               "params": [{"name": str, "shape": [int, ...]}, ...]}
    12+H    ...   for each param, in header order: prod(shape) float64
                  values, little-endian, row-major, no padding

Readers must reject unknown magic or version, a file cut anywhere, and
bytes after the last parameter. The header's shapes are checked against
the bytes left in the file before any parameter is read, so a header that
declares huge parameters allocates nothing.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ArtifactMissingError, FormatError

MAGIC = b"GDCHKPT1"
VERSION = 1


def save_checkpoint(path, params: dict[str, np.ndarray]) -> None:
    entries = [{"name": k, "shape": list(np.asarray(v).shape)} for k, v in params.items()]
    header = json.dumps({"version": VERSION, "params": entries}).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for v in params.values():
            fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def _left(fh) -> int:
    """Bytes of the open file after the current position."""
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _read_exact(fh, size: int, path: Path, what: str) -> bytes:
    if size > _left(fh):  # checked first: a read of ``size`` bytes allocates them
        raise FormatError(f"{path}: truncated {what}")
    return fh.read(size)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    path = Path(path)
    if not path.is_file():
        raise ArtifactMissingError(path)
    with path.open("rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4, path, "header length"))
        try:
            header = json.loads(_read_exact(fh, hlen, path, "header").decode("utf-8"))
            if header.get("version") != VERSION:
                raise FormatError(f"{path}: unsupported version {header.get('version')}")
            entries = []
            for entry in header["params"]:
                shape = tuple(int(d) for d in entry["shape"])
                if any(d < 0 for d in shape):
                    raise ValueError(f"negative dimension in {shape}")
                entries.append((str(entry["name"]), shape))
        except (UnicodeDecodeError, json.JSONDecodeError, AttributeError, KeyError,
                TypeError, ValueError) as exc:
            raise FormatError(f"{path}: malformed header ({exc})") from exc
        sizes = [8 * math.prod(shape) for _, shape in entries]  # Python ints: no overflow
        declared, left = sum(sizes), _left(fh)
        if declared > left:
            cut = next(name for (name, _), end in zip(entries, itertools.accumulate(sizes))
                       if end > left)
            raise FormatError(f"{path}: truncated data for {cut}: the header declares "
                              f"{declared} bytes of parameters, {left} follow it")
        if declared < left:
            raise FormatError(f"{path}: trailing bytes after the last parameter: the header "
                              f"declares {declared} bytes of parameters, {left} follow it")
        params = {}
        for (name, shape), size in zip(entries, sizes):
            values = np.frombuffer(fh.read(size), dtype="<f8").astype(np.float64)
            try:  # an empty shape may still name dimensions numpy cannot hold
                params[name] = values.reshape(shape)
            except ValueError as exc:
                raise FormatError(f"{path}: parameter {name!r} has shape {shape}: {exc}") from None
    return params
