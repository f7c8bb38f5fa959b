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
bytes after the last parameter.
"""

from __future__ import annotations

import json
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


def _read_exact(fh, size: int, path: Path, what: str) -> bytes:
    buf = fh.read(size)
    if len(buf) != size:
        raise FormatError(f"{path}: truncated {what}")
    return buf


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
        params = {}
        for name, shape in entries:
            count = int(np.prod(shape)) if shape else 1
            buf = _read_exact(fh, count * 8, path, f"data for {name}")
            params[name] = np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after the last parameter")
    return params
