"""Binary checkpoint files: the one file format, for policies
(`policy.save_policy`) and demo datasets (`data.save_dataset`).

Layout (all integers little-endian):

    bytes 0..7    magic b"TRKPOLCK"
    bytes 8..11   format version, uint32 (currently 1)
    bytes 12..19  header length L, uint64
    bytes 20..    UTF-8 JSON header of exactly L bytes
    then          one float64 little-endian blob per array, in the order
                  listed under header["arrays"]

The header records {"kind": ..., "meta": {...}, "arrays": [{"name", "shape"}]}.
JSON is dumped with sorted keys and no whitespace so identical inputs always
produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from ..errors import MissingArtifactError, SchemaMismatchError

MAGIC = b"TRKPOLCK"
VERSION = 1


def save_checkpoint(path, kind: str, meta: dict, arrays: dict) -> None:
    """Write arrays (dict order = file order) plus a JSON-serializable meta."""
    header = {
        "kind": str(kind),
        "meta": meta,
        "arrays": [{"name": n, "shape": list(np.asarray(a).shape)}
                   for n, a in arrays.items()],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for a in arrays.values():
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple:
    """Returns (kind, meta, arrays). Raises SchemaMismatchError on any
    corruption, a header of the wrong structure included."""
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"checkpoint not found: {path}", artifact=str(path))
    raw = path.read_bytes()
    if len(raw) < 20 or raw[:8] != MAGIC:
        raise SchemaMismatchError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", raw[8:12])
    if version != VERSION:
        raise SchemaMismatchError(f"{path}: unsupported checkpoint version {version}")
    (hlen,) = struct.unpack("<Q", raw[12:20])
    if len(raw) < 20 + hlen:
        raise SchemaMismatchError(f"{path}: truncated header")
    try:
        header = json.loads(raw[20:20 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaMismatchError(f"{path}: corrupt header ({exc})") from exc
    if not (isinstance(header, dict) and isinstance(header.get("kind"), str)
            and isinstance(header.get("meta"), dict)
            and isinstance(header.get("arrays"), list)):
        raise SchemaMismatchError(f"{path}: header needs a kind, a meta object and an arrays list")
    offset = 20 + hlen
    arrays = {}
    for entry in header["arrays"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in entry["shape"])):
            raise SchemaMismatchError(
                f"{path}: array entries need a name and a list of non-negative "
                f"integer dims, got {entry!r}")
        shape = tuple(entry["shape"])
        nbytes = math.prod(shape) * 8
        if len(raw) < offset + nbytes:
            raise SchemaMismatchError(f"{path}: truncated array {entry['name']}")
        arrays[entry["name"]] = np.frombuffer(
            raw[offset:offset + nbytes], dtype="<f8").astype(np.float64).reshape(shape)
        offset += nbytes
    if offset != len(raw):
        raise SchemaMismatchError(f"{path}: {len(raw) - offset} trailing bytes")
    return header["kind"], header["meta"], arrays


def check_keys(rec, keys, what: str) -> None:
    """Raise SchemaMismatchError naming the keys a meta record lacks."""
    missing = [key for key in keys if key not in rec] if isinstance(rec, dict) else list(keys)
    if missing:
        raise SchemaMismatchError(f"{what} lacks {missing}")


def check_array_names(arrays: dict, expected, what: str) -> None:
    """Raise SchemaMismatchError naming every missing and every unexpected
    array unless the names in `arrays` are exactly `expected`."""
    expected = set(expected)
    missing, unexpected = sorted(expected - arrays.keys()), sorted(arrays.keys() - expected)
    if missing or unexpected:
        raise SchemaMismatchError(
            f"{what}: missing arrays {missing}, unexpected arrays {unexpected}")
