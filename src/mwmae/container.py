"""Named-tensor container file.

Layout: an 8-byte little-endian header length, a UTF-8 JSON header mapping
each tensor name to {shape, dtype, byte_offset}, then a payload of
little-endian float32 values. Offsets are relative to the payload start.
Entries are written in sorted name order so identical inputs produce
byte-identical files. Files are written to a temporary name and renamed
into place, so a failed or killed write leaves the previous file intact.
The JSON and text files of the CLI go through `read_json_object` and
`write_text`, and `naming` puts a file's path in front of the errors of
whatever is built from it.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ContractError

_LEN_FMT = "<Q"
_DTYPE = np.dtype("<f4")


@contextlib.contextmanager
def atomic_file(path: str | Path):
    """Binary handle on a temporary file that replaces `path` on success.

    The temporary file sits in the same directory, so `os.replace` is atomic:
    readers see the old file or the whole new one. On any error the
    temporary file is removed and `path` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    """Replace `path` with UTF-8 `text` whole, or on any error leave it as it was."""
    with atomic_file(path) as fh:
        fh.write(text.encode("utf-8"))


def read_json_object(path: str | Path, what: str, keys, required=()) -> dict:
    """The JSON object in `path`: a missing file, one that is not UTF-8
    JSON, a value that is not an object, a key not in `keys` or an absent
    `required` key raises ContractError naming the file and `what` it is."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ContractError(f"{path}: {what} is missing") from None
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ContractError(f"{path}: {what} is not JSON ({e})") from None
    if not isinstance(doc, dict):
        raise ContractError(f"{path}: {what} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ContractError(f"{path}: {what} has unknown fields {unknown}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ContractError(f"{path}: {what} is missing fields {missing}")
    return doc


@contextlib.contextmanager
def naming(path: str | Path):
    """Put `path` in front of any ContractError raised inside the block."""
    try:
        yield
    except ContractError as e:
        raise ContractError(f"{path}: {e}") from None


def save_tensors(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Write arrays as float32, atomically. Values are downcast from float64;
    one that is not finite as float32, which `load_tensors` would reject,
    raises ContractError naming the file and tensor before any write."""
    if not tensors:
        raise ContractError("save_tensors: empty tensor dict")
    with np.errstate(over="ignore"):  # an overflow is reported below
        arrays = {name: np.ascontiguousarray(tensors[name], dtype=_DTYPE)
                  for name in sorted(tensors)}
    header: dict[str, dict] = {}
    offset = 0
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ContractError(f"{path}: tensor {name!r} is not finite as float32")
        header[name] = {"shape": list(arr.shape), "dtype": "f32", "byte_offset": offset}
        offset += arr.nbytes
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_file(path) as fh:
        fh.write(struct.pack(_LEN_FMT, len(head)))
        fh.write(head)
        for arr in arrays.values():
            fh.write(arr.tobytes())


def load_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a container; arrays come back as float64.

    The header and every entry are checked against the file before any data
    is used: a truncated or inconsistent file, or a non-finite value, raises
    ContractError naming the file and, where it applies, the tensor.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise ContractError(f"{path}: {len(raw)} bytes, too short for the header length")
    (head_len,) = struct.unpack_from(_LEN_FMT, raw)
    if head_len > len(raw) - 8:
        raise ContractError(
            f"{path}: header length {head_len} exceeds the {len(raw) - 8} bytes after it"
        )
    try:
        header = json.loads(raw[8:8 + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContractError(f"{path}: header is not UTF-8 JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ContractError(f"{path}: header is not a JSON object")
    base = 8 + head_len
    entries = [(*_entry(path, name, meta, len(raw) - base), name)
               for name, meta in header.items()]
    ordered = sorted(entries)
    for (start, size, _, prev), (nxt, _, _, name) in zip(ordered, ordered[1:]):
        if nxt < start + size:
            raise ContractError(f"{path}: tensor {name!r} overlaps {prev!r}")
    out: dict[str, np.ndarray] = {}
    for start, size, shape, name in entries:
        arr = np.frombuffer(raw, dtype=_DTYPE, count=size // _DTYPE.itemsize,
                            offset=base + start)
        if not np.isfinite(arr).all():
            raise ContractError(f"{path}: tensor {name!r} has non-finite values")
        out[name] = arr.reshape(shape).astype(np.float64)
    return out


def _entry(path, name: str, meta, payload_len: int) -> tuple[int, int, tuple[int, ...]]:
    """Validate one header entry; returns (byte offset, byte size, shape)."""

    def count(v) -> bool:
        return isinstance(v, int) and not isinstance(v, bool) and v >= 0

    if not isinstance(meta, dict):
        raise ContractError(f"{path}: entry for tensor {name!r} is not an object")
    if meta.get("dtype") != "f32":
        raise ContractError(f"{path}: unsupported dtype {meta.get('dtype')!r} for {name!r}")
    shape = meta.get("shape")
    if not isinstance(shape, list) or not all(count(d) for d in shape):
        raise ContractError(f"{path}: bad shape {shape!r} for tensor {name!r}")
    start = meta.get("byte_offset")
    if not count(start):
        raise ContractError(f"{path}: bad byte_offset {start!r} for tensor {name!r}")
    size = math.prod(shape) * _DTYPE.itemsize
    if start + size > payload_len:
        raise ContractError(
            f"{path}: tensor {name!r} needs bytes {start}..{start + size} "
            f"but the payload has {payload_len}"
        )
    return start, size, tuple(shape)
