"""Named-tensor container file.

Layout: an 8-byte little-endian header length, a UTF-8 JSON header mapping
each tensor name to {shape, dtype, byte_offset}, then a payload of
little-endian float32 values. Offsets are relative to the payload start.
There is one layout: the tensors lie back to back in sorted name order from
payload byte 0 to the end of the file, so identical inputs produce
byte-identical files. Files are written to a temporary name and renamed
into place, so a failed or killed write leaves the previous file intact.
The JSON and text files of the CLI go through `read_json_object` and
`write_text`, and `naming` puts a file's path in front of the errors of
whatever is built from it. Every JSON reader here refuses a repeated key.
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
    JSON, a repeated key, a value that is not an object, a key not in `keys`
    or an absent `required` key raises ContractError naming the file and
    `what` it is."""
    try:
        doc = _loads(Path(path).read_text(encoding="utf-8"), path, what)
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


def _loads(text: str, path, what: str):
    """`json.loads`, but a key repeated in any object raises ContractError."""

    def unique(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ContractError(f"{path}: {what} repeats key {key!r}")
            doc[key] = value
        return doc

    return json.loads(text, object_pairs_hook=unique)


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


def load_tensors(path: str | Path, *, views: bool = False) -> dict[str, np.ndarray]:
    """Read a container; arrays come back as float64, or with `views` as
    read-only float32 views of the bytes read, which a caller that copies
    them into a buffer of its own can take without a copy per tensor.

    The header entries are walked in name order, each checked against the
    file and the end of the one before it; a truncated or inconsistent file,
    a byte left over at the end, or a non-finite value raises ContractError
    naming the file and, where it applies, the tensor.
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
        header = _loads(raw[8:8 + head_len].decode("utf-8"), path, "header")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContractError(f"{path}: header is not UTF-8 JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ContractError(f"{path}: header is not a JSON object")
    base, end = 8 + head_len, 0
    out: dict[str, np.ndarray] = {}
    for name in sorted(header):
        shape = _entry(path, name, header[name], end, len(raw) - base)
        arr = np.frombuffer(raw, dtype=_DTYPE, count=math.prod(shape), offset=base + end)
        if not np.isfinite(arr).all():
            raise ContractError(f"{path}: tensor {name!r} has non-finite values")
        out[name] = arr.reshape(shape) if views else arr.reshape(shape).astype(np.float64)
        end += arr.nbytes
    if base + end != len(raw):
        raise ContractError(f"{path}: the tensors end at payload byte {end} of {len(raw) - base}")
    return out


def _entry(path, name: str, meta, start: int, payload_len: int) -> tuple[int, ...]:
    """The shape of one header entry that must start at payload byte `start`."""

    def count(v) -> bool:
        return isinstance(v, int) and not isinstance(v, bool) and v >= 0

    if not isinstance(meta, dict):
        raise ContractError(f"{path}: entry for tensor {name!r} is not an object")
    if meta.get("dtype") != "f32":
        raise ContractError(f"{path}: unsupported dtype {meta.get('dtype')!r} for {name!r}")
    shape = meta.get("shape")
    if not isinstance(shape, list) or not all(count(d) for d in shape):
        raise ContractError(f"{path}: bad shape {shape!r} for tensor {name!r}")
    offset = meta.get("byte_offset")
    if not count(offset) or offset != start:
        raise ContractError(f"{path}: tensor {name!r} must start at payload byte {start}, "
                            f"not {offset!r}")
    size = math.prod(shape) * _DTYPE.itemsize
    if start + size > payload_len:
        raise ContractError(f"{path}: tensor {name!r} needs bytes {start}..{start + size} "
                            f"but the payload has {payload_len}")
    return tuple(shape)
