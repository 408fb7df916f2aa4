"""Named-tensor container: format layout and round trips."""

import errno
import json
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwmae import container
from mwmae.container import atomic_file, load_tensors, naming, read_json_object, save_tensors
from mwmae.errors import ContractError
from mwmae.model import MaeParams, load_checkpoint, save_checkpoint

from _toy import tiny_config


def test_roundtrip_within_f32(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "embed.w": rng.normal(size=(4, 8)),
        "mask_token": rng.normal(size=(8,)),
        "scalarish": rng.normal(size=(1,)),
    }
    path = tmp_path / "t.bin"
    save_tensors(path, tensors)
    back = load_tensors(path)
    assert set(back) == set(tensors)
    for k, v in tensors.items():
        assert back[k].dtype == np.float64
        np.testing.assert_allclose(back[k], v, atol=1e-6)
        assert back[k].shape == v.shape


def test_views_are_the_stored_float32_values(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "t.bin"
    save_tensors(path, {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(5,))})
    copies, views = load_tensors(path), load_tensors(path, views=True)
    assert list(views) == list(copies) == ["a", "b"]
    for name, v in views.items():
        assert v.dtype == np.dtype("<f4") and not v.flags.writeable
        np.testing.assert_array_equal(v.astype(np.float64), copies[name])
    # views of the bytes read, back to back as in the file, not copies
    assert views["b"].ctypes.data == views["a"].ctypes.data + views["a"].nbytes


@pytest.mark.parametrize("tail, match", [(b"\0", "end at payload byte"),
                                         (None, "non-finite")])
def test_views_get_every_check(tmp_path, tail, match):
    path = tmp_path / "t.bin"
    save_tensors(path, {"a": np.ones(2)})
    raw = path.read_bytes()
    path.write_bytes(raw + tail if tail else raw[:-4] + np.float32(np.inf).tobytes())
    with pytest.raises(ContractError, match=match) as info:
        load_tensors(path, views=True)
    assert str(path) in str(info.value)


def test_header_layout(tmp_path):
    path = tmp_path / "t.bin"
    save_tensors(path, {"b": np.ones((2, 2)), "a": np.zeros(3)})
    raw = path.read_bytes()
    (head_len,) = struct.unpack("<Q", raw[:8])
    header = json.loads(raw[8:8 + head_len].decode("utf-8"))
    assert header["a"] == {"shape": [3], "dtype": "f32", "byte_offset": 0}
    assert header["b"] == {"shape": [2, 2], "dtype": "f32", "byte_offset": 12}
    payload = raw[8 + head_len:]
    assert len(payload) == (3 + 4) * 4
    vals = np.frombuffer(payload, dtype="<f4")
    np.testing.assert_array_equal(vals, [0, 0, 0, 1, 1, 1, 1])


def test_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"x": rng.normal(size=(5,)), "y": rng.normal(size=(2, 3))}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_tensors(p1, tensors)
    save_tensors(p2, dict(reversed(list(tensors.items()))))
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_rejected(tmp_path):
    with pytest.raises(ContractError):
        save_tensors(tmp_path / "t.bin", {})


class TestReadJsonObject:
    @pytest.mark.parametrize("doc, match", [
        ({"a": 1, "c": 2, "b": 3}, "thing has unknown fields \\['b', 'c'\\]"),
        ({}, "thing is missing fields \\['a'\\]"),
        ({"b": 1}, "thing has unknown fields \\['b'\\]"),  # unknown is reported first
    ])
    def test_key_set_is_checked(self, tmp_path, doc, match):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ContractError, match=match) as info:
            read_json_object(path, "thing", keys=("a",), required=("a",))
        assert str(info.value).startswith(f"{path}: ")

    def test_keys_in_the_set_pass(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"x": [1], "y": null}')
        assert read_json_object(path, "thing", keys=("x", "y", "z"), required=("y",)) == {
            "x": [1], "y": None}

    @pytest.mark.parametrize("text, key", [
        ('{"a": 1, "a": 2}', "a"),
        ('{"a": {"x": [{"y": 1, "y": 1}]}}', "y"),
    ])
    def test_repeated_key_at_any_depth_is_refused(self, tmp_path, text, key):
        path = tmp_path / "t.json"
        path.write_text(text)
        with pytest.raises(ContractError) as info:
            read_json_object(path, "thing", keys=("a",))
        assert str(info.value) == f"{path}: thing repeats key {key!r}"


class TestNaming:
    def test_prefixes_a_contract_error(self):
        with pytest.raises(ContractError) as info:
            with naming("dir/f.json"):
                raise ContractError("field 'x' must be int, got 'a'")
        assert str(info.value) == "dir/f.json: field 'x' must be int, got 'a'"
        assert info.value.__cause__ is None and info.value.__suppress_context__

    def test_other_errors_and_success_pass_through(self):
        with pytest.raises(KeyError):
            with naming("f.json"):
                raise KeyError("k")
        with naming("f.json"):
            value = 3
        assert value == 3


class TestAtomicWrites:
    """A write that fails part-way leaves the previous file whole and no
    temporary file behind."""

    def test_disk_full_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "t.bin"
        save_tensors(path, {"a": np.arange(3.0)})
        old = path.read_bytes()

        class FullDisk:
            """A file that takes 20 bytes, then fails like a full disk."""

            def __init__(self, fh):
                self.fh, self.room = fh, 20

            def write(self, data):
                if len(data) > self.room:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.room -= len(data)
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

        monkeypatch.setattr(container, "open", lambda p, mode: FullDisk(open(p, mode)),
                            raising=False)
        with pytest.raises(OSError):
            save_tensors(path, {"a": np.ones(4), "b": np.zeros((2, 2))})
        monkeypatch.undo()
        assert path.read_bytes() == old
        np.testing.assert_array_equal(load_tensors(path)["a"], np.arange(3.0))
        assert [p.name for p in tmp_path.iterdir()] == ["t.bin"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39])
    def test_value_not_finite_as_float32_keeps_old_file(self, tmp_path, bad):
        path = tmp_path / "t.bin"
        save_tensors(path, {"a": np.arange(3.0)})
        old = path.read_bytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 1e39 overflows the cast without a warning
            with pytest.raises(ContractError,
                               match=re.escape(f"{path}: tensor 'b' is not finite as float32")):
                save_tensors(path, {"a": np.ones(3), "b": np.array([0.0, bad])})
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["t.bin"]

    def test_interrupted_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"old")
        with pytest.raises(KeyboardInterrupt):
            with atomic_file(path) as fh:
                fh.write(b"partial")
                raise KeyboardInterrupt
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    def test_failed_checkpoint_keeps_old_checkpoint(self, tmp_path):
        cfg = tiny_config()
        params = MaeParams.init(cfg)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, cfg, params)
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        # The last tensor in name order fails to convert.
        params.named()["mask_token"].data = np.array(["x"] * cfg.dec_width)
        with pytest.raises(ValueError):
            save_checkpoint(path, tiny_config(seed=1), params)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files
        assert load_checkpoint(path)[0] == cfg


class TestMalformedFiles:
    @staticmethod
    def _saved(tmp_path):
        path = tmp_path / "t.bin"
        save_tensors(path, {"a": np.arange(3.0), "b": np.ones((2, 2))})
        return path, path.read_bytes()

    @staticmethod
    def _with_header(path, header, payload):
        head = json.dumps(header).encode("utf-8")
        path.write_bytes(struct.pack("<Q", len(head)) + head + payload)

    def test_truncated_header(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:20])
        with pytest.raises(ContractError, match="header length"):
            load_tensors(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(struct.pack("<Q", 9) + b"{not json" + bytes(8))
        with pytest.raises(ContractError, match="JSON"):
            load_tensors(path)

    def test_huge_header_length(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(struct.pack("<Q", 2**63) + raw[8:])
        with pytest.raises(ContractError, match="header length"):
            load_tensors(path)

    def test_truncated_payload(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:-4])
        with pytest.raises(ContractError, match="'b'"):
            load_tensors(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values(self, tmp_path, bad):
        path = tmp_path / "t.bin"
        self._with_header(path, {
            "ok": {"shape": [2], "dtype": "f32", "byte_offset": 0},
            "w": {"shape": [2], "dtype": "f32", "byte_offset": 8},
        }, np.array([0.0, 0.0, 1.0, bad], dtype="<f4").tobytes())
        with pytest.raises(ContractError, match="'w'.*non-finite"):
            load_tensors(path)

    def test_overlapping_tensors(self, tmp_path):
        path = tmp_path / "t.bin"
        self._with_header(path, {
            "a": {"shape": [2], "dtype": "f32", "byte_offset": 0},
            "b": {"shape": [2], "dtype": "f32", "byte_offset": 4},
        }, np.zeros(3, dtype="<f4").tobytes())
        with pytest.raises(ContractError, match="'b' must start at payload byte 8"):
            load_tensors(path)

    def test_repeated_tensor_name(self, tmp_path):
        path = tmp_path / "t.bin"
        entry = '{"shape": [1], "dtype": "f32", "byte_offset": 0}'
        head = f'{{"a": {entry}, "a": {entry}}}'.encode("utf-8")
        path.write_bytes(struct.pack("<Q", len(head)) + head + bytes(4))
        with pytest.raises(ContractError) as info:
            load_tensors(path)
        assert str(info.value) == f"{path}: header repeats key 'a'"

    def test_byte_inserted_into_the_payload(self, tmp_path):
        # one layout: the first tensor's bytes no longer read as other values
        path = tmp_path / "t.bin"
        save_tensors(path, {"a": np.array([1.0, 2.0, 3.0, 4.0]), "b": np.full(3, 2.0)})
        raw = path.read_bytes()
        (head_len,) = struct.unpack("<Q", raw[:8])
        at = 8 + head_len + 2
        path.write_bytes(raw[:at] + b"\x00" + raw[at:])
        with pytest.raises(ContractError, match=re.escape(
                f"{path}: the tensors end at payload byte 28 of 29")):
            load_tensors(path)

    @pytest.mark.parametrize("field, value", [
        ("dtype", "f64"), ("shape", [2, -1]), ("shape", "2"), ("byte_offset", -4),
        ("byte_offset", True),
    ])
    def test_bad_entry_fields(self, tmp_path, field, value):
        path = tmp_path / "t.bin"
        meta = {"shape": [2], "dtype": "f32", "byte_offset": 0}
        meta[field] = value
        self._with_header(path, {"a": meta}, np.zeros(2, dtype="<f4").tobytes())
        with pytest.raises(ContractError, match="'a'"):
            load_tensors(path)


@st.composite
def _containers(draw):
    """2 to 4 named float32 arrays of up to 3 dims, some of them empty."""
    names = draw(st.lists(st.text("abcxyz._", min_size=1, max_size=4),
                          min_size=2, max_size=4, unique=True))
    out = {}
    for name in names:
        shape = draw(st.lists(st.integers(0, 3), max_size=3))
        values = st.floats(-1e6, 1e6, width=32)
        out[name] = np.array(draw(st.lists(values, min_size=math.prod(shape),
                                           max_size=math.prod(shape)))).reshape(shape)
    return out


@given(_containers(), st.data())
@settings(max_examples=300, deadline=None)
def test_one_byte_inserted_or_deleted_is_refused_or_harmless(tmp_path_factory, tensors, data):
    """Every single-byte insertion or deletion raises a ContractError naming
    the file, or loads the same arrays. A changed byte inside the payload
    still loads; a checksum is what would catch it."""
    path = tmp_path_factory.mktemp("mut") / "t.bin"
    save_tensors(path, tensors)
    raw = path.read_bytes()
    if data.draw(st.booleans(), label="insert"):
        at = data.draw(st.integers(0, len(raw)), label="at")
        byte = data.draw(st.binary(min_size=1, max_size=1), label="byte")
        path.write_bytes(raw[:at] + byte + raw[at:])
    else:
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        path.write_bytes(raw[:at] + raw[at + 1:])
    try:
        back = load_tensors(path)
    except ContractError as e:
        assert str(e).startswith(f"{path}: ")
        return
    assert sorted(back) == sorted(tensors)
    for name, arr in tensors.items():
        assert back[name].tobytes() == arr.astype(np.float32).astype(np.float64).tobytes()


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A saved tiny checkpoint: its path, container bytes and sidecar bytes."""
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_checkpoint(path, tiny_config(), MaeParams.init(tiny_config()))
    sidecar = path.with_suffix(".ckpt.json")
    return path, path.read_bytes(), sidecar.read_bytes()


class TestTruncatedCheckpoint:
    """A checkpoint cut short never loads as something else."""

    def _container_cut_raises(self, tiny_checkpoint, cut):
        path, raw, _ = tiny_checkpoint
        try:
            path.write_bytes(raw[:cut])
            with pytest.raises(ContractError):
                load_checkpoint(path)
        finally:
            path.write_bytes(raw)

    def test_container_cut_at_each_boundary_raises(self, tiny_checkpoint):
        _, raw, _ = tiny_checkpoint
        (head_len,) = struct.unpack("<Q", raw[:8])
        for cut in (0, 1, 7, 8, 9, 8 + head_len - 1, 8 + head_len, 8 + head_len + 1,
                    len(raw) - 4, len(raw) - 1):
            self._container_cut_raises(tiny_checkpoint, cut)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_container_prefix_raises(self, tiny_checkpoint, data):
        cut = data.draw(st.integers(0, len(tiny_checkpoint[1]) - 1), label="cut")
        self._container_cut_raises(tiny_checkpoint, cut)

    def test_every_sidecar_prefix_raises_or_loads_the_same_config(self, tiny_checkpoint):
        path, _, raw = tiny_checkpoint
        sidecar = path.with_suffix(".ckpt.json")
        loaded = []
        try:
            for cut in range(len(raw)):
                sidecar.write_bytes(raw[:cut])
                try:
                    cfg, _ = load_checkpoint(path)
                except ContractError:
                    continue
                assert cfg == tiny_config(), cut
                loaded.append(cut)
        finally:
            sidecar.write_bytes(raw)
        assert loaded == [len(raw) - 1]  # only the trailing newline can go
