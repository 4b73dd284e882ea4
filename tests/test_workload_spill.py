"""Memory-mapped ``.wlm`` spill container: round-trip and corruption.

The container must round-trip workloads bit-exactly, hand back
zero-copy views over one shared ``np.memmap``, and refuse corrupted or
truncated files with :class:`StreamError`.
"""

import fnmatch
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro.core.workload as wl
from repro.errors import StreamError
from repro.streams.batch import EventBatch


@pytest.fixture
def workload():
    return wl.generate_workload(n_nodes=3, window_size=50, n_windows=4,
                                rate_per_node=5_000.0, seed=11)


def workload_bits(workload):
    return (
        workload.window_size, workload.n_windows,
        tuple((s.ids.tobytes(), s.values.tobytes(), s.ts.tobytes())
              for s in workload.streams),
        workload.bounds.tobytes(), workload.boundary_ts.tobytes())


class TestRoundTrip:
    def test_mmap_roundtrip_bit_exact(self, tmp_path, workload):
        path = tmp_path / "w.wlm"
        wl.save_workload_mmap(path, workload)
        assert workload_bits(wl.load_workload_mmap(path)) == \
            workload_bits(workload)

    def test_streams_are_views_over_one_map(self, tmp_path, workload):
        path = tmp_path / "w.wlm"
        wl.save_workload_mmap(path, workload)
        loaded = wl.load_workload_mmap(path)
        mm = loaded.streams[0].ids.base
        for stream in loaded.streams:
            for col in (stream.ids, stream.values, stream.ts):
                assert col.base is mm
                assert np.shares_memory(col, mm)
        assert loaded.bounds.base is mm

    def test_stream_columns_are_base_class_arrays(self, tmp_path,
                                                  workload):
        """Columns (and every slice of them) are exactly ``ndarray``,
        not the ``np.memmap`` subclass whose Python-level
        ``__getitem__`` would tax each ``slice_range`` — yet still
        zero-copy, read-only views that keep the mapping alive."""
        path = tmp_path / "w.wlm"
        wl.save_workload_mmap(path, workload)
        loaded = wl.load_workload_mmap(path)
        for stream in loaded.streams:
            part = stream.slice_range(1, 5)
            for col in (stream.ids, stream.values, stream.ts,
                        part.ids, part.values, part.ts):
                assert type(col) is np.ndarray
                assert not col.flags.writeable
                assert np.shares_memory(col, loaded.streams[0].ids.base)
        assert type(loaded.bounds) is np.ndarray
        assert isinstance(loaded.streams[0].ids.base, np.memmap)

    def test_offsets_are_aligned(self, tmp_path, workload):
        path = tmp_path / "w.wlm"
        wl.save_workload_mmap(path, workload)
        loaded = wl.load_workload_mmap(path)
        for stream in loaded.streams:
            for col in (stream.ids, stream.values, stream.ts):
                assert col.ctypes.data % wl._WLM_ALIGN == 0

    def test_spill_bytes_pinned(self, tmp_path, workload):
        """The spill's bytes are pinned: the layout changes only with
        ``SPILL_FORMAT_VERSION`` (and this digest) on purpose."""
        path = tmp_path / "w.wlm"
        wl.save_workload_mmap(path, workload)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "db83e1184af5feadad57e6b212c32722"
            "ece1d7fd1d401e361477a3eba75680be")

    def test_atomic_write_leaves_no_temp_files(self, tmp_path, workload):
        wl.save_workload_mmap(tmp_path / "w.wlm", workload)
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"w.wlm"}


class TestCorruption:
    def spill(self, tmp_path, workload):
        path = tmp_path / "w.wlm"
        wl.save_workload_mmap(path, workload)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(StreamError, match="unreadable"):
            wl.load_workload_mmap(tmp_path / "nope.wlm")

    def test_bad_magic(self, tmp_path, workload):
        path = self.spill(tmp_path, workload)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(StreamError, match="magic"):
            wl.load_workload_mmap(path)

    def test_bad_version(self, tmp_path, workload):
        path = self.spill(tmp_path, workload)
        data = path.read_bytes()
        header_len = int.from_bytes(data[4:8], "little")
        header = data[8:8 + header_len].replace(
            b'"version": 1', b'"version": 9')
        path.write_bytes(data[:8] + header + data[8 + header_len:])
        with pytest.raises(StreamError, match="version"):
            wl.load_workload_mmap(path)

    def test_corrupt_header_json(self, tmp_path, workload):
        path = self.spill(tmp_path, workload)
        data = bytearray(path.read_bytes())
        data[10] = ord("!")
        path.write_bytes(bytes(data))
        with pytest.raises(StreamError, match="corrupt"):
            wl.load_workload_mmap(path)

    def test_truncated_payload(self, tmp_path, workload):
        path = self.spill(tmp_path, workload)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(StreamError):
            wl.load_workload_mmap(path)

    def test_truncated_header(self, tmp_path, workload):
        path = self.spill(tmp_path, workload)
        path.write_bytes(path.read_bytes()[:6])
        with pytest.raises(StreamError, match="truncated"):
            wl.load_workload_mmap(path)


def edit_header(path, edit):
    """Rewrite a spill's JSON table of contents in place.  Payload
    offsets are absolute, so a header that still ends before the first
    array leaves every array where the table says it is."""
    data = path.read_bytes()
    header_len = int.from_bytes(data[4:8], "little")
    header = json.loads(data[8:8 + header_len])
    first_array = min(e["offset"] for e in header["arrays"])
    edit(header)
    new = json.dumps(header).encode()
    assert 8 + len(new) <= first_array
    path.write_bytes(data[:4] + len(new).to_bytes(4, "little") + new
                     + data[8 + len(new):])


def entry(header, name):
    (found,) = [e for e in header["arrays"] if e["name"] == name]
    return found


class TestCorruptHeaderEntries:
    """A table of contents that parses as JSON but lies about an array
    is refused with :class:`StreamError` -- never a mis-sized stream,
    a ``TypeError`` or a ``KeyError``."""

    @pytest.mark.parametrize("name, edit", [
        ("short_stream", lambda h: entry(h, "ids_0").update(shape=[3])),
        ("negative_dim", lambda h: entry(h, "ids_0").update(shape=[-1])),
        ("bad_dtype", lambda h: entry(h, "ts_1").update(dtype="<q9")),
        ("missing_offset", lambda h: entry(h, "values_2").pop("offset")),
        ("missing_table", lambda h: h.pop("arrays")),
        ("bounds_shape", lambda h: entry(h, "bounds").update(shape=[4, 3])),
        ("column_dtype", lambda h: entry(h, "ts_0").update(dtype="<f8")),
        ("column_ndim", lambda h: entry(h, "ids_1").update(
            shape=[1, entry(h, "ids_1")["shape"][0]])),
    ])
    def test_refused(self, tmp_path, workload, name, edit):
        path = tmp_path / "w.wlm"
        wl.save_workload_mmap(path, workload)
        edit_header(path, edit)
        with pytest.raises(StreamError):
            wl.load_workload_mmap(path)


#: Run in a fresh interpreter: a cold ``WorkloadCache.get`` of the
#: ``sim_figures``-sized spec, its peak RSS above the post-import RSS,
#: and the returned columns checked against a second generation.  The
#: peak is ``VmHWM``, the high-water mark of this process's own address
#: space: ``ru_maxrss`` would also carry the RSS of the forked test
#: process that exec'd it.
COLD_GET = textwrap.dedent("""
    import json, sys
    import numpy as np
    from repro.core.workload import WorkloadCache, WorkloadSpec

    def status_kib(field):
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])

    spec = WorkloadSpec(n_nodes=8, window_size=80_000, n_windows=8,
                        seed=11)
    base = status_kib("VmRSS")
    got = WorkloadCache(spill_dir=sys.argv[1]).get(spec)
    peak = status_kib("VmHWM")
    cols = [c for s in got.streams for c in (s.ids, s.values, s.ts)]
    nbytes = sum(c.nbytes for c in cols) + got.bounds.nbytes \\
        + got.boundary_ts.nbytes
    fresh = spec.generate()
    want = [c for s in fresh.streams for c in (s.ids, s.values, s.ts)]
    print(json.dumps({
        "ratio": (peak - base) * 1024 / nbytes,
        "mapped": all(type(c) is np.ndarray and not c.flags.writeable
                      and isinstance(c.base, np.memmap) for c in cols),
        "equal": all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                     for a, b in zip(cols + [got.bounds, got.boundary_ts],
                                     want + [fresh.bounds,
                                             fresh.boundary_ts])),
    }))
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmRSS and VmHWM from /proc")
class TestColdMissMemory:
    def test_cold_get_peak_is_bounded_and_returns_the_mapping(
            self, tmp_path):
        src = str(Path(wl.__file__).resolve().parents[2])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", COLD_GET, str(tmp_path)], env=env,
            capture_output=True, text=True, check=True, timeout=300)
        report = json.loads(out.stdout.splitlines()[-1])
        # The merge-and-keep-the-heap-copy path peaked at ~4.3x.
        assert report["ratio"] <= 1.5, report
        assert report["mapped"] and report["equal"], report


class TestSpillHygiene:
    def test_spill_filename_single_authority(self):
        name = wl.spill_filename("abc123")
        assert name == \
            f"wl{wl.SPILL_FORMAT_VERSION}_abc123{wl.SPILL_SUFFIX}"
        # Every sweep glob matches what the naming authority produces.
        assert any(fnmatch.fnmatch(name, pattern)
                   for pattern in wl._SPILL_GLOBS)

    def test_cache_writes_current_format(self, tmp_path):
        cache = wl.WorkloadCache(spill_dir=tmp_path)
        spec = wl.WorkloadSpec(n_nodes=2, window_size=30, n_windows=2,
                               rate_per_node=2_000.0)
        cache.get(spec)
        (spill,) = tmp_path.iterdir()
        assert spill.name == wl.spill_filename(spec.key())
        assert spill.suffix == wl.SPILL_SUFFIX

    def test_cold_miss_returns_what_a_spill_hit_returns(self, tmp_path):
        spec = wl.WorkloadSpec(n_nodes=2, window_size=30, n_windows=2,
                               rate_per_node=2_000.0)
        cold = wl.WorkloadCache(spill_dir=tmp_path).get(spec)
        hit = wl.WorkloadCache(spill_dir=tmp_path).get(spec)
        for stream in cold.streams:
            assert isinstance(stream.ids.base, np.memmap)
            assert not stream.ts.flags.writeable
        assert workload_bits(cold) == workload_bits(hit) == \
            workload_bits(spec.generate())

    def test_spill_hit_loads_mmap(self, tmp_path):
        spec = wl.WorkloadSpec(n_nodes=2, window_size=30, n_windows=2,
                               rate_per_node=2_000.0)
        first = wl.WorkloadCache(spill_dir=tmp_path)
        direct = first.get(spec)
        second = wl.WorkloadCache(spill_dir=tmp_path)
        loaded = second.get(spec)
        assert second.spill_hits == 1 and second.generated == 0
        assert workload_bits(loaded) == workload_bits(direct)

    def test_clear_sweeps_all_generations(self, tmp_path):
        cache = wl.WorkloadCache(spill_dir=tmp_path)
        cache.get(wl.WorkloadSpec(n_nodes=2, window_size=30,
                                  n_windows=2, rate_per_node=2_000.0))
        (tmp_path / "wl1_deadbeef.wlm").write_bytes(b"legacy")
        (tmp_path / f"{wl._TMP_PREFIX}crashed.wlm").write_bytes(b"tmp")
        cache.clear(spill=True)
        assert not list(tmp_path.iterdir())
