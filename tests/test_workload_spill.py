"""Memory-mapped ``.wlm`` spill container: round-trip and corruption.

The container must round-trip workloads bit-exactly, hand back
zero-copy views over one shared ``np.memmap``, and refuse corrupted or
truncated files with :class:`StreamError`.  A cold cache miss writes
the spill epoch by epoch (``spill_workload``), and those bytes must be
exactly what ``save_workload_mmap`` writes for the generated workload.
"""

import errno
import fnmatch
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.workload as wl
import repro.streams.generator as generator
from repro.errors import ConfigurationError, StreamError


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


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


#: Spill SHA-256 of each end-to-end benchmark workload's spec at seed
#: 11, recorded from the whole-workload writer
#: (``save_workload_mmap(path, spec.generate())``) before the cold path
#: wrote spills epoch by epoch.
BENCHMARK_SPILLS = {
    "sim_figures": (
        dict(n_nodes=8, window_size=80_000, n_windows=8),
        "e8847f9d0e6dd780a5e817ac474f2afca225bfe81f9612cad6dd81d3078b6307"),
    "serve_sat_deco": (
        dict(n_nodes=2, window_size=4_000, n_windows=300),
        "fb90fcbb7fa0e9b26c9e1d12de96f4ac098554f8682a43501099de0ecaaa739e"),
    "serve_sat_central": (
        dict(n_nodes=2, window_size=4_000, n_windows=120),
        "87a0a28dea2cb16fd61a0c894dd62b3621149e3c9b7d291fe64804a6f0f91d81"),
    "multiquery_fanout": (
        dict(n_nodes=2, window_size=20_000, n_windows=12),
        "90a99d93e69572c0ebff787c5a30ba8f0fa2a45c5136cea93c5bef48e1bc3e9f"),
}


small_specs = st.builds(
    wl.WorkloadSpec,
    n_nodes=st.integers(1, 4),
    window_size=st.integers(1, 400),
    n_windows=st.integers(1, 6),
    rate_per_node=st.sampled_from([50.0, 333.0, 1_000.0, 2_500.0]),
    rate_change=st.sampled_from([0.0, 0.05, 0.5]),
    epoch_seconds=st.sampled_from([0.05, 0.3, 1.0, 1.7]),
    seed=st.integers(0, 50),
    margin=st.one_of(st.none(), st.floats(0.5, 2.0)))


class TestEpochWriter:
    """``spill_workload`` writes the spill without the workload: same
    bytes as the whole-workload writer, same refusals, nothing left
    behind on failure."""

    @settings(max_examples=60, deadline=None)
    @given(spec=small_specs, step_events=st.sampled_from([1, 7, 200,
                                                           1 << 16]))
    @example(spec=wl.WorkloadSpec(n_nodes=1, window_size=400, n_windows=6,
                                  rate_per_node=50.0, epoch_seconds=0.05,
                                  margin=0.5), step_events=1 << 16)
    def test_bytes_equal_whole_workload_writer(self, spec, step_events):
        """Steps of one epoch, of a few and of all epochs write the
        same bytes."""
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(wl, "_SPILL_STEP_EVENTS", step_events):
            whole, epochs = Path(tmp, "whole.wlm"), Path(tmp, "epochs.wlm")
            try:
                workload = spec.generate()
            except ConfigurationError as exc:
                # Too little stream for the windows (a small margin):
                # the writer refuses with the same message.
                with pytest.raises(ConfigurationError) as refused:
                    wl.spill_workload(epochs, spec)
                assert str(refused.value) == str(exc)
                return
            wl.save_workload_mmap(whole, workload)
            wl.spill_workload(epochs, spec)
            assert epochs.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("name", sorted(BENCHMARK_SPILLS))
    def test_benchmark_spills_pinned(self, tmp_path, name):
        params, digest = BENCHMARK_SPILLS[name]
        cache = wl.WorkloadCache(spill_dir=tmp_path)
        spec = wl.WorkloadSpec(seed=11, **params)
        cache.get(spec)
        assert file_sha256(cache.path(spec)) == digest

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        """A write that fails midway (a full disk) leaves neither the
        spill nor its temp file, and the next get writes it whole."""
        spec = wl.WorkloadSpec(n_nodes=2, window_size=300, n_windows=6,
                               rate_per_node=2_000.0)
        real_write_at = wl._write_at
        writes = []

        def write_at(fh, offset, arr):
            if len(writes) == 4:
                raise OSError(errno.ENOSPC, "No space left on device")
            writes.append(offset)
            real_write_at(fh, offset, arr)

        monkeypatch.setattr(wl, "_write_at", write_at)
        cache = wl.WorkloadCache(spill_dir=tmp_path)
        with pytest.raises(OSError, match="No space left"):
            cache.get(spec)
        assert len(writes) == 4
        assert not list(tmp_path.iterdir())
        assert cache.generated == 0
        monkeypatch.undo()
        cache.get(spec)
        assert [p.name for p in tmp_path.iterdir()] == \
            [wl.spill_filename(spec.key())]

    def test_out_of_order_epoch_refused(self, tmp_path, monkeypatch):
        """An epoch whose timestamps run backwards is refused with
        ``StreamError`` by the epoch writer, as ``build_workload``
        refuses the whole unsorted stream, and no spill is left."""
        real_epoch_ts = generator.epoch_ts
        monkeypatch.setattr(generator, "epoch_ts",
                            lambda *args: real_epoch_ts(*args)[::-1])
        spec = wl.WorkloadSpec(n_nodes=2, window_size=300, n_windows=4,
                               rate_per_node=2_000.0)
        with pytest.raises(StreamError, match="not timestamp-sorted"):
            spec.generate()
        with pytest.raises(StreamError, match="not timestamp-sorted"):
            wl.WorkloadCache(spill_dir=tmp_path).get(spec)
        assert not list(tmp_path.iterdir())

    def test_ensure_spilled_rewrites_a_vanished_spill(self, tmp_path):
        spec = wl.WorkloadSpec(n_nodes=2, window_size=300, n_windows=4,
                               rate_per_node=2_000.0)
        cache = wl.WorkloadCache(spill_dir=tmp_path)
        path = cache.ensure_spilled(spec)
        digest = file_sha256(path)
        path.unlink()
        assert cache.ensure_spilled(spec) == path
        assert file_sha256(path) == digest
        assert cache.generated == 1


#: Run in a fresh interpreter: a cold ``WorkloadCache.get`` of the
#: spec given as JSON, its peak RSS above the post-import RSS,
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

    spec = WorkloadSpec(**json.loads(sys.argv[2]))
    base = status_kib("VmRSS")
    got = WorkloadCache(spill_dir=sys.argv[1]).get(spec)
    peak = status_kib("VmHWM")
    cols = [c for s in got.streams for c in (s.ids, s.values, s.ts)]
    nbytes = sum(c.nbytes for c in cols) + got.bounds.nbytes \\
        + got.boundary_ts.nbytes
    report = {
        "peak_mib": (peak - base) / 1024,
        "ratio": (peak - base) * 1024 / nbytes,
        "mapped": all(type(c) is np.ndarray and not c.flags.writeable
                      and isinstance(c.base, np.memmap) for c in cols),
    }
    if sys.argv[3] == "compare":
        fresh = spec.generate()
        want = [c for s in fresh.streams for c in (s.ids, s.values, s.ts)]
        report["equal"] = all(
            a.dtype == b.dtype and a.tobytes() == b.tobytes()
            for a, b in zip(cols + [got.bounds, got.boundary_ts],
                            want + [fresh.bounds, fresh.boundary_ts]))
    print(json.dumps(report))
""")


def cold_get(spill_dir, compare=False, **spec):
    """The report of ``COLD_GET`` for a seed-11 spec."""
    src = str(Path(wl.__file__).resolve().parents[2])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", COLD_GET, str(spill_dir),
         json.dumps({**spec, "seed": 11}),
         "compare" if compare else "peak"], env=env,
        capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmRSS and VmHWM from /proc")
class TestColdMissMemory:
    def test_cold_get_peak_is_bounded_and_returns_the_mapping(
            self, tmp_path):
        """The ``sim_figures``-sized spec.  Writing the generated
        workload peaked at ~1.24x its bytes (merging it first, ~4.3x);
        the epoch writer holds one step of epochs, ~0.23x."""
        report = cold_get(tmp_path, compare=True, n_nodes=8,
                          window_size=80_000, n_windows=8)
        assert report["ratio"] <= 0.35, report
        assert report["mapped"] and report["equal"], report

    def test_cold_get_peak_does_not_grow_with_windows(self, tmp_path):
        """The ``serve_sat_deco``-sized spec at 300 windows and at 4x
        that.  The whole-workload writer's peak grew with them (52 ->
        161 MiB); the epoch writer's is ~10 MiB at both, so 4 MiB is
        noise room, not growth."""
        peaks = [cold_get(tmp_path / str(n), n_nodes=2, window_size=4_000,
                          n_windows=n)["peak_mib"] for n in (300, 1_200)]
        assert peaks[1] - peaks[0] <= 4.0, peaks


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
