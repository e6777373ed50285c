"""Unit tests for the on-disk trace artifact cache."""

from repro.traces.artifacts import (
    CACHE_ENV_VAR,
    artifact_path,
    cache_dir,
    load_columnar_artifact,
    load_or_generate,
    load_or_generate_columnar,
    store_columnar_artifact,
)
from repro.traces.columnar import MAGIC, ColumnarTrace
from repro.workloads.synthetic import GENERATOR_VERSION, make_workload


class TestCacheDir:
    def test_env_var_sets_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        assert cache_dir() == tmp_path

    def test_default_under_home_cache(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        path = cache_dir()
        assert path is not None
        assert path.parts[-3:] == (".cache", "repro", "traces")

    def test_disable_values(self, monkeypatch):
        for value in ("", "0", "off", "none", "disabled", "OFF", " off "):
            monkeypatch.setenv(CACHE_ENV_VAR, value)
            assert cache_dir() is None, value

    def test_disabled_cache_disables_paths(self, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, "off")
        assert artifact_path("server", 100, None, GENERATOR_VERSION) is None


class TestArtifactPath:
    def test_key_includes_all_invalidators(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        base = artifact_path("server", 100, None, 1)
        assert base.name == "server-e100-sdefault-v1.ctrace"
        assert artifact_path("users", 100, None, 1) != base
        assert artifact_path("server", 200, None, 1) != base
        assert artifact_path("server", 100, 7, 1) != base
        assert artifact_path("server", 100, None, 2) != base


class TestRoundTrip:
    def test_load_or_generate_populates_and_serves(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        fresh = load_or_generate("server", 400)
        path = artifact_path("server", 400, None, GENERATOR_VERSION)
        assert path.exists()
        assert path.read_bytes().startswith(MAGIC)
        cached = load_or_generate("server", 400)
        assert cached.events == fresh.events
        assert cached.events == make_workload("server", 400).events

    def test_columnar_load_is_mmap_backed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        load_or_generate_columnar("server", 400)  # populate
        served = load_or_generate_columnar("server", 400)
        assert served._mmap is not None
        assert served.to_trace().events == make_workload("server", 400).events

    def test_disabled_cache_still_generates(self, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, "off")
        trace = load_or_generate("users", 300)
        assert trace.events == make_workload("users", 300).events

    def test_corrupt_artifact_is_regenerated(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        path = artifact_path("write", 200, None, GENERATOR_VERSION)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a columnar trace")
        trace = load_or_generate("write", 200)
        assert trace.events == make_workload("write", 200).events
        # The corrupt file was rewritten with the good artifact.
        assert load_columnar_artifact(path, 200) is not None

    def test_bad_header_version_is_regenerated(self, tmp_path, monkeypatch):
        import struct

        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        path = artifact_path("write", 150, None, GENERATOR_VERSION)
        load_or_generate("write", 150)  # populate a good artifact
        raw = bytearray(path.read_bytes())
        struct.pack_into("<H", raw, len(MAGIC), 9999)  # future version
        path.write_bytes(bytes(raw))
        assert load_columnar_artifact(path, 150) is None
        trace = load_or_generate("write", 150)
        assert trace.events == make_workload("write", 150).events
        assert load_columnar_artifact(path, 150) is not None

    def test_truncated_artifact_is_regenerated(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        path = artifact_path("server", 180, None, GENERATOR_VERSION)
        load_or_generate("server", 180)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert load_columnar_artifact(path, 180) is None
        trace = load_or_generate("server", 180)
        assert trace.events == make_workload("server", 180).events

    def test_out_of_range_file_code_is_regenerated(self, tmp_path, monkeypatch):
        import struct

        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        path = artifact_path("server", 300, None, GENERATOR_VERSION)
        good = load_or_generate_columnar("server", 300)
        n_files = len(good.file_symbols)
        del good  # release the mapping before rewriting the file
        raw = bytearray(path.read_bytes())
        (columns_offset,) = struct.unpack_from("<Q", raw, 40)
        struct.pack_into("<I", raw, columns_offset, n_files)
        path.write_bytes(bytes(raw))
        assert load_columnar_artifact(path, 300) is None
        trace = load_or_generate("server", 300)
        assert trace.events == make_workload("server", 300).events
        assert load_columnar_artifact(path, 300) is not None

    def test_cold_load_generates_and_packs_once(self, tmp_path, monkeypatch):
        # The benchmark's set-up layers time these two calls through
        # their module attributes; a cold load must make each exactly once.
        from repro.workloads import synthetic

        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        calls = {"make_workload": 0, "from_trace": 0}
        make = synthetic.make_workload
        pack = ColumnarTrace.from_trace

        def counted_make(*args, **kwargs):
            calls["make_workload"] += 1
            return make(*args, **kwargs)

        def counted_pack(trace):
            calls["from_trace"] += 1
            return pack(trace)

        monkeypatch.setattr(synthetic, "make_workload", counted_make)
        monkeypatch.setattr(ColumnarTrace, "from_trace", staticmethod(counted_pack))
        cold = load_or_generate_columnar("users", 400)
        assert calls == {"make_workload": 1, "from_trace": 1}
        assert cold.to_trace().events == make("users", 400).events
        load_or_generate_columnar("users", 400)
        assert calls == {"make_workload": 1, "from_trace": 1}

    def test_wrong_event_count_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        path = artifact_path("server", 250, None, GENERATOR_VERSION)
        store_columnar_artifact(path, make_workload("server", 100))
        assert load_columnar_artifact(path, 250) is None
        trace = load_or_generate("server", 250)
        assert len(trace) == 250

    def test_store_failure_is_soft(self, tmp_path):
        missing_parent = tmp_path / "file"
        missing_parent.write_text("occupied")
        # Parent "directory" is a file: mkdir fails, store returns False.
        target = missing_parent / "sub" / "x.ctrace"
        assert store_columnar_artifact(target, make_workload("server", 50)) is False

    def test_version_bump_misses(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        old = artifact_path("server", 150, None, GENERATOR_VERSION)
        store_columnar_artifact(old, make_workload("server", 150))
        bumped = artifact_path("server", 150, None, GENERATOR_VERSION + 1)
        assert not bumped.exists()
