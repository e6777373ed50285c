"""Unit tests for the symbol-interning table."""

import pytest

from repro.caching.lfu import LFUCache
from repro.caching.lru import LRUCache
from repro.sim.engine import replay_cache
from repro.traces.symbols import SymbolTable, intern_sequence


class TestSymbolTable:
    def test_codes_are_dense_and_first_appearance_ordered(self):
        table = SymbolTable()
        assert table.intern("b") == 0
        assert table.intern("a") == 1
        assert table.intern("b") == 0
        assert len(table) == 2

    def test_encode_round_trips(self):
        table = SymbolTable()
        sequence = ["x", "y", "x", "z", "y"]
        codes = table.encode(sequence)
        assert codes == [0, 1, 0, 2, 1]
        assert table.decode_sequence(codes) == sequence

    def test_decode_single(self):
        table = SymbolTable()
        table.intern("only")
        assert table.decode(0) == "only"
        with pytest.raises(IndexError):
            table.decode(5)

    def test_code_of_requires_prior_intern(self):
        table = SymbolTable()
        table.intern("seen")
        assert table.code_of("seen") == 0
        with pytest.raises(KeyError):
            table.code_of("never")

    def test_contains(self):
        table = SymbolTable()
        table.intern("here")
        assert "here" in table
        assert "gone" not in table

    def test_encode_extends_existing_table(self):
        table = SymbolTable()
        table.encode(["a", "b"])
        assert table.encode(["b", "c"]) == [1, 2]
        assert len(table) == 3


class TestInternSequence:
    def test_returns_codes_and_table(self):
        codes, table = intern_sequence(["f1", "f2", "f1"])
        assert codes == [0, 1, 0]
        assert table.decode_sequence(codes) == ["f1", "f2", "f1"]

    def test_empty_sequence(self):
        codes, table = intern_sequence([])
        assert codes == []
        assert len(table) == 0


class TestKeyAgnosticism:
    """Interned replays must count exactly like string replays."""

    @pytest.mark.parametrize("cache_cls", [LRUCache, LFUCache])
    def test_cache_stats_identical_under_interning(self, cache_cls):
        sequence = [f"f{i % 7}" for i in range(200)] + ["f1", "f9", "f2"]
        plain = replay_cache(cache_cls(4), sequence)
        codes, _table = intern_sequence(sequence)
        assert replay_cache(cache_cls(4), codes) == plain
