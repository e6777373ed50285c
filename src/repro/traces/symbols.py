"""Symbol interning for hot replay loops.

File identifiers in traces are strings ("server/c0/a03/f017"), and every
replay structure — successor lists, LRU orders, group sets — hashes them
on every event.  A :class:`SymbolTable` maps each distinct identifier to
a dense ``int`` exactly once per trace, so the hot loops downstream pay
integer hashing instead of string hashing on every dictionary touch.

Every cache policy, successor list, and group builder in this library is
key-agnostic (they never inspect key contents, only compare and hash),
so replaying an encoded sequence produces *identical* counts to
replaying the string sequence — a property locked in by
``tests/test_symbols.py`` and the engine equivalence tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple


class SymbolTable:
    """A bijective string ↔ dense-int mapping, grown on first sight.

    Codes are assigned in first-appearance order starting at 0, so
    encoding is deterministic for a given sequence.
    """

    __slots__ = ("_codes", "_names")

    def __init__(self) -> None:
        self._codes: Dict[str, int] = {}
        self._names: List[str] = []

    def intern(self, name: str) -> int:
        """Return the code for ``name``, assigning the next one if new."""
        code = self._codes.get(name)
        if code is None:
            code = len(self._names)
            self._codes[name] = code
            self._names.append(name)
        return code

    def encode(self, sequence: Iterable[str]) -> List[int]:
        """Encode a whole sequence (interning new names as they appear).

        Both passes run in C: ``dict.fromkeys`` lists the distinct names
        in first-appearance order, the new ones among them take the next
        codes, and one ``map`` looks every name up.
        """
        if not isinstance(sequence, (list, tuple)):
            sequence = list(sequence)
        codes = self._codes
        names = self._names
        new = [name for name in dict.fromkeys(sequence) if name not in codes]
        codes.update(zip(new, range(len(names), len(names) + len(new))))
        names.extend(new)
        return list(map(codes.__getitem__, sequence))

    def decode(self, code: int) -> str:
        """The string for a code; raises IndexError on unknown codes."""
        return self._names[code]

    def decode_sequence(self, codes: Iterable[int]) -> List[str]:
        """Decode a whole code sequence back to strings."""
        names = self._names
        return [names[code] for code in codes]

    def code_of(self, name: str) -> int:
        """The existing code for a name; raises KeyError if never interned."""
        return self._codes[name]

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._codes


def intern_sequence(sequence: Sequence[str]) -> Tuple[List[int], SymbolTable]:
    """Encode a sequence with a fresh table; returns ``(codes, table)``."""
    table = SymbolTable()
    return table.encode(sequence), table
