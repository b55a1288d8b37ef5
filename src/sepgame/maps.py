"""Small immutable mapping used for stacks, heaps and resource tables.

Plain dicts are not hashable and their identity-based mutation is easy to get
wrong in a code base where states are used as set members and cache keys, so
every state-like structure is built on `fmap` instead.  Equality compares the
underlying dicts; the sorted item tuple and the hash are computed lazily and
cached, since enumeration code builds far more maps than it ever hashes.
"""

from __future__ import annotations

from collections.abc import Mapping


class fmap(Mapping):
    """Immutable mapping with structural equality, hashing and sorted iteration."""

    __slots__ = ("_dict", "_items", "_hash")

    def __init__(self, items=()):
        object.__setattr__(self, "_dict", dict(items))
        object.__setattr__(self, "_items", None)
        object.__setattr__(self, "_hash", None)

    def __getitem__(self, key):
        return self._dict[key]

    def __iter__(self):
        return iter([k for k, _ in self.items()])

    def __len__(self):
        return len(self._dict)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.items())
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other):
        if isinstance(other, fmap):
            return self._dict == other._dict
        return NotImplemented

    def __lt__(self, other):
        return self.items() < other.items()

    def __repr__(self):
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in self.items())
        return "fmap({%s})" % inner

    def items(self):
        it = self._items
        if it is None:
            it = tuple(sorted(self._dict.items()))
            object.__setattr__(self, "_items", it)
        return it

    def set(self, key, value) -> "fmap":
        d = dict(self._dict)
        d[key] = value
        return fmap(d)

    def remove(self, key) -> "fmap":
        d = dict(self._dict)
        del d[key]
        return fmap(d)
