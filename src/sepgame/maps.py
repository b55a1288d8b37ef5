"""Small immutable values: `fmap`, the mapping used for stacks, heaps and
resource tables, and `Node`, the base of every record type.

Plain dicts are not hashable and their identity-based mutation is easy to get
wrong in a code base where states are used as set members and cache keys, so
every state-like structure is built on `fmap` instead.  Equality compares the
underlying dicts; the sorted item tuple and the hash are computed lazily and
cached, since enumeration code builds far more maps than it ever hashes.
`fmap` has no assignment guard, so it writes its own slots plainly; nothing
outside the class writes them.

A `Node` subclass lists its fields as annotations and gets slots, positional
`match`, a dataclass-style repr, equality on its exact type and fields, and a
hash of its field tuple computed at most once (hash-consing without the
table: Filliatre and Conchon, "Type-safe modular hash-consing", ML 2006).
Its `__init__`, `__eq__` and `__hash__` are compiled once per shape (field
count and `__post_init__`) over placeholder field names; each class gets
copies of the shape's code that name its own fields.
"""

from __future__ import annotations

import types
from collections.abc import Mapping


class fmap(Mapping):
    """Immutable mapping with structural equality, hashing and sorted iteration."""

    __slots__ = ("_dict", "_items", "_hash")

    def __init__(self, items=()):
        self._dict = dict(items)
        self._items = None
        self._hash = None

    def __getitem__(self, key):
        return self._dict[key]

    def __iter__(self):
        return iter([k for k, _ in self.items()])

    def __len__(self):
        return len(self._dict)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.items())
        return h

    def __eq__(self, other):
        if isinstance(other, fmap):
            return self._dict == other._dict
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, fmap):
            return self.items() < other.items()
        return NotImplemented

    def __repr__(self):
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in self.items())
        return "fmap({%s})" % inner

    def items(self):
        it = self._items
        if it is None:
            it = self._items = tuple(sorted(self._dict.items()))
        return it

    def set(self, key, value) -> "fmap":
        d = dict(self._dict)
        d[key] = value
        return fmap(d)

    def remove(self, key) -> "fmap":
        d = dict(self._dict)
        del d[key]
        return fmap(d)


_NODE_METHODS = """def make(_set):
    def __init__(self, {params}):
        {sets}_set(self, "_hash", None){post}
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        h, g = self._hash, other._hash
        if h is not None and g is not None and h != g:
            return False
        return self is other or ({mine}) == ({theirs})
    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(({mine}))
            _set(self, "_hash", h)
        return h
    return __init__, __eq__, __hash__"""

_SHAPES = {}   # (field count, runs __post_init__) -> the shape's three methods


def _shape_methods(n: int, post: bool) -> tuple:
    """__init__, __eq__ and __hash__ of a shape, compiled once over the
    placeholder fields _f0, _f1, ..."""
    methods = _SHAPES.get((n, post))
    if methods is None:
        fields = [f"_f{i}" for i in range(n)]
        scope = {}
        exec(_NODE_METHODS.format(
            params=", ".join(fields),
            sets="".join(f"_set(self, {f!r}, {f}); " for f in fields),
            post="; self.__post_init__()" if post else "",
            mine="".join(f"self.{f}, " for f in fields),
            theirs="".join(f"other.{f}, " for f in fields)), scope)
        methods = _SHAPES[n, post] = scope["make"](object.__setattr__)
    return methods


def _with_fields(fn, names: dict, defaults):
    """A copy of a shape's method whose names, locals and string constants
    name the class's own fields; its bytecode is the shape's."""
    code = fn.__code__
    code = code.replace(**{attr: tuple(names.get(x, x) for x in getattr(code, attr))
                           for attr in ("co_names", "co_varnames", "co_consts")})
    return types.FunctionType(code, fn.__globals__, fn.__name__, defaults,
                              fn.__closure__)


class _NodeType(type):
    """Makes the field annotations of a Node subclass its slots and match
    args, and gives it __init__, __eq__ and __hash__ compiled once per shape
    (field count and __post_init__): as in namedtuple, no instance method
    loops over the field names, and a class copies its shape's code instead
    of compiling source of its own."""

    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        defaults = tuple(ns.pop(f) for f in fields if f in ns)
        ns["__slots__"] = fields + tuple(ns.get("__slots__", ()))
        ns["__match_args__"] = fields
        cls = super().__new__(mcls, name, bases, ns)
        if bases:
            names = {f"_f{i}": f for i, f in enumerate(fields)}
            init, eq, hash_ = _shape_methods(len(fields),
                                             hasattr(cls, "__post_init__"))
            cls.__init__ = _with_fields(init, names, defaults or None)
            cls.__eq__ = _with_fields(eq, names, None)
            cls.__hash__ = _with_fields(hash_, names, None)
        return cls


class Node(metaclass=_NodeType):
    """Immutable record; see the module docstring.  A subclass may declare
    `__slots__` of its own for values derived from the fields, which take no
    part in equality, hashing or the repr."""
    __slots__ = ("_hash",)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self.__match_args__))
