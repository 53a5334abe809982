"""Copying explored worlds: ``copy.deepcopy``'s result in one pass.

Every transition the explorer takes copies the parent world, and a
world is a whole booted system — kernel, EPC, enclave, runtime,
oracle, recovery manager — of a few hundred objects.  Per object,
``copy.deepcopy`` spends most of its time on protocol lookups
(``__deepcopy__``, ``__reduce_ex__``, ``copyreg``), the reduce tuple
and ``_reconstruct``, none of which a plain instance needs.
:func:`clone` returns the object graph ``copy.deepcopy`` returns and
takes the direct route for the types a world is made of:

* the atomic types of :mod:`copy` (``None``, numbers, ``str``,
  ``bytes``, classes, functions, builtins, code, ``range``, weakrefs,
  properties), enum members and immutable values (below) are shared,
  never copied; each class found shared joins the type set the loops
  test before they recurse, so an attribute holding one costs no call;
* a ``dict`` or ``list`` is entered in the memo before its items, so
  cycles and aliasing come out as ``deepcopy``'s do;
* a ``tuple`` is returned as-is when every element copies to itself;
* a bound method is rebound to the copied ``__self__`` with the same
  ``__func__``, so hooks bound to an instance (the lifecycle oracle's
  observers) or installed on a class (tracing wrappers) survive;
* an instance of a class with *default reduction* — no
  ``__reduce__``, ``__reduce_ex__``, ``__getstate__``,
  ``__setstate__``, ``__getnewargs__``, ``__deepcopy__`` or
  ``__copy__`` below ``object``, no attribute hooks, and
  ``object.__new__`` — is rebuilt from its ``__dict__`` and its set
  ``__slots__``, as ``copy._reconstruct`` rebuilds it;
* a ``set``, ``frozenset``, ``deque``, ``defaultdict``,
  ``OrderedDict`` or ``random.Random`` of exactly that type is copied
  in the memo order its reduction gives ``deepcopy``: a set is built
  from its copied items and memoized after them, a ``defaultdict``'s
  ``default_factory`` is copied (a bound method rebound) before the
  dict is built, the other containers are memoized before their
  items, and a ``Random`` takes the original's state by ``setstate``;
* only classes with their own reduction — subclasses of those types
  and an ``OrderedDict`` with instance attributes among them — go to
  ``copy.deepcopy(x, memo)`` on the same memo, so an object reached
  through both paths is still copied once.  No object of an explored
  world does.

An immutable value is an instance of a class that sets ``__deepcopy__
= share`` (:func:`repro.immutable.share`), so ``deepcopy`` returns it
as it is, and :func:`plan` maps the class to :data:`SHARED` before it
looks for reduction hooks.  The ones a world holds are frozen
dataclasses: the system and policy configs, the cost model and the
architecture options, the enclave layout and attributes, the driver's
regions, EPCM permissions, retry policies, heap warm-ups, quotes,
sealed checkpoint and journal blobs, and the lifecycle oracle's ops.
Three kinds of record stay copied: a ``SealedPage``, whose ciphertext
stands for page contents that may be a world object (a TCS page seals
the enclave's ``Tcs``) and whose MAC covers that object's identity, so
sharing it would let a page sealed before a copy verify after it and
change the explored state spaces; a ``RuntimeRegion``, which
``grow_heap`` and ``set_region_management`` change in place while
callers hold it; and an ``EnclaveProgram``, whose warm-up may be any
callable, a bound method of a world object among them.

Originals stay referenced from the memo until the copy is done, as
``deepcopy``'s ``_keep_alive`` keeps them, so no ``id`` is reused
mid-copy.  ``tests/test_copier.py`` checks the contract against
``copy.deepcopy`` on generated action traces of every world.
"""

from __future__ import annotations

import copy
import copyreg
import enum
import functools
import sys
import types
import weakref
from collections import OrderedDict, defaultdict, deque
from random import Random

from repro.immutable import share

#: Types ``copy.deepcopy`` returns as they are.  ``range`` joined them
#: in Python 3.10; before that ``deepcopy`` rebuilt ranges.
ATOMIC = frozenset((
    type(None), type(Ellipsis), type(NotImplemented),
    int, float, bool, complex, bytes, str,
    types.CodeType, type, types.BuiltinFunctionType, types.FunctionType,
    weakref.ref, property,
) + ((range,) if sys.version_info >= (3, 10) else ()))

#: Class attributes that, defined anywhere below ``object`` in the
#: MRO, change how ``deepcopy`` rebuilds an instance.
_REDUCTION_HOOKS = (
    "__reduce__", "__reduce_ex__", "__getstate__", "__setstate__",
    "__getnewargs__", "__getnewargs_ex__", "__deepcopy__", "__copy__",
    "__getattr__", "__getattribute__", "__new__",
)

#: ``Py_TPFLAGS_HEAPTYPE``: the class was defined in Python, not in C.
_HEAPTYPE = 1 << 9

#: Plans that are not a default-reduction layout (see :func:`plan`).
SHARED = "shared"
DEEPCOPY = "deepcopy"

#: Types :func:`clone` returns as they are without a call: the atomic
#: types, joined by each class :func:`plan` maps to :data:`SHARED` the
#: first time :func:`clone` meets an instance.
_SHARED_TYPES = set(ATOMIC)

_NIL = object()


def _overrides(cls, name):
    return any(name in vars(klass) for klass in cls.__mro__[:-1])


@functools.lru_cache(maxsize=None)
def plan(cls):
    """How :func:`clone` copies an instance of ``cls``.

    :data:`SHARED` when ``deepcopy`` returns the object itself (a
    class, an enum member, an immutable value whose class sets
    ``__deepcopy__ = share``), :data:`DEEPCOPY` when the class has its
    own reduction (the containers :func:`clone` copies itself among
    them), else the default-reduction layout ``(has_dict,
    slot_names)``."""
    if issubclass(cls, type) or getattr(cls, "__deepcopy__", None) is share:
        return SHARED
    if issubclass(cls, enum.Enum):
        # Members copy to themselves: through Enum.__deepcopy__ where it
        # exists, through reduction to cls(value) before that.
        default = all(
            getattr(cls, name, None) is getattr(enum.Enum, name, None)
            for name in ("__deepcopy__", "__reduce_ex__"))
        return SHARED if default else DEEPCOPY
    if (not cls.__flags__ & _HEAPTYPE or cls in copyreg.dispatch_table
            or any(_overrides(cls, name) for name in _REDUCTION_HOOKS)):
        return DEEPCOPY
    return (cls.__dictoffset__ != 0, tuple(copyreg._slotnames(cls)))


def clone(root):
    """A deep copy of ``root``: the object graph ``copy.deepcopy(root)``
    returns, built without ``deepcopy``'s per-object protocol lookups
    wherever the type allows."""
    memo = {}
    keep_alive = memo.setdefault(id(memo), []).append
    memo_get = memo.get
    shared = _SHARED_TYPES
    plan_of = plan
    deepcopy = copy.deepcopy
    new = object.__new__
    method = types.MethodType

    def copy_(x):
        y = memo_get(id(x), _NIL)
        if y is not _NIL:
            return y
        cls = type(x)
        if cls is dict:
            y = {}
            memo[id(x)] = y
            keep_alive(x)
            for key, value in x.items():
                if type(key) not in shared:
                    key = copy_(key)
                if type(value) not in shared:
                    value = copy_(value)
                y[key] = value
            return y
        if cls is list:
            y = []
            memo[id(x)] = y
            keep_alive(x)
            append = y.append
            for item in x:
                append(item if type(item) in shared else copy_(item))
            return y
        if cls is tuple:
            items = [item if type(item) in shared else copy_(item)
                     for item in x]
            # A tuple is memoized only after its items, and one of them
            # may have reached it through a cycle meanwhile.
            y = memo_get(id(x), _NIL)
            if y is not _NIL:
                return y
            for old, item in zip(x, items):
                if old is not item:
                    y = memo[id(x)] = tuple(items)
                    keep_alive(x)
                    return y
            return x
        if cls is method:
            y = memo[id(x)] = method(x.__func__, copy_(x.__self__))
            keep_alive(x)
            return y
        if cls in shared:
            return x
        layout = plan_of(cls)
        if layout is SHARED:
            shared.add(cls)
            return x
        if layout is DEEPCOPY:
            # The containers a world holds, in the memo order of their
            # reductions: a set's items before the set exists, a
            # defaultdict's factory before the dict, every other
            # container memoized before its items.
            if cls is set or cls is frozenset:
                y = memo[id(x)] = cls([
                    item if type(item) in shared else copy_(item)
                    for item in x])
                keep_alive(x)
                return y
            if cls is deque:
                y = memo[id(x)] = deque((), x.maxlen)
                keep_alive(x)
                append = y.append
                for item in x:
                    append(item if type(item) in shared else copy_(item))
                return y
            if cls is Random:
                # deepcopy builds Random(), seeded from os.urandom only
                # for setstate to overwrite; from Python 3.11 on,
                # __new__ leaves the seeding out.
                y = memo[id(x)] = Random.__new__(Random)
                keep_alive(x)
                y.setstate(x.getstate())
                return y
            if cls is defaultdict:
                factory = x.default_factory
                y = defaultdict(factory if type(factory) in shared
                                else copy_(factory))
            elif cls is OrderedDict and not x.__dict__:
                # A non-empty instance __dict__ is reduced as state.
                y = OrderedDict()
            else:
                return deepcopy(x, memo)
            memo[id(x)] = y
            keep_alive(x)
            for key, value in x.items():
                if type(key) not in shared:
                    key = copy_(key)
                if type(value) not in shared:
                    value = copy_(value)
                y[key] = value
            return y
        y = memo[id(x)] = new(cls)
        keep_alive(x)
        has_dict, slots = layout
        if has_dict:
            # deepcopy rebuilds the state in a detached dict and updates
            # the new __dict__ from it; filling the new __dict__ in place
            # gives the same graph (attribute names are strings, which
            # copy to themselves) without the extra dict.
            state = x.__dict__
            if state:
                fields = y.__dict__
                fields.update(state)
                for key, value in state.items():
                    if type(value) not in shared:
                        fields[key] = copy_(value)
        for name in slots:
            try:
                value = getattr(x, name)
            except AttributeError:
                continue
            setattr(y, name,
                    value if type(value) in shared else copy_(value))
        return y

    return copy_(root)
