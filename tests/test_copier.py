"""The model checker's world copier against ``copy.deepcopy``.

``repro.modelcheck.copier.clone`` must return the object graph
``copy.deepcopy`` returns.  The tests walk both copies of a world in
lockstep with the original and compare them node by node, on fixed and
on generated action traces of every world, then check that both copies
behave the same under every enabled action.
"""

import copy
import copyreg
import dataclasses
import enum
import gc
import itertools
import random
import types
from collections import OrderedDict, defaultdict, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import Clock
from repro.immutable import share
from repro.modelcheck import model, poolworld
from repro.modelcheck.copier import ATOMIC, clone, plan
from repro.modelcheck.explorer import domain_for

WORLDS = model.POLICIES + poolworld.WORLDS


def _module(name):
    return poolworld if name in poolworld.WORLDS else model


def _edges(old, fast, ref):
    """Lockstep ``(old, fast, ref, label)`` children of three nodes of
    one type: what ``deepcopy`` copies out of ``old``."""
    if isinstance(old, dict):
        keys = list(old), list(fast), list(ref)
        assert len(keys[0]) == len(keys[1]) == len(keys[2])
        for k_old, k_fast, k_ref in zip(*keys):
            yield k_old, k_fast, k_ref, f"key {k_old!r}"
            yield old[k_old], fast[k_fast], ref[k_ref], f"[{k_old!r}]"
        if hasattr(old, "default_factory"):
            yield (old.default_factory, fast.default_factory,
                   ref.default_factory, ".default_factory")
        return
    if isinstance(old, (list, tuple, deque)):
        assert len(old) == len(fast) == len(ref)
        if isinstance(old, deque):
            assert old.maxlen == fast.maxlen == ref.maxlen
        for i, items in enumerate(zip(old, fast, ref)):
            yield items + (f"[{i}]",)
        return
    if isinstance(old, (set, frozenset)):
        # World sets hold ints, strings and tuples of them: elements
        # deepcopy shares.
        assert old == fast == ref
        by_id = {id(item) for item in old}
        assert all(id(item) in by_id for item in fast), "set element copied"
        assert all(id(item) in by_id for item in ref), "set element copied"
        return
    if isinstance(old, types.MethodType):
        assert old.__func__ is fast.__func__ is ref.__func__
        yield old.__self__, fast.__self__, ref.__self__, ".__self__"
        return
    if isinstance(old, random.Random):
        assert old.getstate() == fast.getstate() == ref.getstate()
        return
    slots = copyreg._slotnames(type(old))
    assert hasattr(old, "__dict__") or slots, \
        f"the walker cannot look inside {type(old).__name__}"
    if hasattr(old, "__dict__"):
        state = vars(old)
        assert list(state) == list(vars(fast)) == list(vars(ref))
        for name, value in state.items():
            yield value, vars(fast)[name], vars(ref)[name], f".{name}"
    for name in slots:
        present = hasattr(old, name)
        assert hasattr(fast, name) == hasattr(ref, name) == present
        if present:
            yield (getattr(old, name), getattr(fast, name),
                   getattr(ref, name), f".{name}")


def assert_same_graph(old, fast, ref):
    """``fast`` and ``ref`` are the same object graph copied out of
    ``old``: the same type at every node, the same shared leaves, every
    other node new and private to its copy, and the same aliasing."""
    partner = {}    # id(fast node) -> ref node
    taken = set()   # ids of ref nodes already paired
    stack = [(old, fast, ref, "world")]
    while stack:
        o, f, r, path = stack.pop()
        assert type(o) is type(f) is type(r), path
        if r is o:
            assert f is o, f"{path}: deepcopy shares it, clone copied it"
            continue
        assert f is not o, f"{path}: clone shares it, deepcopy copied it"
        assert f is not r, f"{path}: shared between the two copies"
        if id(f) in partner:
            assert partner[id(f)] is r, f"{path}: aliasing differs"
            continue
        assert id(r) not in taken, f"{path}: aliasing differs"
        partner[id(f)] = r
        taken.add(id(r))
        for o_child, f_child, r_child, label in _edges(o, f, r):
            stack.append((o_child, f_child, r_child, path + label))
    return len(partner)


def _observables(world, check):
    oracle = getattr(world, "oracle", None)
    return (
        world.state_key(),
        world.outcome,
        world.reason,
        list(world.violations),
        list(oracle.violations) if oracle is not None else None,
        check(world),
    )


def assert_clone_matches_deepcopy(name, world):
    """The graph check, then every enabled action applied to a clone
    and to a deep copy must leave the same observable state."""
    _, _, enabled, _, check = domain_for(name)
    assert not world.terminal
    fast, ref = clone(world), copy.deepcopy(world)
    assert assert_same_graph(world, fast, ref) > 100
    apply_action = _module(name).apply_action
    for action in enabled(world):
        assert _observables(apply_action(clone(world), action), check) \
            == _observables(apply_action(copy.deepcopy(world), action),
                            check), action


@pytest.mark.parametrize("name", WORLDS)
def test_clone_of_a_booted_world_matches_deepcopy(name):
    world = domain_for(name)[0](name)
    key = world.state_key()
    assert_clone_matches_deepcopy(name, world)
    assert world.state_key() == key


@st.composite
def explored_worlds(draw):
    """A world at the end of a generated trace of enabled actions, as
    the explorer reaches it (never past a terminal state)."""
    name = draw(st.sampled_from(WORLDS))
    boot, replay, enabled, _, _ = domain_for(name)
    world = boot(name)
    apply_action = _module(name).apply_action
    trace = []
    for _ in range(draw(st.integers(0, 3))):
        trace.append(draw(st.sampled_from(enabled(world))))
        apply_action(world, trace[-1])
        if world.terminal:
            # Terminal worlds are never expanded, so never copied.
            world = replay(name, trace[:-1])
            break
    return name, world


@settings(max_examples=25, deadline=None)
@given(explored_worlds())
def test_clone_matches_deepcopy_on_generated_traces(case):
    assert_clone_matches_deepcopy(*case)


def test_clone_keeps_a_wrapper_installed_on_the_class(monkeypatch):
    # Tracing wrappers replace Clock.charge before boot, and the
    # engines bind clock.charge when they are built: the copy's bound
    # methods must keep the wrapper and charge the copy's own clock.
    charged = []
    original = Clock.charge

    def wrapper(self, *args, **kwargs):
        charged.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Clock, "charge", wrapper)
    world = model.boot("rate_limit")
    child = clone(world)
    assert_same_graph(world, child, copy.deepcopy(world))
    charged.clear()
    model.apply_action(child, "touch:0")
    assert charged
    assert all(clock is child.kernel.clock for clock in charged)


@pytest.mark.parametrize("name", WORLDS)
def test_no_itertools_count_in_a_world(name):
    # Copying an itertools.count warns from Python 3.12 on and fails
    # from 3.14: world counters are plain ints.
    world = domain_for(name)[0](name)
    seen, stack = {id(world)}, [world]
    skip = (type, types.ModuleType, types.FunctionType, types.CodeType,
            types.BuiltinFunctionType)
    while stack:
        node = stack.pop()
        assert not isinstance(node, itertools.count), node
        for ref in gc.get_referents(node):
            if not isinstance(ref, skip) and id(ref) not in seen:
                seen.add(id(ref))
                stack.append(ref)
    assert len(seen) > 100


def test_shared_and_fallback_types():
    class Plain:
        def hook(self):
            return self

    class Slotted:
        __slots__ = ("a", "b")

    class Named:
        def __reduce__(self):
            # Reduced to a global name: deepcopy shares the object.
            return "NAMED"

    shared_tuple = (1, "x", None)
    node = Plain()
    node.items = [node, {1, 2}, shared_tuple, deque([3]), Named()]
    node.slotted = Slotted()
    node.slotted.a = node.items
    node.bound = node.hook
    out = clone(node)
    assert out.items[0] is out
    assert out.items[2] is shared_tuple
    assert out.items[4] is node.items[4]
    assert out.slotted.a is out.items
    assert not hasattr(out.slotted, "b")
    assert out.bound() is out
    assert plan(Plain) == (True, ())
    assert plan(Slotted) == (False, ("a", "b"))
    assert plan(Named) == "deepcopy"
    assert_same_graph(node, out, copy.deepcopy(node))


def clone_without_fallback(world):
    """``clone(world)`` while ``copy.deepcopy`` raises: a world's
    objects never reach the fallback."""
    def refuse(x, memo=None):
        raise AssertionError(f"clone handed a {type(x).__name__} to "
                             "copy.deepcopy")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(copy, "deepcopy", refuse)
        return clone(world)


@pytest.mark.parametrize("name", WORLDS)
def test_no_booted_world_reaches_the_fallback(name):
    world = domain_for(name)[0](name)
    assert_same_graph(world, clone_without_fallback(world),
                      copy.deepcopy(world))


@settings(max_examples=25, deadline=None)
@given(explored_worlds())
def test_no_explored_world_reaches_the_fallback(case):
    _, world = case
    assert_same_graph(world, clone_without_fallback(world),
                      copy.deepcopy(world))


class Node:
    def make(self):
        self.made += 1
        return self.made


def test_set_items_belong_to_the_copy():
    node = Node()
    node.bags = [{node, 1}, frozenset((node, "x"))]
    root = [node.bags[0], node]
    for out in (clone(root), copy.deepcopy(root)):
        copied = out[1]
        assert copied is not node
        assert out[0] == {copied, 1}
        assert copied.bags[1] == frozenset((copied, "x"))
        # A set is memoized only after its items: the item that refers
        # back to it while it is being copied holds a set of its own.
        assert copied.bags[0] == out[0] and copied.bags[0] is not out[0]


def test_deque_keeps_maxlen_and_aliasing():
    node = Node()
    queue = deque([node, 3, node], maxlen=4)
    queue.append(queue)
    out = clone([queue, node])
    assert out[0].maxlen == 4 and out[0][3] is out[0]
    assert out[0][0] is out[0][2] is out[1]
    assert_same_graph([queue, node], out, copy.deepcopy([queue, node]))


def test_defaultdict_factory_is_bound_to_the_copy():
    owner = Node()
    owner.made = 0
    owner.table = defaultdict(owner.make, {"a": [owner]})
    root = [owner.table, owner]
    out = clone(root)
    assert_same_graph(root, out, copy.deepcopy(root))
    table, copied = out
    assert table.default_factory.__self__ is copied
    assert table["a"][0] is copied
    assert table["b"] == 1 and copied.made == 1 and owner.made == 0
    # The factory is copied before the dict is memoized, so the owner
    # reached through it holds a dict of its own, as with deepcopy.
    assert copied.table is not table
    assert copied.table.default_factory.__self__ is copied


def test_ordered_dict_keeps_order_and_aliasing():
    table = OrderedDict()
    table["b"] = 1
    table["a"] = table
    table["c"] = [table]
    out = clone(table)
    assert list(out) == ["b", "a", "c"]
    assert out["a"] is out and out["c"][0] is out
    assert_same_graph(table, out, copy.deepcopy(table))


def test_random_continues_the_sequence_independently():
    rng = random.Random(7)
    rng.random()
    rng.gauss(0, 1)    # leaves a cached gauss_next in the state
    out = clone([rng, rng])
    assert out[0] is out[1] and out[0] is not rng
    assert type(out[0]) is random.Random
    assert_same_graph([rng, rng], out, copy.deepcopy([rng, rng]))
    ahead = [rng.gauss(0, 1), rng.random(), rng.random()]
    assert [out[0].gauss(0, 1), out[0].random(), out[0].random()] == ahead


@dataclasses.dataclass(frozen=True)
class Value:
    name: str
    sizes: tuple

    __deepcopy__ = share


def test_subclasses_and_own_reductions_keep_the_fallback(monkeypatch):
    class Tags(set):
        pass

    class Copied(Value):
        def __deepcopy__(self, memo):
            return Copied(self.name, self.sizes)

    class Inherited(Value):
        pass

    class Pair:
        def __init__(self, left, right):
            self.left, self.right = left, right

        def __reduce__(self):
            return Pair, (self.left, self.right)

    labelled = OrderedDict(k=[1])
    labelled.label = "kept"
    root = [Tags((1, 2)), Pair(1, [2]), labelled, {3}, deque([4]),
            Copied("c", ()), Inherited("i", ())]
    reached = []
    deepcopy = copy.deepcopy

    def spy(x, memo=None):
        reached.append(type(x))
        return deepcopy(x, memo)

    monkeypatch.setattr(copy, "deepcopy", spy)
    out = clone(root)
    monkeypatch.undo()
    assert reached == [Tags, Pair, OrderedDict, Copied]
    assert out[2].label == "kept"
    # A subclass with its own __deepcopy__ keeps the fallback; one that
    # inherits it is shared.
    assert plan(Copied) == "deepcopy" and out[5] is not root[5]
    assert plan(Inherited) == "shared" and out[6] is root[6]
    assert_same_graph(root, out, copy.deepcopy(root))


def test_a_shared_value_is_the_same_object_in_every_copy():
    value = Value("v", (1, 2))
    node = Node()
    node.value = value
    root = [value, {"v": value}, (value, 3), node]
    out, ref = clone(root), copy.deepcopy(root)
    assert plan(Value) == "shared"
    assert out[0] is ref[0] is value
    assert out[1]["v"] is ref[1]["v"] is value
    # A tuple of shared values copies to itself.
    assert out[2] is ref[2] is root[2]
    assert out[3] is not node and out[3].value is value
    assert_same_graph(root, out, ref)


def _immutable(value):
    """Nothing can change ``value`` in place: an atomic value, an enum
    member, a shared value, or a tuple, frozenset or read-only mapping
    of such values."""
    cls = type(value)
    if cls in ATOMIC or isinstance(value, enum.Enum) \
            or getattr(cls, "__deepcopy__", None) is share:
        return True
    if cls in (tuple, frozenset):
        return all(_immutable(item) for item in value)
    if cls is types.MappingProxyType:
        return all(_immutable(k) and _immutable(v)
                   for k, v in value.items())
    return False


def assert_shared_values_are_frozen(world):
    """Every object in ``world`` whose class copies by ``share`` is a
    frozen dataclass whose fields hold immutable values: a copy of the
    world holds the same object, so a change to it would reach both.
    Returns the shared classes met."""
    met = set()
    seen, stack = {id(world)}, [world]
    skip = (type, types.ModuleType, types.FunctionType, types.CodeType,
            types.BuiltinFunctionType)
    while stack:
        node = stack.pop()
        cls = type(node)
        if getattr(cls, "__deepcopy__", None) is share:
            met.add(cls)
            assert dataclasses.is_dataclass(cls) \
                and cls.__dataclass_params__.frozen, cls.__name__
            for field in dataclasses.fields(node):
                assert _immutable(getattr(node, field.name)), \
                    f"{cls.__name__}.{field.name}"
        for ref in gc.get_referents(node):
            if not isinstance(ref, skip) and id(ref) not in seen:
                seen.add(id(ref))
                stack.append(ref)
    return met


@pytest.mark.parametrize("name", WORLDS)
def test_shared_values_of_a_booted_world_are_frozen(name):
    met = {cls.__name__ for cls in assert_shared_values_are_frozen(
        domain_for(name)[0](name))}
    assert {"SystemConfig", "PolicyConfig", "CostModel", "EnclaveLayout",
            "Region", "Permissions", "EnclaveAttributes"} <= met


@settings(max_examples=25, deadline=None)
@given(explored_worlds())
def test_shared_values_of_an_explored_world_are_frozen(case):
    _, world = case
    assert_shared_values_are_frozen(world)
