"""Unit tests for the per-host replica store."""

import pytest

from repro.core.object_store import ObjectStore
from repro.errors import ProtocolError


def test_add_creates_then_increments():
    store = ObjectStore()
    assert store.add(7) == 1
    assert store.add(7) == 2
    assert store.affinity(7) == 2
    assert 7 in store
    assert len(store) == 1


def test_reduce_decrements_then_drops():
    store = ObjectStore()
    store.add(7)
    store.add(7)
    assert store.reduce(7) == 1
    assert store.reduce(7) == 0
    assert 7 not in store


def test_drop_removes_regardless_of_affinity():
    store = ObjectStore()
    store.add(1)
    store.add(1)
    store.drop(1)
    assert 1 not in store


def test_missing_object_raises():
    store = ObjectStore()
    with pytest.raises(ProtocolError):
        store.affinity(3)
    with pytest.raises(ProtocolError):
        store.reduce(3)
    with pytest.raises(ProtocolError):
        store.drop(3)


def test_objects_and_total_affinity():
    store = ObjectStore()
    store.add(1)
    store.add(2)
    store.add(2)
    assert store.objects() == [1, 2]
    assert store.total_affinity() == 3


def test_add_new_is_all_or_nothing():
    store = ObjectStore()
    store.add(4)
    assert store.add_new(range(5, 12, 3)) is None
    assert store.objects() == [4, 5, 8, 11]
    assert store.total_affinity() == 4
    assert store.add_new([20, 8, 21, 4]) == 8
    assert store.objects() == [4, 5, 8, 11]
    assert store.affinity(8) == 1
