import pytest
from hypothesis import given, strategies as st

from rtensor import IndexHandle, fresh, fresh_many
from rtensor.errors import BoundsError


def test_fresh_is_true_variant():
    assert fresh().variant is True


def test_fresh_ids_distinct():
    h1, h2 = fresh(), fresh()
    assert h1.id != h2.id


def test_complement_flips_variant_only():
    h = fresh()
    assert (~h).variant is False
    assert (~h).id == h.id
    assert ~~h == h


def test_tilde_operator_is_complement():
    h = fresh()
    assert ~h == IndexHandle(h.id, False)
    assert ~~h == h


def test_fresh_many():
    handles = fresh_many(3)
    assert len({h.id for h in handles}) == 3
    assert all(h.variant for h in handles)
    assert fresh_many(0) == []


def test_fresh_many_negative():
    with pytest.raises(ValueError):
        fresh_many(-1)


def test_forcing_variants():
    h = fresh()
    assert IndexHandle(h.id, False) == ~h
    assert IndexHandle((~h).id, True) == h
    assert IndexHandle(h.id) == h  # the true variant is the default


def test_variant_sensitive_equality_refines_identity():
    h = fresh()
    assert h != ~h
    assert h.id == (~h).id


def test_orbit_closed_under_complement():
    h = fresh()
    orbit = {h, ~h}
    assert {~x for x in orbit} == orbit
    assert len(orbit) == 2


@given(st.integers(min_value=0, max_value=64))
def test_freshness_no_duplicates(n):
    ids = [h.id for h in fresh_many(n)]
    assert len(set(ids)) == n


def test_a_negative_count_of_fresh_indices_is_a_bounds_error():
    with pytest.raises(BoundsError, match="count must be nonnegative, got -1"):
        fresh_many(-1)
