"""Error payloads: keyword arguments stored as attributes, with their defaults."""

import pytest

from modecert.errors import (
    AmbiguityError,
    NearPoleError,
    RegionTooSmallError,
    UnresolvedRegionError,
)


def test_list_payloads_default_to_empty():
    assert list(AmbiguityError("x").candidates) == []
    assert list(RegionTooSmallError("x").errors) == []


def test_region_too_small_names_no_region_by_default():
    # a report given an error table that never converges searched no region
    assert RegionTooSmallError("x").region is None


@pytest.mark.parametrize("cls,name,value", [
    (UnresolvedRegionError, "box", (0.0, 1.0, -1.0, 0.0)),
    (NearPoleError, "omega", 11.0 - 0.25j),
    (AmbiguityError, "candidates", [1.5, 2.5]),
    (RegionTooSmallError, "errors", [0.3, 0.1]),
])
def test_payload_is_stored_as_given(cls, name, value):
    err = cls("x", **{name: value})
    assert getattr(err, name) == value
    assert str(err) == "x"
