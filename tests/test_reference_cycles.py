"""Recursive helpers recurse at module level: a function that calls itself
through a closure is a reference cycle, so everything it built waits for the
cyclic collector instead of being freed when the call ends."""

import gc

import pytest

from polysplit import arrangements, plethysm, rings, types
from polysplit.types import parse_type

CALLS = {
    "types.enumerate_types": lambda: types.enumerate_types.__wrapped__(5),
    "rings.partitions": lambda: list(rings.partitions(5)),
    "arrangements.enumerate_arrangements":
        lambda: arrangements.enumerate_arrangements(parse_type("1^4"), parse_type("2,1^2")),
    "plethysm.powerfree":
        lambda: plethysm.powerfree(rings.ring_from_token("Z"), [1, 2, 3, 4], 2, (2, 3)),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_a_second_call_leaves_nothing_for_the_collector(name):
    call = CALLS[name]
    call()  # whatever the call caches is in place now
    gc.collect()
    gc.disable()
    try:
        call()
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0
