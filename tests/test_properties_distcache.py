"""Property-based fuzz tests (hypothesis) for the distance-cache decoder.

A sealed snapshot proves only that a distance cache arrived as it was
written, not that its writer was sound, and whatever the decoder returns
is served to Phase 3 as shortest-path distances.  Starting from the
encoding of an engine filled with random legal tables, each example
perturbs one record's key or value, or one header count.  The decoder
must then either raise :class:`~repro.errors.CorruptSnapshot` or return
tables that, loaded into a fresh engine, re-encode to exactly the
perturbed payload: nothing in between, nothing silently dropped, merged
or invented.
"""

from __future__ import annotations

import json
import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptSnapshot
from repro.persist import decode_distance_cache, encode_distance_cache
from repro.roadnet import ShortestPathEngine, line_network

NETWORK = line_network(6)
NODES = NETWORK.node_ids()
_RECORD = struct.Struct("<qqd")

exact_values = st.one_of(
    st.floats(0.0, 1e6), st.just(0.0), st.just(math.inf)
)
bound_values = st.floats(1e-3, 1e6)
any_float = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def engines(draw) -> ShortestPathEngine:
    """An undirected engine over ``NETWORK`` holding random legal tables."""
    keys = draw(st.lists(
        st.tuples(st.sampled_from(NODES), st.sampled_from(NODES))
        .filter(lambda pair: pair[0] != pair[1])
        .map(lambda pair: (min(pair), max(pair))),
        unique=True, max_size=10,
    ))
    split = draw(st.integers(0, len(keys)))
    exact = {key: draw(exact_values) for key in keys[:split]}
    bounded = {key: draw(bound_values) for key in keys[split:]}
    engine = ShortestPathEngine(NETWORK)
    engine.absorb_cache(exact, bounded)
    return engine


@st.composite
def perturbed(draw, payload: bytes) -> bytes:
    """``payload`` with one record key or value, or one header count, changed."""
    newline = payload.index(b"\n")
    header = json.loads(payload[:newline])
    records = list(_RECORD.iter_unpack(payload[newline + 1:]))
    targets = ["count"] + (["key", "value"] if records else [])
    target = draw(st.sampled_from(targets))
    if target == "count":
        field = draw(st.sampled_from(["exact", "bounded"]))
        header[field] = draw(st.one_of(
            st.integers(-1, 12), st.just(header[field] + 1),
            st.just(header[field] - 1),
        ))
    else:
        index = draw(st.integers(0, len(records) - 1))
        a, b, value = records[index]
        if target == "key":
            node = draw(st.one_of(
                st.sampled_from(NODES), st.integers(-2, 2 * len(NODES)),
            ))
            if draw(st.booleans()):
                a = node
            else:
                b = node
        else:
            value = draw(st.one_of(
                any_float, st.just(-value), st.just(value + 1.0),
            ))
        records[index] = (a, b, value)
    return (
        json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
        + b"".join(_RECORD.pack(*record) for record in records)
    )


def assert_decodes_canonically(payload: bytes) -> None:
    try:
        _header, exact, bounded = decode_distance_cache(payload)
    except CorruptSnapshot:
        return
    engine = ShortestPathEngine(NETWORK)
    engine.absorb_cache(exact, bounded)
    assert encode_distance_cache(engine) == payload


class TestDistanceCacheDecoder:
    @given(engines())
    def test_round_trip(self, engine):
        payload = encode_distance_cache(engine)
        _header, exact, bounded = decode_distance_cache(payload)
        assert (exact, bounded) == engine.export_cache()
        assert_decodes_canonically(payload)

    @settings(max_examples=300)
    @given(st.data())
    def test_one_perturbed_record_or_count_is_typed_or_exact(self, data):
        payload = encode_distance_cache(data.draw(engines()))
        assert_decodes_canonically(data.draw(perturbed(payload)))
