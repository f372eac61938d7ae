"""Keyed random streams: bit-identity with numpy's own derivation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.ipic3d import IPICConfig
from repro.apps.mapreduce import MapReduceConfig
from repro.apps.mapreduce import common as mr_common
from repro.workloads import GEMSetup, exiting_fraction
from repro.workloads import keyed
from repro.workloads.keyed import (
    generator_from_state,
    generators,
    keyed_rng,
    reference_rng,
    spawn_states,
)

U32 = 2**32 - 1
SIGMAS = (0.1, 0.25, 0.75, 2.0)


def _ref_state(entropy, spawn_key):
    return np.random.SeedSequence(
        entropy=entropy, spawn_key=tuple(spawn_key)
    ).generate_state(4, np.uint64)


def _assert_rows_match(entropy, prefix, keys):
    states = spawn_states(entropy, prefix, keys)
    assert states.shape == (len(keys), 4) and states.dtype == np.uint64
    for key, row in zip(np.asarray(keys).tolist(), states):
        spawn_key = tuple(prefix) + tuple(key)
        assert np.array_equal(row, _ref_state(entropy, spawn_key)), spawn_key
        mine = generator_from_state(row)
        ref = reference_rng(entropy, spawn_key)
        assert mine.bit_generator.state == ref.bit_generator.state
        for sigma in SIGMAS:
            assert mine.lognormal(0.0, sigma) == ref.lognormal(0.0, sigma)
        assert mine.multinomial(1000, [0.6, 0.3, 0.1]).tolist() \
            == ref.multinomial(1000, [0.6, 0.3, 0.1]).tolist()
    return states


# ----------------------------------------------------------------------
# the port against numpy
# ----------------------------------------------------------------------

_word = st.one_of(st.sampled_from([0, 1, U32]),
                  st.integers(min_value=0, max_value=U32))


@settings(max_examples=60, deadline=None)
@given(entropy=_word,
       prefix=st.lists(_word, max_size=3),
       width=st.integers(min_value=0, max_value=3),
       data=st.data())
def test_spawn_states_match_numpy(entropy, prefix, width, data):
    keys = data.draw(st.lists(st.lists(_word, min_size=width,
                                       max_size=width),
                              min_size=1, max_size=6))
    _assert_rows_match(entropy, prefix, np.array(keys, dtype=np.int64)
                       .reshape(len(keys), width))


@settings(max_examples=60, deadline=None)
@given(entropy=_word, prefix=st.lists(_word, max_size=2).map(tuple),
       key=st.lists(_word, max_size=3).map(tuple))
def test_keyed_rng_matches_numpy(entropy, prefix, key):
    mine, ref = keyed_rng(entropy, prefix, key), \
        reference_rng(entropy, prefix + key)
    assert mine.bit_generator.state == ref.bit_generator.state
    assert mine.random(3).tolist() == ref.random(3).tolist()


def test_edge_words_match_numpy():
    for entropy in (0, 1, 2017, U32):
        _assert_rows_match(entropy, (11,),
                           [(0, 0), (0, U32), (U32, 0), (U32, U32)])
        _assert_rows_match(entropy, (), [(0,), (U32,)])
        # an empty spawn key: numpy skips the pool padding, which leaves
        # the same pool
        _assert_rows_match(entropy, (), np.zeros((2, 0), dtype=np.int64))
    # the longest spawn key the port covers
    _assert_rows_match(5, tuple(range(keyed.MAX_KEY_WORDS - 1)), [(U32,)])


def test_generators_match_numpy():
    keys = np.stack(divmod(np.arange(300), 7), axis=1)
    for sigma in SIGMAS:
        mine = [g.lognormal(0.0, sigma)
                for g in generators(2017, (11,), keys)]
        ref = [reference_rng(2017, (11,) + tuple(k)).lognormal(0.0, sigma)
               for k in keys.tolist()]
        assert mine == ref


# ----------------------------------------------------------------------
# words outside the shared layout take numpy's own path
# ----------------------------------------------------------------------

def _count_reference_rows(monkeypatch):
    calls = []
    real = keyed._reference_state

    def counting(entropy, spawn_key):
        calls.append(tuple(spawn_key))
        return real(entropy, spawn_key)

    monkeypatch.setattr(keyed, "_reference_state", counting)
    return calls


def test_multiword_key_rows_take_the_fallback(monkeypatch):
    keyed.fast_path()
    calls = _count_reference_rows(monkeypatch)
    keys = [(3, 4), (2**32, 1), (5, 2**40 + 7), (U32, U32), (2**63 - 1, 0)]
    _assert_rows_match(9, (11,), np.array(keys, dtype=np.int64))
    assert calls == [(11, 2**32, 1), (11, 5, 2**40 + 7), (11, 2**63 - 1, 0)]


def test_multiword_entropy_or_prefix_takes_the_fallback(monkeypatch):
    keyed.fast_path()
    calls = _count_reference_rows(monkeypatch)
    _assert_rows_match(2**32, (11,), [(1, 2), (3, 4)])
    _assert_rows_match(2**70 + 3, (), [(0,)])
    _assert_rows_match(7, (2**33,), [(1, 2)])
    assert len(calls) == 4
    for entropy, prefix, key in [(2**32, (), (1,)), (7, (2**33,), (1,)),
                                 (7, (1,), (2**64 + 1,))]:
        assert keyed_rng(entropy, prefix, key).random() \
            == reference_rng(entropy, prefix + key).random()


def test_invalid_words_raise_like_numpy():
    with pytest.raises(ValueError):
        spawn_states(1, (11,), [(-1, 0)])
    with pytest.raises(ValueError):
        keyed_rng(1, (11,), (-1, 0))
    with pytest.raises(TypeError):
        keyed_rng(1, (11,), (1.5, 0))
    with pytest.raises(ValueError, match="2-D"):
        spawn_states(1, (), [1, 2, 3])


def test_state_row_validation():
    with pytest.raises(ValueError, match="4 words"):
        generator_from_state(np.zeros(3, dtype=np.uint64))
    # a strided view is copied, not read through its raw pointer
    states = spawn_states(3, (1,), [(1,), (2,)])
    strided = np.ascontiguousarray(states.T).T[1]
    assert not strided.flags.c_contiguous
    assert generator_from_state(strided).random() \
        == reference_rng(3, (1, 2)).random()
    with pytest.raises(ValueError, match="uint64"):
        keyed._Precomputed(states[0]).generate_state(8, np.uint32)


# ----------------------------------------------------------------------
# the self-check
# ----------------------------------------------------------------------

def test_self_check_passes_on_this_numpy():
    assert keyed._self_check() is True


def test_forced_self_check_mismatch_switches_to_reference(monkeypatch):
    # a port that disagrees with numpy (as a changed numpy release would)
    wrong = tuple((x ^ 1, m) for x, m in keyed._HASH_B)
    monkeypatch.setattr(keyed, "_HASH_B", wrong)
    monkeypatch.setattr(keyed, "_fast", None)
    assert keyed.fast_path() is False
    calls = _count_reference_rows(monkeypatch)
    keys = [(0, 0), (17, 3)]
    _assert_rows_match(2017, (11,), keys)
    assert len(calls) == len(keys)
    assert keyed_rng(2017, (5,), (3, 4)).random() \
        == reference_rng(2017, (5, 3, 4)).random()
    assert [g.random() for g in generators(2017, (11,), keys)] \
        == [reference_rng(2017, (11,) + k).random() for k in keys]


# ----------------------------------------------------------------------
# the draw sites stay bit-identical
# ----------------------------------------------------------------------

def _ref_jitter(cfg, map_index, chunk):
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=cfg.seed, spawn_key=(11, map_index, chunk)))
    return float(rng.lognormal(0.0, cfg.chunk_jitter_sigma))


@pytest.mark.parametrize("sigma", [0.25, 0.6, 1.5])
def test_chunk_map_jitter_matches_numpy(sigma):
    mr_common._jitter_memo.clear()
    cfg = MapReduceConfig(nprocs=300, nchunks=17, seed=4242,
                          chunk_jitter_sigma=sigma)
    # spans two table blocks (300 * 17 > 4096)
    for m in range(cfg.nprocs):
        for c in range(cfg.nchunks):
            assert mr_common.chunk_map_jitter(cfg, m, c) \
                == _ref_jitter(cfg, m, c)
    # outside the table: derived one at a time
    for m, c in [(300, 0), (5, 17), (10**6, 3)]:
        assert mr_common.chunk_map_jitter(cfg, m, c) == _ref_jitter(cfg, m, c)


def test_chunk_map_jitter_tables_are_keyed_by_shape():
    mr_common._jitter_memo.clear()
    small = MapReduceConfig(nprocs=4, nchunks=8, seed=3)
    large = small.with_(nprocs=64)
    assert mr_common.chunk_map_jitter(small, 3, 7) == _ref_jitter(small, 3, 7)
    # a larger nprocs with the same (seed, sigma, nchunks) gets its own
    # table instead of indexing past the small one
    assert mr_common.chunk_map_jitter(large, 63, 7) == _ref_jitter(large, 63, 7)
    assert len(mr_common._jitter_memo) == 2
    assert mr_common.chunk_map_jitter(small.with_(chunk_jitter_sigma=0.0),
                                      1, 1) == 1.0
    assert len(mr_common._jitter_memo) == 2


def test_ipic3d_draw_sites_match_numpy():
    cfg = IPICConfig(nprocs=64, seed=2017)
    setup = GEMSetup(seed=99)

    def ref(entropy, key):
        return np.random.default_rng(np.random.SeedSequence(
            entropy=entropy, spawn_key=key))

    for rank in range(0, 64, 5):
        for step in (0, 1, 7, 39, 10_000, 10_039):
            assert cfg.mover_jitter(rank, step) == float(
                ref(cfg.seed, (5, rank, step))
                .lognormal(0.0, cfg.mover_jitter_sigma))
            for count in (0, 1_000, 244_000):
                frac = cfg.exit_fraction_mean * float(
                    ref(cfg.seed, (3, rank, step))
                    .lognormal(0.0, cfg.exit_sigma))
                assert cfg.exits(rank, step, count) \
                    == min(count, int(count * min(1.0, frac)))
            for n_exit in (0, 1, 5_000):
                expected = (0, 0, 0) if n_exit == 0 else tuple(
                    int(c) for c in ref(cfg.seed, (4, rank, step))
                    .multinomial(n_exit, list(cfg.hop_probabilities)))
                assert cfg.hop_split(rank, step, n_exit) == expected
            assert exiting_fraction(rank, step, setup) == min(
                1.0, 0.02 * float(ref(setup.seed, (rank, step))
                                  .lognormal(0.0, 0.75)))
