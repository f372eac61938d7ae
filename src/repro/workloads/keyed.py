"""Keyed random streams: numpy ``SeedSequence`` spawns derived in batches.

Every per-key draw site in the simulator (per-(file, chunk) map jitter,
per-(rank, step) mover jitter and particle exits) builds
``default_rng(SeedSequence(entropy=seed, spawn_key=key))`` to draw one
or two values, and building the ``SeedSequence`` costs more than the
``PCG64`` seeding and the draw together.  This module derives the seed
material of many keys at once — the effect of counter-based keyed
streams (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11) — without changing a single drawn value.

The derivation is split at numpy's own seam (DESIGN.md §6):

* :func:`spawn_states` ports ``SeedSequence(entropy, spawn_key=prefix +
  key).generate_state(4, np.uint64)`` — the entropy-pool mixing and the
  state generation, with numpy's published hash constants in uint32
  arithmetic — to a whole array of keys at once.  The pool over the
  shared entropy and prefix words is computed once per (entropy, prefix)
  and only the key columns are mixed per row.
* :func:`generator_from_state` hands a derived row to numpy's ``PCG64``
  through an :class:`~numpy.random.bit_generator.ISeedSequence`; PCG64
  seeding and every sampler stay numpy's own code.

The first use runs a self-check against ``default_rng(SeedSequence(...))``
over a fixed set of keys; on any mismatch (a numpy release that changed
the derivation) every later call takes the reference path for the rest
of the process.  Rows whose words do not fit the shared layout (an
entropy or key value outside ``[0, 2**32)``) always take it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "STATE_WORDS",
    "generator_from_state",
    "generators",
    "keyed_rng",
    "reference_rng",
    "spawn_states",
]

# numpy.random.SeedSequence's published constants (bit_generator.pyx)
POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
MASK32 = 0xFFFFFFFF

#: uint64 words ``PCG64`` draws from its seed sequence
STATE_WORDS = 4


# ----------------------------------------------------------------------
# the SeedSequence port
# ----------------------------------------------------------------------

def _hashmix(value: int, hash_const: List[int]) -> int:
    value ^= hash_const[0]
    hash_const[0] = (hash_const[0] * MULT_A) & MASK32
    value = (value * hash_const[0]) & MASK32
    return value ^ (value >> XSHIFT)


def _mix(x: int, y: int) -> int:
    result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
    return result ^ (result >> XSHIFT)


def _initial_pool(entropy: int) -> Tuple[Tuple[int, ...], int]:
    """``SeedSequence.mix_entropy`` up to the end of its all-pairs
    mixing, a line-by-line transcription: the one-word entropy fills the
    pool (zero-padded, as numpy pads it when a spawn key follows).
    Returns the pool and the number of hashmix calls made so far."""
    hash_const = [INIT_A]
    mixer = [_hashmix(entropy if i == 0 else 0, hash_const)
             for i in range(POOL_SIZE)]
    for i_src in range(POOL_SIZE):
        for i_dst in range(POOL_SIZE):
            if i_src != i_dst:
                mixer[i_dst] = _mix(mixer[i_dst],
                                    _hashmix(mixer[i_src], hash_const))
    return tuple(mixer), POOL_SIZE * POOL_SIZE


#: spawn-key words (prefix + key) the port covers; longer keys take the
#: reference path
MAX_KEY_WORDS = 32

#: hashmix's multiplier sequence, data-independent: call ``k`` xors with
#: ``_HASH_A[k]`` and multiplies by ``_HASH_A[k + 1]``
_HASH_A: Tuple[int, ...] = tuple(
    (INIT_A * pow(MULT_A, i, 1 << 32)) & MASK32
    for i in range(POOL_SIZE * (POOL_SIZE + MAX_KEY_WORDS) + 1))

#: generate_state's (xor, multiplier) pair per output uint32 word
_HASH_B: Tuple[Tuple[int, int], ...] = tuple(
    ((INIT_B * pow(MULT_B, i, 1 << 32)) & MASK32,
     (INIT_B * pow(MULT_B, i + 1, 1 << 32)) & MASK32)
    for i in range(2 * STATE_WORDS))


def _absorb(mixer: list, k: int, word) -> int:
    """mix_entropy's tail loop for one more word: hash it into every
    pool word of ``mixer`` (in place) from hashmix call ``k`` on;
    returns the next call's index.  ``word`` and the pool words are
    Python ints (masked) or uint32 arrays (wrapping) alike."""
    hash_a = _HASH_A
    for i in range(POOL_SIZE):
        value = ((word ^ hash_a[k]) * hash_a[k + 1]) & MASK32
        k += 1
        value ^= value >> XSHIFT
        result = (MIX_MULT_L * mixer[i] - MIX_MULT_R * value) & MASK32
        mixer[i] = result ^ (result >> XSHIFT)
    return k


def _state(mixer: list) -> list:
    """``generate_state(4, np.uint64)`` from the final pool: four ints,
    or four uint64 arrays for a pool of uint32 arrays."""
    words = []
    for i, (xor, mult) in enumerate(_HASH_B):
        value = ((mixer[i % POOL_SIZE] ^ xor) * mult) & MASK32
        words.append(value ^ (value >> XSHIFT))
    if isinstance(words[0], np.ndarray):
        words = [w.astype(np.uint64) for w in words]
        return [lo | (hi << np.uint64(32))
                for lo, hi in zip(words[0::2], words[1::2])]
    return [lo | (hi << 32) for lo, hi in zip(words[0::2], words[1::2])]


#: (entropy, spawn-key prefix) -> (pool, hashmix cursor) after the
#: words every key of a draw site shares; a handful per run
_pool_memo: Dict[Tuple[int, Tuple[int, ...]], Tuple[Tuple[int, ...], int]] = {}


def _pool(entropy: int, prefix: Tuple[int, ...]
          ) -> Tuple[Tuple[int, ...], int]:
    memo_key = (entropy, prefix)
    hit = _pool_memo.get(memo_key)
    if hit is None:
        pool, k = _initial_pool(entropy)
        mixer = list(pool)
        for word in prefix:
            k = _absorb(mixer, k, word)
        if len(_pool_memo) >= 1 << 10:
            _pool_memo.clear()
        hit = _pool_memo[memo_key] = (tuple(mixer), k)
    return hit


def _one_state(entropy: int, prefix: Tuple[int, ...],
               key: Tuple[int, ...]) -> np.ndarray:
    """The state of one in-range key, in Python ints."""
    pool, k = _pool(entropy, prefix)
    mixer = list(pool)
    for word in key:
        k = _absorb(mixer, k, word)
    return np.array(_state(mixer), dtype=np.uint64)


def _fits(values: tuple) -> bool:
    """Whether ``values`` (entropy, then spawn-key words) are Python ints
    in the uint32 range — the shared one-word-per-value layout — and the
    key fits the port.  Everything else takes the reference path, which
    also raises numpy's errors for invalid words."""
    if len(values) > 1 + MAX_KEY_WORDS:
        return False
    for v in values:
        if type(v) is not int or not 0 <= v <= MASK32:
            return False
    return True


# ----------------------------------------------------------------------
# the first-use self-check
# ----------------------------------------------------------------------

#: (entropy, prefix, keys) compared against numpy on first use: zero and
#: all-ones words, several prefix and key widths, a long spawn key
_CHECK_CASES = (
    (0, (), [(0,), (1,), (MASK32,)]),
    (2017, (11,), [(0, 0), (1023, 63), (MASK32, 7)]),
    (MASK32, (7, 3), [(5, 0, MASK32), (0, 0, 0)]),
    (1, (1, 2, 3, 4, 5), [(6, 7)]),
    (3, tuple(range(MAX_KEY_WORDS - 2)), [(MAX_KEY_WORDS - 2, MASK32)]),
)

#: None until the self-check ran; then whether the port may be used
_fast: Optional[bool] = None


def _self_check() -> bool:
    for entropy, prefix, keys in _CHECK_CASES:
        states = _derived_states(entropy, prefix, np.array(keys))
        for key, row in zip(keys, states):
            expected = _reference_state(entropy, prefix + key).tolist()
            if row.tolist() != expected \
                    or _one_state(entropy, prefix, key).tolist() != expected:
                return False
            ref = reference_rng(entropy, prefix + key)
            try:
                mine = generator_from_state(row)
            except (TypeError, ValueError):
                return False
            if mine.bit_generator.state != ref.bit_generator.state \
                    or mine.random() != ref.random():
                return False
    return True


def fast_path() -> bool:
    """Whether the port passed its self-check in this process (runs the
    check on the first call)."""
    global _fast
    if _fast is None:
        _fast = _self_check()
    return _fast


# ----------------------------------------------------------------------
# public surface
# ----------------------------------------------------------------------

def reference_rng(entropy: int, spawn_key: Sequence[int]
                  ) -> np.random.Generator:
    """numpy's own derivation, the definition every keyed draw matches."""
    return np.random.default_rng(np.random.SeedSequence(
        entropy=entropy, spawn_key=tuple(spawn_key)))


def _reference_state(entropy: int, spawn_key: Sequence[int]) -> np.ndarray:
    return np.random.SeedSequence(
        entropy=entropy, spawn_key=tuple(spawn_key)
    ).generate_state(STATE_WORDS, np.uint64)


def _derived_states(entropy: int, prefix: Tuple[int, ...],
                    keys: np.ndarray) -> np.ndarray:
    """The port over ``keys`` (uniform width, every word in range)."""
    pool, k = _pool(entropy, prefix)
    mixer = [np.full(len(keys), word, dtype=np.uint32) for word in pool]
    for j in range(keys.shape[1]):
        k = _absorb(mixer, k, keys[:, j].astype(np.uint32))
    return np.stack(_state(mixer), axis=1)


def spawn_states(entropy: int, prefix: Sequence[int], keys) -> np.ndarray:
    """``SeedSequence(entropy=entropy, spawn_key=prefix + key)
    .generate_state(4, np.uint64)`` for every row of ``keys``.

    ``keys`` is an ``(n, m)`` integer array-like.  Returns an ``(n, 4)``
    C-contiguous uint64 array, bit-identical to numpy's derivation row
    by row; rows outside the shared uint32-word layout (and every row
    if the self-check failed) are numpy's own output."""
    prefix = tuple(prefix)
    keys = np.asarray(keys)
    if keys.ndim != 2:
        raise ValueError(f"keys must be a 2-D array, got shape {keys.shape}")
    n = keys.shape[0]
    if n == 0:
        return np.empty((0, STATE_WORDS), dtype=np.uint64)
    if not (fast_path() and _fits((entropy,) + prefix)
            and keys.dtype.kind in "iu"
            and len(prefix) + keys.shape[1] <= MAX_KEY_WORDS):
        return np.stack([_reference_state(entropy, prefix + tuple(k))
                         for k in keys.tolist()])
    in_range = ((keys >= 0) & (keys <= MASK32)).all(axis=1)
    if in_range.all():
        return _derived_states(entropy, prefix, keys)
    out = np.empty((n, STATE_WORDS), dtype=np.uint64)
    out[in_range] = _derived_states(entropy, prefix, keys[in_range])
    for i in np.flatnonzero(~in_range).tolist():
        out[i] = _reference_state(entropy, prefix + tuple(keys[i].tolist()))
    return out


class _Precomputed(ISeedSequence):
    """A seed sequence whose state is already derived: ``PCG64`` asks
    for exactly four uint64 words and gets the row.  Not spawnable —
    the keyed streams are leaves."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if self.state is None:
            raise ValueError("precomputed state already used for seeding")
        if n_words != STATE_WORDS or np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"precomputed state holds {STATE_WORDS} uint64 words, "
                f"asked for {n_words} of {np.dtype(dtype)}")
        return self.state


def _generator(state: np.ndarray) -> np.random.Generator:
    # PCG64 reads the words through a raw pointer: ``state`` must be a
    # C-contiguous uint64 array of STATE_WORDS
    seq = _Precomputed(state)
    gen = np.random.Generator(np.random.PCG64(seq))
    # seeding copied the words; the generator keeps ``seq`` alive, and
    # through it a row view that would pin the whole batch of states
    seq.state = None
    return gen


def generator_from_state(row) -> np.random.Generator:
    """The ``Generator`` ``default_rng`` builds from a seed sequence
    whose ``generate_state(4, np.uint64)`` is ``row``."""
    state = np.ascontiguousarray(row, dtype=np.uint64)
    if state.shape != (STATE_WORDS,):
        raise ValueError(f"state row must hold {STATE_WORDS} words, got "
                         f"shape {state.shape}")
    return _generator(state)


def generators(entropy: int, prefix: Sequence[int], keys
               ) -> Iterator[np.random.Generator]:
    """One generator per row of ``keys``, each identical to
    ``reference_rng(entropy, prefix + key)``."""
    prefix = tuple(prefix)
    if fast_path():
        for row in spawn_states(entropy, prefix, keys):
            yield _generator(row)
    else:
        for key in np.asarray(keys).tolist():
            yield reference_rng(entropy, prefix + tuple(key))


def keyed_rng(entropy: int, prefix: Tuple[int, ...], key: Tuple[int, ...]
              ) -> np.random.Generator:
    """The generator of one key — ``reference_rng(entropy, prefix +
    key)`` — derived in Python ints, no arrays; for per-call sites that
    draw from one key at a time."""
    if not (fast_path() and _fits((entropy,) + prefix + key)):
        return reference_rng(entropy, prefix + key)
    return _generator(_one_state(entropy, prefix, key))
