"""Deterministic random streams used for problem generation and noise.

Reproducibility across implementations (and languages) is part of the file
format contract, so the generator is pinned down to the bit level rather than
delegated to numpy's (version- and library-specific) bit generators.

Stream definition
-----------------
State update and output mixing are splitmix64:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z <- (z xor (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    output: z xor (z >> 31)

Derived draws, each consuming outputs in order:

    gaussian: w1, w2 consecutive outputs;
              u1 = ((w1 >> 11) + 1) * 2^-53           in (0, 1]
              u2 = (w2 >> 11) * 2^-53
              g  = sqrt(-2 ln u1) * cos(2 pi u2)

No Box-Muller spare is cached: every gaussian consumes exactly two outputs,
so positions in the stream are a pure function of the draw count.

Bulk draws
----------
The stream is counter-based: output i (from 1) of a stream whose state is s
is mix64 of s + i * 0x9E3779B97F4A7C15 mod 2^64. One kernel, ``_gaussians``,
uses this to draw n gaussians from each of many streams at once: it makes
all 2n words of every stream in one pass of numpy ``uint64`` arithmetic,
which wraps mod 2^64 like the definition, and forms u1 and u2 exactly in
float64. ``gaussian_vector`` is its one-stream case, and
``substream_gaussians`` its case for a run of consecutive substreams of one
seed, whose seeds it derives in ``uint64`` as well. ``ln`` and ``cos`` are
still applied per element with ``math.log`` and ``math.cos``, in one ``map``
over the whole block: numpy's vectorised ``log`` differs from the C
library's in the last bit on about 0.35% of inputs, and its ``cos`` is not
guaranteed to match either, which would move generated problems and noise
off the contract. ``sqrt`` and the products are correctly rounded in both
libraries, so each row of a bulk draw is bit for bit the sequence of scalar
``gaussian`` draws of its stream, and ``gaussian`` stays the reference it is
tested against.

Seeds are integers in [0, 2^64), the stream's state space. Every entry
point that takes a seed refuses any other value with ValueError rather than
reducing it mod 2^64 or truncating it to an integer, either of which would
build another seed's draws under the seed it was given. Draw counts and
substream indices are integers >= 0, checked by ``_size`` alike: a bool or
a float is refused rather than read as 1 or truncated.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def mix64(value: int) -> int:
    """Stateless splitmix64 output function of a 64-bit value."""
    z = (value + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _seed_word(seed: int) -> int:
    """seed as a 64-bit word; ValueError unless an integer in [0, 2**64).

    The one seed check: an int, or any type that operator.index accepts
    (np.uint64, say); a bool, a float, even an integral one, or a string is
    refused rather than truncated or parsed into another seed's draws.
    """
    try:
        word = operator.index(seed)
    except TypeError:
        word = -1
    if isinstance(seed, bool) or not 0 <= word <= _MASK:
        raise ValueError(f"seed must be in [0, 2**64) as an integer, got {seed!r}")
    return word


def _size(value, name):
    """value as an int; ValueError unless an integer >= 0.

    The one check of a draw count and of a substream index: a bool is not
    a size (True would be 1), and a float is refused even when integral.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    return int(value)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's output mixing of each word of a ``uint64`` array."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _gaussians(states: np.ndarray, n: int) -> np.ndarray:
    """(len(states), n) gaussians; row i is ``gaussian_vector(n)`` of a
    stream whose state is states[i] (a ``uint64`` array)."""
    steps = np.arange(1, 2 * n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    words = _mix(states[:, None] + steps) >> np.uint64(11)
    u1 = (words[:, 0::2] + np.uint64(1)).astype(float) * 2.0**-53
    u2 = words[:, 1::2].astype(float) * 2.0**-53
    size = u1.size
    lg = np.fromiter(map(math.log, u1.ravel().tolist()), float, size)
    cs = np.fromiter(map(math.cos, (2.0 * math.pi * u2).ravel().tolist()), float, size)
    return (np.sqrt(-2.0 * lg) * cs).reshape(u1.shape)


class SplitMix64:
    """Sequential splitmix64 stream with uniform and gaussian draws."""

    def __init__(self, seed: int):
        self._state = _seed_word(seed)

    def next_uint64(self) -> int:
        out = mix64(self._state)
        self._state = (self._state + _GAMMA) & _MASK
        return out

    def gaussian(self) -> float:
        w1 = self.next_uint64()
        w2 = self.next_uint64()
        u1 = ((w1 >> 11) + 1) * 2.0**-53
        u2 = (w2 >> 11) * 2.0**-53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def gaussian_vector(self, n: int) -> np.ndarray:
        """n gaussian draws, equal bit for bit to n calls of ``gaussian``.

        n is an integer >= 0 (ValueError otherwise, a bool or a float
        included).
        """
        g = _gaussians(np.array([self._state], dtype=np.uint64), _size(n, "n"))[0]
        self._state = (self._state + 2 * g.size * _GAMMA) & _MASK
        return g

    def unit_vector(self, n: int) -> np.ndarray:
        """Uniform direction on the unit sphere (normalized gaussian draw)."""
        while True:
            g = self.gaussian_vector(n)
            norm = float(np.linalg.norm(g))
            if norm > 1e-300:
                return g / norm


def substream_seed(seed: int, index: int) -> int:
    """Seed for the index-th derived stream of a base seed.

    Defined as mix64(seed xor ((index + 1) * 0x9E3779B97F4A7C15 mod 2^64));
    part of the noise-model determinism contract. seed is checked as every
    seed is, and index must be an integer >= 0 (ValueError otherwise, a bool
    or a float included).
    """
    return mix64(_seed_word(seed) ^ (((_size(index, "index") + 1) * _GAMMA) & _MASK))


def substream_gaussians(seed: int, first: int, count: int, n: int) -> np.ndarray:
    """(count, n) gaussians; row i is
    ``SplitMix64(substream_seed(seed, first + i)).gaussian_vector(n)``.

    The count substream seeds are derived in ``uint64`` by the same formula
    as ``substream_seed``, and the rows are drawn with one kernel call.
    first, count and n must be integers >= 0, and seed a seed (ValueError
    otherwise, a bool or a float included).
    """
    first, count, n = _size(first, "first"), _size(count, "count"), _size(n, "n")
    index = np.arange(count, dtype=np.uint64) + np.uint64((first + 1) & _MASK)
    keys = (index * np.uint64(_GAMMA)) ^ np.uint64(_seed_word(seed))
    return _gaussians(_mix(keys + np.uint64(_GAMMA)), n)
