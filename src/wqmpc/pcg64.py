"""NumPy's ``default_rng(seed)`` uniform stream, without ``numpy.random``.

``PCG64(seed).uniform(low, high, size)`` returns, bit for bit, what
``np.random.default_rng(seed).uniform(low, high, size)`` returns, call
after call, so a plant drawn here is the plant NumPy would draw.
Importing ``numpy.random`` costs a closed-loop run ~16 ms and ~4.6 MB
of peak RSS (nine Cython extensions, OpenSSL's ``hashlib``, ``secrets``)
to draw a few hundred numbers; this module costs neither.

Method, as NumPy does it:
1. ``SeedSequence(seed).generate_state(4, uint64)``: the seed's 32-bit
   words are hashed into a 4-word pool, which is hashed out into 8
   words (``_seed_state``);
2. PCG64 (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
   Statistically Good Algorithms for Random Number Generation", 2014):
   a 128-bit LCG seeded by ``pcg64_srandom_r``, state and increment from
   the words above, stepped on Python ints;
3. the XSL-RR output of each new state: its two 64-bit halves xor-ed,
   rotated right by its top 6 bits, in NumPy;
4. ``d = (next >> 11) * 2**-53``, then ``low + (high - low) * d``.

A draw costs ~0.3 µs against ~6 ns in ``numpy.random`` once imported
(x86-64), so this pays up to ~40k draws a process; a net3 plant draws
418.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["PCG64"]

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # SeedSequence's pool hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # ... and its output hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's 128-bit multiplier


def _hashmix(value: int, const: list[int], mult: int) -> int:
    """SeedSequence's word hash; steps the hash constant in ``const``."""
    value ^= const[0]
    const[0] = (const[0] * mult) & _M32
    value = (value * const[0]) & _M32
    return value ^ (value >> 16)


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ (r >> 16)


def _seed_state(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as ints."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    entropy = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = [_INIT_A]
    pool = [_hashmix(entropy[i] if i < len(entropy) else 0, const, _MULT_A)
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], const, _MULT_A))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(word, const, _MULT_A))
    const = [_INIT_B]
    out = [_hashmix(pool[i % _POOL], const, _MULT_B) for i in range(8)]
    # little-endian pairs of 32-bit words make each 64-bit word
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """A PCG64 stream seeded as ``np.random.default_rng(seed)`` seeds it;
    ``seed`` is any nonnegative int."""

    def __init__(self, seed: int) -> None:
        s0, s1, i0, i1 = _seed_state(seed)
        # pcg64_srandom_r: step from 0, add the initial state, step again
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self._state = ((self._inc + (s0 << 64 | s1)) * _MULT + self._inc) & _M128

    def uniform(self, low: float, high: float, size: int | tuple[int, ...]) -> np.ndarray:
        """``Generator.uniform`` for scalar bounds: a float64 array of
        shape ``size``, drawn in C order."""
        shape = (size,) if isinstance(size, int) else tuple(size)
        n = math.prod(shape)
        low, span = float(low), float(high) - float(low)
        if not math.isfinite(span):
            raise OverflowError("Range exceeds valid bounds")
        s, inc, states = self._state, self._inc, []
        for _ in range(n):
            s = (s * _MULT + inc) & _M128
            states.append(s.to_bytes(16, "little"))
        self._state = s
        lo, hi = np.frombuffer(b"".join(states), "<u8").astype(np.uint64).reshape(n, 2).T
        rot = hi >> np.uint64(58)
        x = hi ^ lo
        word = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        d = (word >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return (low + span * d).reshape(shape)
