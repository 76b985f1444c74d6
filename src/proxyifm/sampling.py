"""Keyed Monte-Carlo sampling: the one chunk contract of every sampler.

A run's shots are cut into chunks of ``MC_CHUNK`` shots (``Chunks``),
and each chunk draws from its own counter-based stream keyed on (seed,
chunk), ``_Stream``: SplitMix64's finalizer of a counter in integer
arithmetic.  A shot's draws so depend only on the seed and the shot
index, and on neither numpy's RNG nor its SIMD dispatch (the ``expm1``
and ``log1p`` that make clicks of them still do).  Every sampler takes
the offset ``start`` of its first shot, a multiple of ``MC_CHUNK``, so a
caller can draw a run one chunk at a time and get the draws of the
whole-run call, and a short run is the prefix of a longer one with the
same seed.  The streams hold shots 0 to 2**41 - 1 (2**24 chunks), and
``Chunks`` refuses a run past them when it is built.

The two draws are ``sample_gaps``, the clicks of independent cells, and
``sample_categorical``, one index per shot from a cdf.  The first draws
every chunk into one ``round_buffer`` that its caller keeps, and holds
that plus the chunk's click keys ``shot << s | cell``.  ``flatten_cells``
is the one layout of per-terminal arrays as (terminal, bin) cells, for
the samplers and the runner's tables.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import StateTooLargeError

# Fixed Monte-Carlo chunk size: results are a pure function of (seed, shot
# index, cell index), independent of how a caller batches or parallelises.
MC_CHUNK = 1 << 17

# Bytes of uniforms ``sample_gaps`` holds at a time: a block is
# max(1, _DRAW_BYTES // (8 * cells)) rounds of one uniform per cell.
_DRAW_BYTES = 1 << 20


class Chunks:
    """``draw(count, first)`` for each ``MC_CHUNK`` of the rows (shots, for
    a Monte-Carlo table) ``start`` to ``start + rows - 1``, afresh on every
    pass: a streamed table's column chunks, or a sampler's chunks.

    ``start`` must be a chunk boundary, and the rows must end by shot
    2**41, the keyed streams' last (``StateTooLargeError`` past it).
    """

    def __init__(self, rows: int, draw, start: int = 0):
        if rows < 1:
            raise ValueError(f"a stream needs rows (shots) >= 1, got {rows}")
        if start < 0 or start % MC_CHUNK:
            raise ValueError(f"start {start} is not a non-negative multiple "
                             f"of {MC_CHUNK}")
        if start + rows > 1 << 41:
            raise StateTooLargeError(
                f"a Monte-Carlo run of {rows} shots from shot {start} reaches "
                f"shot {start + rows - 1}, past the keyed streams' 2**24 "
                f"chunks of {MC_CHUNK} shots")
        self.rows, self.draw, self.start = rows, draw, start

    def __iter__(self):
        stop = self.start + self.rows
        for first in range(self.start, stop, MC_CHUNK):
            yield self.draw(min(MC_CHUNK, stop - first), first)


# SplitMix64 (Steele, Lea & Flood 2014): the counter increment, and the
# finalizer's xor-shift-multiply steps (an xor-shift by 31 ends it).
_GAMMA = 0x9E3779B97F4A7C15
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
_MASK = (1 << 64) - 1
# Uniforms ``_Stream`` mixes at a time.
_BLOCK = 1 << 14


def _mix64(z: int) -> int:
    """SplitMix64's finalizer, a bijection of 64-bit words."""
    for shift, multiplier in _MIX:
        z = (z ^ z >> shift) * multiplier & _MASK
    return z ^ z >> 31


class _Stream:
    """The uniforms of one (seed, chunk) key, a counter-based stream
    (Salmon et al. 2011) on SplitMix64's finalizer.

    Uniform k of the chunk from shot ``first`` is
    ``(mix64(key + c * _GAMMA) >> 11) * 2**-53`` for the counter
    ``c = (first // MC_CHUNK) * 2**40 + k + 1`` (mod 2**64), ``key`` the
    seed's 64-bit words folded through ``mix64``, low word first.  Two
    uniforms of a seed never share a counter, so never a mixed word: a run
    holds at most 2**24 chunks (``Chunks`` refuses more), and a chunk at
    most 2**40 uniforms (``StateTooLargeError`` past them).  ``random``
    serves ``size`` or fills a C-contiguous float64 ``out``, as one stream
    over its calls; ``drawn`` counts the uniforms served.
    """

    def __init__(self, seed: int, first: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"a seed must be >= 0, got {seed}")
        key = _mix64(seed & _MASK)
        while seed := seed >> 64:
            key = _mix64(key ^ seed & _MASK)
        self.base = (key + ((first // MC_CHUNK) << 40) * _GAMMA) & _MASK
        self.drawn = 0

    def random(self, size=None, out=None) -> np.ndarray:
        out = np.empty(size) if out is None else out
        bits = out.reshape(-1, copy=False).view(np.uint64)
        n = len(bits)
        if self.drawn + n > 1 << 40:
            raise StateTooLargeError("a Monte-Carlo chunk needs more than "
                                     "2**40 uniforms of its keyed stream")
        steps = np.arange(min(n, _BLOCK), dtype=np.uint64) * _GAMMA
        spare = np.empty_like(steps)
        for at in range(0, n, _BLOCK):
            block = bits[at:at + _BLOCK]
            temp = spare[:len(block)]
            counter = self.drawn + at + 1
            np.add(steps[:len(block)], (self.base + counter * _GAMMA) & _MASK,
                   out=block)
            for shift, multiplier in _MIX:
                np.right_shift(block, shift, out=temp)
                block ^= temp
                block *= multiplier
            np.right_shift(block, 31, out=temp)
            block ^= temp
            block >>= 11
        self.drawn += n
        # 53-bit integers, so exact as int64 and as float64.
        uniforms = bits.view(np.float64)
        np.copyto(uniforms, bits.view(np.int64), casting="unsafe")
        uniforms *= 2.0**-53
        return out


def _sample_chunks(shots: int, seed: int, draw, start: int = 0) -> tuple:
    """``draw(stream, chunk, count)`` for each ``Chunks`` chunk of ``shots``
    shots from ``start``, ``stream`` the ``_Stream`` keyed on ``(seed,
    chunk)``.  The tuples of arrays ``draw`` returns are joined over the
    chunks in order (one chunk's are returned as they are)."""
    parts = list(Chunks(
        shots, lambda count, chunk: draw(_Stream(seed, chunk), chunk, count),
        start))
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


def categorical_cdf(probs: np.ndarray) -> tuple:
    """The cdf ``sample_categorical`` places its uniforms on, with its
    guide table (``_guide``)."""
    return _guide(np.cumsum(probs / probs.sum()))


def _guide(cdf: np.ndarray) -> tuple:
    """``(cdf, first, entry, crowded)``: ``cdf`` and the indexed-search
    table (Chen & Asau 1974) that ``_place`` looks uniforms up in.

    The unit interval is cut into g buckets ``[k / g, (k + 1) / g)``, g a
    power of two, so that ``u * g`` and ``k / g`` are exact: the least at
    least ``2 len(cdf)``, but at most ``MC_CHUNK``, as a longer table
    would cost more to build and hold than a chunk's uniforms save (a cdf
    longer than half a chunk so gets crowded buckets).  ``first[k]``
    counts the cdf entries at most ``k / g``: the answer for any uniform
    of the bucket, but for the one cdf entry the bucket may hold,
    ``entry[k]``, the cdf at ``first[k]`` (clipped into the cdf).  A
    bucket holding more entries is marked -1 in ``first`` and +inf in
    ``entry``, and ``crowded`` tells whether any is.
    """
    g = min(1 << (2 * len(cdf) - 1).bit_length(), MC_CHUNK)
    guide = np.searchsorted(cdf, np.arange(g + 1) / g, side="right")
    first = guide[:-1]
    entry = cdf.take(first, mode="clip")
    crowded = np.diff(guide) > 1
    first[crowded], entry[crowded] = -1, np.inf
    return cdf, first, entry, bool(crowded.any())


def _place(table: tuple, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, u, side="right")`` for uniforms ``u`` in [0, 1),
    clamped to the last index (the u ~ 1.0 edge), by ``_guide``'s table.

    Each uniform's bucket gives its first candidate index, and one
    comparison with the cdf entry there settles it; only the uniforms of
    crowded buckets are searched.  The lookups are made in place in the
    result, so the one temporary beside ``u`` and the result is a bool
    per uniform.
    """
    cdf, first, entry, crowded = table
    g = len(first)
    found = np.empty(len(u), dtype=np.intp)
    # Each take reads an element's bucket before it writes there.
    np.multiply(u, g, out=found, casting="unsafe")      # floor(u * g)
    np.take(entry, found, out=found.view(np.float64), mode="clip")
    passed = found.view(np.float64) <= u
    np.multiply(u, g, out=found, casting="unsafe")
    np.take(first, found, out=found, mode="clip")
    # Past the last entry the comparison gives len(cdf) + 1, clamped
    # below; a crowded bucket's -1 is searched.
    found += passed
    if crowded:
        search = np.flatnonzero(found < 0)
        found[search] = np.searchsorted(cdf, u[search], side="right")
    np.minimum(found, len(cdf) - 1, out=found)
    return found


def sample_categorical(table: tuple, shots: int, seed: int,
                       start: int = 0) -> np.ndarray:
    """Per shot, the index ``k`` drawn with probability ``cdf[k] - cdf[k-1]``
    from a ``categorical_cdf`` table.

    One keyed uniform per shot is placed on the cdf by indexed search
    (``_place``: one bucket lookup and one comparison, with the result of
    ``searchsorted(side="right")``), chunk by chunk.
    """
    (draws,) = _sample_chunks(
        shots, seed,
        lambda stream, chunk, count: (_place(table, stream.random(count)),),
        start)
    return draws


def flatten_cells(per_terminal: dict[str, np.ndarray]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-terminal arrays as one vector of (terminal, bin) cells.

    Returns ``(values, terminal, bin)``: cell ``k`` holds ``values[k]``,
    bin ``bin[k]`` of the ``terminal[k]``-th key of ``per_terminal``.  Both
    index columns are int32.
    """
    arrays = list(per_terminal.values())
    lengths = [len(a) for a in arrays]
    # The leading empty arrays give the dtypes when there is no terminal.
    return (np.concatenate([np.zeros(0), *arrays]),
            np.repeat(np.arange(len(arrays), dtype=np.int32), lengths),
            np.concatenate([np.zeros(0, dtype=np.int32),
                            *(np.arange(n, dtype=np.int32) for n in lengths)]))


def _rounds(shots, p):
    """Rounds that pass a cell of click probability ``p`` over ``shots``
    shots but about once in 1e6: its clicks, at most their mean plus five
    standard deviations, the gap past the last shot, and one to spare."""
    mean = shots * p
    return np.ceil(mean + 5 * np.sqrt(mean * (1 - p))) + 2


def round_buffer(cells: int) -> np.ndarray:
    """The ``buffer`` of ``sample_gaps``: ``_DRAW_BYTES`` of rounds, or one."""
    return np.empty(max(1, _DRAW_BYTES // (8 * max(1, cells))) * cells)


def sample_gaps(log_q: np.ndarray, densest: float, buffer: np.ndarray, shots: int,
                seed: int, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The ``(shot, cell)`` of every click of independent cells, in
    (shot, cell) order, for cells of ``log1p(-p)`` ``log_q``, the largest
    ``p`` being ``densest``; ``cell`` is an intp index.

    Each cell's clicks are found by geometric skipping: the gap from one
    click to the next is ``floor(log1p(-u) / log1p(-p)) + 1`` for a uniform
    ``u``, so that P(gap > k) = (1 - p)^k.  A chunk's stream is read as
    rounds of one uniform per cell: the r-th round holds every cell's r-th
    gap.  A chunk first draws the rounds that pass its densest cell but
    about once in 1e6 (``_rounds``: that cell's click count plus a few
    standard deviations), in row blocks of at most ``_DRAW_BYTES`` of
    uniforms, and stops as soon as every cell has passed its last shot; a
    cell still short after that budget gets further blocks sized from the
    cells still live.  A chunk so costs about (the densest cell's click
    count + a few sigma) x cells uniforms, capped at one ``_DRAW_BYTES``
    block at a time.  A cell's k-th gap sits at a fixed place in the
    chunk's stream, so the clicks are a pure function of (``log_q``, shot
    indices, seed), whatever the blocks.

    Every chunk draws into ``buffer``, a ``round_buffer(len(log_q))`` kept
    per distribution, so it holds those pages plus its clicks, whose keys
    ``shot << s | cell`` (``s`` the bit length of ``cells - 1``) are built
    in the block, exact as ``shot < MC_CHUNK``; no array returned shares it.
    """
    cells = len(log_q)
    shift = (cells - 1).bit_length()

    def draw(stream, chunk, count):
        # Every gap is at least 1, so count + 1 rounds pass every cell.
        need = int(min(count + 1, _rounds(count, densest)))
        pos = np.full(cells, -1.0)       # each cell's last click so far
        keys = [np.zeros(0, dtype=np.int64)]
        while (pos < count).any():
            if need == 0:                # rare: a cell outran the budget
                live = pos < count
                need = int(_rounds(count - 1 - pos[live],
                                   -np.expm1(log_q[live])).max())
            block = buffer[:need * cells].reshape(-1, cells)
            need -= len(block)
            stream.random(out=block)
            np.negative(block, out=block)
            np.log1p(block, out=block)
            # A p = 0 cell gets the gap x / -0.0 = inf, or 0 / -0.0 = NaN
            # when u = 0; its position then never compares below count, so
            # it never clicks and never holds the loop.
            np.divide(block, log_q, out=block)
            np.floor(block, out=block)
            block += 1
            block[0] += pos
            np.cumsum(block, axis=0, out=block)
            pos = block[-1].copy()
            hit = block < count
            block *= 1 << shift
            block += np.arange(cells)
            keys.append(block[hit].view(np.int64))      # made int64 in place
            np.copyto(keys[-1], keys[-1].view(np.float64), casting="unsafe")
        keys = np.concatenate(keys)
        keys.sort()
        shot = keys >> shift
        shot += chunk
        keys &= (1 << shift) - 1
        return shot, keys

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _sample_chunks(shots, seed, draw, start)
