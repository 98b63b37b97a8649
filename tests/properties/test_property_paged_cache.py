"""Stateful property test: the paged cache's incremental mirror stays coherent.

Two sibling :class:`PagedLayerKVCache` objects share one small arena and
are driven through generated interleavings of append / truncate /
adopt-then-fork / evict / release, each mirrored onto a contiguous
:class:`LayerKVCache` oracle.  Reads are a *rule*, not an invariant, so
the machine also explores mutation sequences with no read in between --
the watermark must survive ``append -> truncate -> append`` unread.  Every
read must be bitwise equal to a from-scratch ``arena.gather`` over the
block table and to the oracle; teardown must leave the arena empty.
"""

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import ArenaExhaustedError
from repro.memory import KVArena, PagedLayerKVCache
from repro.model.kv_cache import LayerKVCache

H, D, BT = 2, 4, 4
N_BLOCKS = 20  # tight enough that appends, forks and evictions exhaust it
MAX_LEN = 48

which = st.integers(0, 1)
seeds = st.integers(0, 2**16)


class PagedMirrorMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.arena = KVArena(N_BLOCKS, H, BT, D)
        self.paged = [PagedLayerKVCache(self.arena) for _ in range(2)]
        self.oracle = [LayerKVCache(H, D, capacity=4) for _ in range(2)]

    # -------------------------------------------------------------- helpers
    def _append(self, i: int, n: int, seed: int) -> bool:
        """Append ``n`` random tokens to cache ``i`` and, when the arena
        had room, to its oracle.  Exhaustion must leave the cache as it
        was (checked by the read that follows)."""
        rng = np.random.default_rng(seed)
        k = rng.standard_normal((H, n, D)).astype(np.float32)
        v = rng.standard_normal((H, n, D)).astype(np.float32)
        old = self.oracle[i].positions
        first = int(old[-1]) + 1 if len(old) else 0
        pos = np.arange(first, first + n, dtype=np.int64)
        try:
            self.paged[i].append(k, v, pos)
        except ArenaExhaustedError:
            self._read(i)
            return False
        self.oracle[i].append(k, v, pos)
        return True

    def _read(self, i: int) -> None:
        paged, oracle = self.paged[i], self.oracle[i]
        keys, values = paged.kv()
        n = len(oracle)
        assert len(paged) == n
        ref_k = np.empty((H, n, D), dtype=np.float32)
        ref_v = np.empty((H, n, D), dtype=np.float32)
        self.arena.gather(paged.block_ids, n, ref_k, ref_v)
        np.testing.assert_array_equal(keys, ref_k)
        np.testing.assert_array_equal(values, ref_v)
        np.testing.assert_array_equal(keys, oracle.keys)
        np.testing.assert_array_equal(values, oracle.values)
        np.testing.assert_array_equal(paged.positions, oracle.positions)

    # ---------------------------------------------------------------- rules
    @rule(i=which, n=st.integers(1, 9), seed=seeds)
    def append(self, i, n, seed):
        if len(self.oracle[i]) + n <= MAX_LEN:
            self._append(i, n, seed)

    @rule(i=which, frac=st.floats(0.0, 1.0))
    def truncate(self, i, frac):
        n = int(frac * len(self.oracle[i]))
        self.paged[i].truncate(n)
        self.oracle[i].truncate(n)

    @precondition(
        lambda self: any(
            len(self.oracle[i]) == 0 and len(self.oracle[1 - i]) >= BT
            for i in (0, 1)
        )
    )
    @rule(
        frac=st.floats(0.0, 1.0),
        cut=st.integers(0, BT - 1),
        n_tail=st.integers(1, BT),
        seed=seeds,
    )
    def adopt_then_write(self, frac, cut, n_tail, seed):
        """An empty cache adopts its sibling's leading full blocks; with
        ``cut > 0`` it then rolls back into the last shared block and
        writes, which must fork that block instead of mutating it."""
        i = 0 if len(self.oracle[0]) == 0 and len(self.oracle[1]) >= BT else 1
        donor, donor_oracle = self.paged[1 - i], self.oracle[1 - i]
        full = len(donor) // BT
        m = max(1, int(frac * full))
        pos = np.asarray(donor.positions[: m * BT])
        self.paged[i].adopt_shared(list(donor.block_ids[:m]), pos)
        self.oracle[i].append(
            donor_oracle.keys[:, : m * BT].copy(),
            donor_oracle.values[:, : m * BT].copy(),
            pos,
        )
        if cut:
            self.paged[i].truncate(m * BT - cut)
            self.oracle[i].truncate(m * BT - cut)
            forks = self.arena.forks
            if self._append(i, n_tail, seed):
                assert self.arena.forks == forks + 1

    @precondition(lambda self: any(len(o) > 1 for o in self.oracle))
    @rule(i=which, frac=st.floats(0.0, 1.0), seed=seeds)
    def evict(self, i, frac, seed):
        n = len(self.oracle[i])
        if n < 2:
            return
        rng = np.random.default_rng(seed)
        keep_n = max(1, int(frac * n))
        keep = [
            np.sort(rng.choice(n, size=keep_n, replace=False)).astype(np.int64)
            for _ in range(H)
        ]
        try:
            self.paged[i].evict(keep)
        except ArenaExhaustedError:  # atomic: the victim is intact
            self._read(i)
            return
        self.oracle[i].evict(keep)

    @rule(i=which)
    def release(self, i):
        self.paged[i].release()
        self.oracle[i].truncate(0)
        assert self.paged[i].mirror_nbytes == 0

    @rule(i=which)
    def read(self, i):
        self._read(i)

    # ----------------------------------------------------------- invariants
    @invariant()
    def lengths_agree(self):
        for paged, oracle in zip(self.paged, self.oracle):
            assert len(paged) == len(oracle)

    def teardown(self):
        for i in (0, 1):
            self._read(i)
            self.paged[i].release()
        assert self.arena.blocks_in_use == 0
        assert all(c.mirror_nbytes == 0 for c in self.paged)


TestPagedMirror = PagedMirrorMachine.TestCase
TestPagedMirror.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None
)
