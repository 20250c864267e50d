"""Device memory pool model (paper Fig. 5).

GATSPI pre-allocates one chunk of device memory for *all* waveforms of the
simulation, plus arrays of input/output waveform start-address pointers, so
no host/device traffic occurs while the kernels run.  This module models that
layout: a flat array on the configured array backend (:mod:`repro.core.xp`),
an allocator that lays out waveforms back-to-back, and *array-backed*
registration: instead of per-``(net, window)`` Python dicts, the pool keeps
flat ``(net_row, window_column)`` tables of start addresses, sizes, and
toggle counts.  Bulk stores register whole batches with a couple of scatter
writes, and per-level input gathering (:meth:`WaveformPool.gather_level_inputs`)
is two fancy-indexed reads over the same tables — no per-task Python
bookkeeping anywhere on the hot path.

Net rows come from the design-wide net index built at pack time
(:attr:`~repro.core.vector_kernel.PackedDesign.net_index`); one extra row —
the *null row* — is reserved for padded pins and points at the canonical
null waveform.  Pools constructed without a net index (tests, ad-hoc use)
register nets and windows lazily, growing the tables on demand; the
name-keyed accessors (``pointer``/``toggle_count``/``read_waveform``) work
identically in both modes.

The per-level protocol is count → allocate → store, one kernel execution:
the launch reports each output waveform's storage size along with its
toggles, the allocator assigns start addresses
(:meth:`WaveformPool.allocate_batch` lays out a whole level in one
prefix-sum), and :meth:`WaveformPool.store_level_outputs` writes the counted
waveforms into them.  (The paper re-runs the kernel for the store because a
GPU thread cannot allocate; the host can.)

The pool has no modelled cap (the paper reserves 24 GB of a 32 GB V100 and
splits testbenches that overflow it into segments): it doubles whenever an
allocation needs more.  Streaming (``Session.run_stream``, one recycled pool)
is the memory bound; a whole run too large for a real device ends in that
device's own out-of-memory error.

Pool dtype
----------

The pool has exactly one element dtype, :data:`~repro.core.waveform.POOL_DTYPE`
(``int64``), enforced here for every store.  The end-of-waveform sentinel
``EOW`` is ``INT32_MAX`` as in the paper, *not* the int64 maximum, so a
timestamp can numerically exceed the sentinel without overflowing the dtype —
which would silently truncate the waveform on readback.  Every store therefore
guards that no timestamp has reached ``EOW`` and raises
:class:`TimestampOverflowError` instead of corrupting the Fig. 3 format.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .restructure import gather_segments
from .waveform import EOW, INITIAL_ONE_MARKER, POOL_DTYPE, Waveform
from .xp import HOST, ArrayBackend, is_host


class TimestampOverflowError(RuntimeError):
    """Raised when a timestamp reaches the ``EOW`` sentinel.

    A toggle time numerically equal to or above ``EOW`` would terminate its
    waveform early on readback — a silent wrong answer.  The pool refuses the
    store instead.
    """


class WaveformPool:
    """Flat waveform storage with bump allocation and array registration.

    ``net_index`` maps net names to table rows (the design-wide net index;
    one extra *null row* is appended for padded pins) and
    ``window_indices`` lists the batch's windows in column order.  Without
    them the pool starts empty and registers names/windows lazily.  All
    storage — the data array and the three registration tables — lives on
    ``xp``; the data array starts at ``initial_words`` and grows on demand.
    """

    def __init__(
        self,
        initial_words: int = 1 << 16,
        *,
        xp: Optional[ArrayBackend] = None,
        net_index: Optional[Mapping[str, int]] = None,
        window_indices: Optional[Sequence[int]] = None,
    ):
        self._xp = xp or HOST
        size = max(4, int(initial_words))
        self._data = self._xp.full(size, EOW, dtype=self._xp.int64)
        self._next_free = 0
        if net_index is not None:
            self._net_rows: Dict[str, int] = dict(net_index)
            # The null row sits at exactly PackedDesign.null_net_id and is
            # NEVER moved: compile-time input_net_ids tensors encode that
            # id statically, so lazily-registered extra nets go *after* it.
            self._null_row: Optional[int] = len(self._net_rows)
            self._next_row = self._null_row + 1
            rows = self._next_row
        else:
            self._net_rows = {}
            self._null_row = None
            self._next_row = 0
            rows = 8
        if window_indices is not None:
            self._window_cols: Dict[int, int] = {
                int(w): i for i, w in enumerate(window_indices)
            }
            cols = max(1, len(self._window_cols))
        else:
            self._window_cols = {}
            cols = 8
        #: Columns handed back by :meth:`release_windows`, kept sorted
        #: descending so ``pop()`` reuses the lowest column first.
        self._free_cols: List[int] = []
        #: Words at the front of the pool that survive a full release
        #: (the canonical null waveform lives there).
        self._retained_words = 0
        self._null_address: Optional[int] = None
        self._alloc_tables(max(1, rows), cols)

    # ------------------------------------------------------------------
    # Registration tables
    # ------------------------------------------------------------------
    def _alloc_tables(self, rows: int, cols: int) -> None:
        xp = self._xp
        self._ptr_table = xp.full((rows, cols), -1, dtype=xp.int64)
        self._size_table = xp.zeros((rows, cols), dtype=xp.int64)
        self._cnt_table = xp.zeros((rows, cols), dtype=xp.int64)

    def _grow_tables(self, rows: int, cols: int) -> None:
        xp = self._xp
        old_ptr, old_size, old_cnt = (
            self._ptr_table,
            self._size_table,
            self._cnt_table,
        )
        r = max(rows, int(old_ptr.shape[0]))
        c = max(cols, int(old_ptr.shape[1]))
        self._alloc_tables(r, c)
        ro, co = old_ptr.shape
        self._ptr_table[:ro, :co] = old_ptr
        self._size_table[:ro, :co] = old_size
        self._cnt_table[:ro, :co] = old_cnt

    def _net_row(self, net: str) -> int:
        row = self._net_rows.get(net)
        if row is None:
            row = self._next_row
            self._next_row += 1
            self._net_rows[net] = row
            if row >= self._ptr_table.shape[0]:
                self._grow_tables(row * 2 + 1, 0)
        return row

    def _window_col(self, window: int) -> int:
        col = self._window_cols.get(int(window))
        if col is None:
            if self._free_cols:
                col = self._free_cols.pop()
            else:
                col = len(self._window_cols)
            self._window_cols[int(window)] = col
            if col >= self._ptr_table.shape[1]:
                self._grow_tables(0, col * 2 + 1)
        return col

    def _row_name(self, row: int) -> str:
        """Net name of a table row (cold error paths only)."""
        for name, r in self._net_rows.items():
            if r == row:
                return name
        if row == self._null_row:
            return "<null row>"
        return f"<row {row}>"

    def _col_window(self, col: int) -> int:
        """Window index of a table column (cold error paths only)."""
        for window, c in self._window_cols.items():
            if c == col:
                return window
        return col

    def _cols_for(self, window_indices: Sequence[int]):
        return self._xp.asarray(
            [self._window_col(w) for w in window_indices], dtype=self._xp.int64
        )

    def _rows_for(self, nets: Sequence[str]):
        return self._xp.asarray(
            [self._net_row(net) for net in nets], dtype=self._xp.int64
        )

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    @property
    def data(self):
        return self._data

    @property
    def xp(self) -> ArrayBackend:
        return self._xp

    @property
    def used_words(self) -> int:
        return self._next_free

    def _ensure(self, words: int) -> None:
        """Grow the data array (at least doubling) to fit ``words`` more."""
        xp = self._xp
        required = self._next_free + words
        if required > xp.size(self._data):
            size = max(required, xp.size(self._data) * 2)
            grown = xp.full(size, EOW, dtype=xp.int64)
            grown[: self._next_free] = self._data[: self._next_free]
            self._data = grown

    def allocate(self, words: int) -> int:
        """Reserve ``words`` and return the start address.

        Start addresses are aligned to even offsets: the kernel encodes logic
        values in pointer parity (Fig. 3), which only works when every
        waveform begins on an even address.
        """
        if words < 2:
            raise ValueError("a waveform needs at least 2 words (entry + EOW)")
        padding = self._next_free & 1
        self._ensure(words + padding)
        self._next_free += padding
        address = self._next_free
        self._next_free += words
        return address

    def allocate_batch(self, sizes):
        """Lay out one waveform per entry of ``sizes`` with a prefix sum.

        Produces exactly the addresses a loop of :meth:`allocate` calls would
        (each waveform even-aligned, laid out back-to-back), but in O(1)
        array work per level — this is how the store step of the vector
        kernel gets every output address of a level at once.
        """
        xp = self._xp
        sizes = xp.ascontiguousarray(sizes, xp.int64)
        if xp.size(sizes) == 0:
            return xp.zeros(0, dtype=xp.int64)
        if int(xp.min(sizes)) < 2:
            raise ValueError("a waveform needs at least 2 words (entry + EOW)")
        # Even-aligned back-to-back layout: from an even base, each slot
        # occupies size + (size & 1) words, so addresses are an exclusive
        # prefix sum of the padded sizes.
        base = self._next_free + (self._next_free & 1)
        padded = sizes + (sizes & 1)
        addresses = xp.empty(xp.size(sizes), dtype=xp.int64)
        addresses[0] = base
        addresses[1:] = xp.cumsum(padded[:-1]) + base
        end = int(addresses[-1] + sizes[-1])
        self._ensure(end - self._next_free)
        self._next_free = end
        return addresses

    # ------------------------------------------------------------------
    # Waveform storage
    # ------------------------------------------------------------------
    def _register(self, net: str, window: int, address: int, size: int,
                  toggle_count: int) -> None:
        row = self._net_row(net)
        col = self._window_col(window)
        self._ptr_table[row, col] = int(address)
        self._size_table[row, col] = int(size)
        self._cnt_table[row, col] = int(toggle_count)

    def _register_block(
        self, rows, cols, addresses, sizes, counts
    ) -> None:
        """Register an ``(N, W)`` block of waveforms with three scatters.

        ``rows`` are net rows, ``cols`` window columns; the flat per-task
        arrays are net-major (``task = net * W + window``).  This replaces
        the former per-``(net, window)`` dict loop — the last per-task
        Python bookkeeping of the store path.
        """
        N = self._xp.size(rows)
        W = self._xp.size(cols)
        index = (rows[:, None], cols[None, :])
        self._ptr_table[index] = addresses.reshape(N, W)
        self._size_table[index] = sizes.reshape(N, W)
        self._cnt_table[index] = counts.reshape(N, W)

    def store_waveform(self, net: str, window: int, waveform: Waveform) -> int:
        """Copy a waveform into the pool; returns its start address."""
        raw = waveform.data
        if raw.dtype != POOL_DTYPE:
            raise TypeError(
                f"waveform dtype {raw.dtype} does not match pool dtype {POOL_DTYPE}"
            )
        address = self.allocate(raw.size)
        self._data[address : address + raw.size] = self._xp.asarray(raw)
        self._register(net, window, address, raw.size, waveform.toggle_count())
        return address

    def store_padding_waveform(self) -> int:
        """Store the canonical null waveform (``[0, EOW]``).

        Padded pins of the level-batched kernel point here: a constant-0
        signal that never produces events.  On pools built with a design
        net index the waveform is registered on the reserved *null row*
        (address for every window column, toggle count 0), which is what
        :meth:`gather_level_inputs` resolves padded pin ids against.

        Idempotent per pool lifetime: once stored, later calls re-register
        the same address instead of allocating again — the streaming driver
        runs the level loop many times against one recycled pool, and the
        null waveform lives in the retained prefix the bump-pointer rewind
        never reclaims.
        """
        if self._null_address is not None:
            address = self._null_address
            if self._null_row is not None:
                self._ptr_table[self._null_row, :] = address
                self._size_table[self._null_row, :] = 2
                self._cnt_table[self._null_row, :] = 0
            return address
        address = self.allocate(2)
        self._data[address] = 0
        self._data[address + 1] = EOW
        self._null_address = address
        # The null waveform must survive release_windows (padded pins of
        # every future chunk keep pointing at it), so protect the pool
        # prefix up to and including it from bump-pointer rewinds.
        self._retained_words = max(self._retained_words, address + 2)
        if self._null_row is not None:
            self._ptr_table[self._null_row, :] = address
            self._size_table[self._null_row, :] = 2
            self._cnt_table[self._null_row, :] = 0
        return address

    def gather_level_inputs(self, input_net_ids) -> Tuple["object", "object"]:
        """Per-task input pointers and toggle capacities for one level.

        ``input_net_ids`` is the level's ``(G, P)`` gather index tensor
        (:attr:`~repro.core.vector_kernel.LevelTensors.input_net_ids`);
        rows equal net ids because the pool was built from the same design
        net index.  Returns ``(pointers, capacities)`` shaped ``(T, P)``
        and ``(T,)`` in gate-major task order over the batch's window
        columns — two fancy-indexed reads, no per-pin Python lookups
        (fanout reuse falls out of the shared table rows).
        """
        xp = self._xp
        W = len(self._window_cols)
        G, P = int(input_net_ids.shape[0]), int(input_net_ids.shape[1])
        ptr = self._ptr_table[:, :W][input_net_ids]  # (G, P, W)
        cnt = self._cnt_table[:, :W][input_net_ids]
        pointers = xp.transpose(ptr, (0, 2, 1)).reshape(G * W, P)
        # Preserve the old per-net pointer() contract: an unregistered pair
        # must fail loudly, not wrap the -1 sentinel to the end of the pool.
        if P and G and bool(xp.any(pointers < 0)):
            missing = xp.to_host(ptr < 0)
            g, p, w = [int(axis[0]) for axis in missing.nonzero()]
            row = int(xp.to_host(input_net_ids)[g, p])
            window = self._col_window(w)
            raise KeyError(
                f"gather_level_inputs: no waveform stored for net "
                f"{self._row_name(row)!r}, window {window} (gate {g}, pin {p})"
            )
        capacities = xp.sum(cnt, axis=1).reshape(G * W)
        return pointers, capacities

    def store_kernel_output(
        self,
        net: str,
        window: int,
        address: int,
        initial_value: int,
        toggle_times: List[int],
    ) -> None:
        """Write a kernel result at a pre-assigned address (the store step)."""
        if toggle_times and toggle_times[-1] >= EOW:
            raise TimestampOverflowError(
                f"toggle time {toggle_times[-1]} on net {net!r} reached the "
                f"EOW sentinel ({EOW})"
            )
        cursor = address
        if initial_value:
            self._data[cursor] = INITIAL_ONE_MARKER
            cursor += 1
        self._data[cursor] = 0
        cursor += 1
        for time in toggle_times:
            self._data[cursor] = time
            cursor += 1
        self._data[cursor] = EOW
        self._register(
            net, window, address, cursor + 1 - address, len(toggle_times)
        )

    def store_level_outputs(
        self,
        nets: Sequence[str],
        window_indices: Sequence[int],
        addresses,
        initial_values,
        toggle_buffer,
        toggle_starts,
        toggle_counts,
        net_ids=None,
    ) -> None:
        """Vectorized store step for one level of the vector kernel.

        Tasks are gate-major over ``window_indices`` (``task = gate * W +
        window``), matching :func:`repro.core.vector_kernel.simulate_level`.
        All waveforms of the level are written with a handful of scatter
        operations, and registration is a block scatter into the pointer
        tables (``net_ids`` supplies the rows directly when the caller —
        the engine — has the level's precomputed id tensor).
        """
        xp = self._xp
        W = len(window_indices)
        T = len(nets) * W
        addresses = xp.ascontiguousarray(addresses, xp.int64)
        if xp.size(addresses) != T:
            raise ValueError(f"expected {T} addresses, got {xp.size(addresses)}")
        if T == 0:
            return
        data = self._data
        has_marker = initial_values != 0
        data[addresses[has_marker]] = INITIAL_ONE_MARKER
        establish = addresses + xp.astype(has_marker, xp.int64)
        data[establish] = 0
        total = int(xp.sum(toggle_counts))
        if total:
            # Flat gather/scatter indices for all toggle segments at once:
            # within-segment offsets are a ramp reset at each segment start.
            ramp = xp.arange(total, dtype=xp.int64)
            seg_base = xp.cumsum(toggle_counts) - toggle_counts
            ramp -= xp.repeat(seg_base, toggle_counts)
            src = xp.repeat(toggle_starts, toggle_counts) + ramp
            dst = xp.repeat(establish + 1, toggle_counts) + ramp
            times = toggle_buffer[src]
            if int(xp.max(times)) >= EOW:
                raise TimestampOverflowError(
                    f"a toggle time in level store reached the EOW sentinel ({EOW})"
                )
            data[dst] = times
        data[establish + 1 + toggle_counts] = EOW
        sizes = establish + 2 + toggle_counts - addresses
        rows = net_ids if net_ids is not None else self._rows_for(nets)
        self._register_block(
            rows, self._cols_for(window_indices), addresses, sizes, toggle_counts
        )

    def load_windows(
        self,
        nets: Sequence[str],
        window_indices: Sequence[int],
        initial_values,
        times,
        starts,
        counts,
        rebase_offsets,
        net_ids=None,
    ) -> None:
        """Bulk-load one sliced stimulus window per ``(net, window)`` pair.

        The batched counterpart of calling :meth:`store_waveform` once per
        pair: ``initial_values``/``starts``/``counts`` are ``(N, W)`` (or
        flat net-major) slice descriptors into the flat ``times`` event
        buffer (see :func:`repro.core.restructure.slice_windows`), and
        ``rebase_offsets`` holds each window's extended start, subtracted
        from every copied timestamp so each window is stored in
        window-local time.  Layout, registration, and the resulting pool
        image are identical to the per-waveform path; the writes are a
        handful of scatters and registration is one block scatter.
        """
        xp = self._xp
        N, W = len(nets), len(window_indices)
        T = N * W
        initial_values = xp.ascontiguousarray(initial_values, xp.int64).ravel()
        starts = xp.ascontiguousarray(starts, xp.int64).ravel()
        counts = xp.ascontiguousarray(counts, xp.int64).ravel()
        if (
            xp.size(initial_values) != T
            or xp.size(starts) != T
            or xp.size(counts) != T
        ):
            raise ValueError(
                f"expected {T} window slices, got {xp.size(initial_values)}"
            )
        if T == 0:
            return
        has_marker = initial_values != 0
        marker = xp.astype(has_marker, xp.int64)
        addresses = self.allocate_batch(2 + counts + marker)
        data = self._data
        data[addresses[has_marker]] = INITIAL_ONE_MARKER
        establish = addresses + marker
        data[establish] = 0
        total = int(xp.sum(counts))
        if total:
            copied = gather_segments(times, starts, counts, xp=xp)
            offsets = xp.broadcast_to(
                xp.ascontiguousarray(rebase_offsets, xp.int64), (N, W)
            ).ravel()
            copied = copied - xp.repeat(offsets, counts)
            if int(xp.max(copied)) >= EOW:
                raise TimestampOverflowError(
                    f"a stimulus window timestamp reached the EOW sentinel ({EOW})"
                )
            ramp = xp.arange(total, dtype=xp.int64)
            ramp -= xp.repeat(xp.cumsum(counts) - counts, counts)
            data[xp.repeat(establish + 1, counts) + ramp] = copied
        data[establish + 1 + counts] = EOW
        sizes = establish + 2 + counts - addresses
        rows = net_ids if net_ids is not None else self._rows_for(nets)
        self._register_block(
            rows, self._cols_for(window_indices), addresses, sizes, counts
        )

    def window_table(
        self, nets: Sequence[str], window_indices: Sequence[int], net_ids=None
    ) -> Tuple["object", "object"]:
        """Stored layout of every ``(net, window)`` pair, as flat arrays.

        Returns ``(addresses, toggle_counts)`` in net-major task order —
        the bulk readback path's view of the registration tables.
        """
        xp = self._xp
        rows = net_ids if net_ids is not None else self._rows_for(nets)
        cols = self._cols_for(window_indices)
        index = (rows[:, None], cols[None, :])
        addresses = self._ptr_table[index]
        if bool(xp.any(addresses < 0)):
            missing = xp.to_host(addresses < 0)
            n, w = [int(axis[0]) for axis in missing.nonzero()]
            raise KeyError(
                f"no waveform stored for net {nets[n]!r}, "
                f"window {window_indices[w]}"
            )
        return addresses.ravel(), self._cnt_table[index].ravel()

    # ------------------------------------------------------------------
    # Name-keyed accessors (scalar oracle path and tests)
    # ------------------------------------------------------------------
    def _lookup(self, net: str, window: int) -> Tuple[int, int]:
        row = self._net_rows.get(net)
        col = self._window_cols.get(int(window))
        if row is not None and col is not None:
            address = int(self._ptr_table[row, col])
            if address >= 0:
                return row, col
        raise KeyError(
            f"no waveform stored for net {net!r}, window {window}"
        )

    def pointer(self, net: str, window: int) -> int:
        """Start address of a stored waveform."""
        row, col = self._lookup(net, window)
        return int(self._ptr_table[row, col])

    def toggle_count(self, net: str, window: int) -> int:
        """Real transitions of a stored waveform (drives count-pass sizing)."""
        row, col = self._lookup(net, window)
        return int(self._cnt_table[row, col])

    def has_waveform(self, net: str, window: int) -> bool:
        try:
            self._lookup(net, window)
        except KeyError:
            return False
        return True

    def read_waveform(self, net: str, window: int) -> Waveform:
        """Waveform readback as a zero-copy view into the pool.

        On the numpy backend the returned :class:`Waveform` wraps a
        read-only slice of the pool array — no per-element copy.  The pool
        is append-only for the lifetime of a simulation batch (only
        :meth:`reset` rewrites stored words), so the view stays valid as
        long as the caller holds it: even if the pool grows, the view keeps
        the old buffer alive.  On other backends the slice is copied to the
        host (readback crosses the device boundary by definition).
        """
        row, col = self._lookup(net, window)
        address = int(self._ptr_table[row, col])
        size = int(self._size_table[row, col])
        chunk = self._data[address : address + size]
        if is_host(self._xp):
            view = chunk.view()
            view.setflags(write=False)
            return Waveform(view)
        host = self._xp.to_host(chunk).copy()
        host.setflags(write=False)
        return Waveform(host)

    def release_windows(
        self, windows: Optional[Sequence[int]] = None
    ) -> None:
        """Drop window registrations and recycle their table columns.

        The streaming replay driver calls this between chunks so one pool
        serves the whole run: released columns go on a free list that
        :meth:`_window_col` reuses (lowest column first), and once *no*
        window remains registered the bump allocator rewinds to the
        retained floor — the stored words become unreachable without any
        data wipe, and the next chunk's stimulus overwrites them.  The
        canonical null waveform (:meth:`store_padding_waveform`) survives
        both the rewind and the table clear.

        ``windows=None`` releases every registered window.  Note
        :meth:`gather_level_inputs` assumes the active windows occupy the
        *first* ``len(window_cols)`` columns in registration order; the
        release-all-then-reregister pattern preserves that invariant, a
        partial release generally does not (name-keyed accessors remain
        correct either way).

        Zero-copy views handed out by :meth:`read_waveform` for released
        windows are invalidated exactly as by :meth:`reset`.
        """
        if windows is None:
            windows = list(self._window_cols)
        cols = [
            self._window_cols.pop(int(w))
            for w in windows
            if int(w) in self._window_cols
        ]
        if not cols:
            return
        col_index = self._xp.asarray(cols, dtype=self._xp.int64)
        self._ptr_table[:, col_index] = -1
        self._size_table[:, col_index] = 0
        self._cnt_table[:, col_index] = 0
        if self._null_row is not None and self._null_address is not None:
            self._ptr_table[self._null_row, col_index] = self._null_address
            self._size_table[self._null_row, col_index] = 2
        self._free_cols.extend(cols)
        self._free_cols.sort(reverse=True)
        if not self._window_cols:
            self._next_free = self._retained_words

    def reset(self) -> None:
        """Free every allocation and registration.

        Invalidates any zero-copy views previously handed out by
        :meth:`read_waveform`; callers that keep results across a reset must
        copy them first.
        """
        self._next_free = 0
        self._free_cols = []
        self._retained_words = 0
        self._null_address = None
        self._ptr_table[:, :] = -1
        self._size_table[:, :] = 0
        self._cnt_table[:, :] = 0
        self._data[:] = EOW
