"""Conformance suite for the pluggable array-backend (xp) layer.

Every registered backend (numpy always; torch/cupy when installed) must
reproduce the exact numpy semantics the GATSPI data plane relies on for
bit-identical results: ``searchsorted`` side conventions, truncating
float→int64 casts, ``repeat``/``tile`` shapes, scatter assignment, boolean
masking, and the reduction signatures.  Each case computes the expected
value with plain numpy and checks the backend's result after ``to_host``.

Also covers the registry itself (lookup errors, registration rules) and
the device-selection precedence: ``SimConfig(device=...)`` > the
``REPRO_DEVICE`` environment default > ``"numpy"``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SimConfig
from repro.core.xp import (
    ARRAY_ATTRS,
    ARRAY_OPS,
    DEVICE_ENV_VAR,
    HOST,
    ArrayBackendError,
    NumpyBackend,
    UnknownArrayBackendError,
    available_array_backends,
    default_device,
    get_array_backend,
    register_array_backend,
)

BACKENDS = available_array_backends()


@pytest.fixture(params=BACKENDS)
def xp(request):
    return get_array_backend(request.param)


def host(xp, value):
    return xp.to_host(value)


# ----------------------------------------------------------------------
# Registry and selection
# ----------------------------------------------------------------------
class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in BACKENDS
        assert get_array_backend("numpy") is HOST

    def test_unknown_backend_lists_available(self):
        with pytest.raises(UnknownArrayBackendError) as excinfo:
            get_array_backend("tpu")
        for name in BACKENDS:
            assert name in str(excinfo.value)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ArrayBackendError):
            register_array_backend("numpy", NumpyBackend)

    def test_backend_instances_are_cached(self):
        assert get_array_backend("numpy") is get_array_backend("numpy")

    def test_surface_is_complete(self, xp):
        for op in ARRAY_OPS:
            assert callable(getattr(xp, op)), f"{xp.name} is missing {op}"
        for attr in ARRAY_ATTRS:
            getattr(xp, attr)


class TestDeviceSelection:
    def test_env_default(self, monkeypatch):
        monkeypatch.delenv(DEVICE_ENV_VAR, raising=False)
        assert default_device() == "numpy"
        monkeypatch.setenv(DEVICE_ENV_VAR, "numpy")
        assert default_device() == "numpy"
        assert SimConfig().device == "numpy"

    def test_config_overrides_env(self, monkeypatch):
        monkeypatch.setenv(DEVICE_ENV_VAR, "numpy")
        for name in BACKENDS:
            assert SimConfig(device=name).device == name

    def test_unregistered_device_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(device="not-a-backend")

    def test_bad_env_device_does_not_break_import(self):
        """A bogus REPRO_DEVICE must surface at SimConfig construction,
        never make the package unimportable (regression: module-level
        PAPER_DEFAULT_CONFIG used to validate the env default at import)."""
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH", "")) if p
        )
        code = (
            "import repro.core\n"
            "from repro.core import SimConfig, PAPER_DEFAULT_CONFIG\n"
            "assert PAPER_DEFAULT_CONFIG.device == 'numpy'\n"
            "try:\n"
            "    SimConfig()\n"
            "except ValueError as err:\n"
            "    assert 'REPRO_DEVICE' in str(err)\n"
            "else:\n"
            "    raise SystemExit('expected ValueError at use time')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={
                **os.environ,
                "REPRO_DEVICE": "not-a-backend",
                "PYTHONPATH": pythonpath,
            },
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr

    def test_oracle_executors_pin_numpy(self):
        """An ``OracleEngine`` built with any registered device runs on
        numpy and keys the compile cache as numpy."""
        from repro.core import GatspiEngine
        from repro.core.compile_cache import compile_key
        from repro.reference.oracle_engine import OracleEngine
        from repro.testing import build_random_netlist

        device = BACKENDS[-1]  # any registered backend
        netlist = build_random_netlist(num_gates=8, seed=1)
        config = SimConfig(device=device)
        production = GatspiEngine(netlist, config=config)
        oracle = OracleEngine(netlist, config=config)
        assert production.config.device == production.xp.name == device
        assert oracle.config.device == oracle.xp.name == "numpy"
        oracle.compile()
        assert oracle.xp.name == "numpy"
        assert compile_key(
            netlist, oracle.annotation, oracle.config
        ) == compile_key(
            netlist, oracle.annotation, SimConfig(device="numpy")
        )


# ----------------------------------------------------------------------
# Construction and the host boundary
# ----------------------------------------------------------------------
class TestConstruction:
    def test_asarray_roundtrip(self, xp):
        src = np.asarray([3, 1, -1, 2**40], dtype=np.int64)
        arr = xp.asarray(src, dtype=xp.int64)
        np.testing.assert_array_equal(host(xp, arr), src)

    def test_asarray_from_list(self, xp):
        arr = xp.asarray([5, 7], dtype=xp.int64)
        assert host(xp, arr).tolist() == [5, 7]

    def test_zeros_empty_full_arange(self, xp):
        assert host(xp, xp.zeros(3, dtype=xp.int64)).tolist() == [0, 0, 0]
        assert host(xp, xp.zeros((2, 2), dtype=xp.float64)).shape == (2, 2)
        assert xp.size(xp.empty(4, dtype=xp.int64)) == 4
        assert host(xp, xp.full(2, 7, dtype=xp.int64)).tolist() == [7, 7]
        assert host(xp, xp.full((2, 1), -1, dtype=xp.int64)).tolist() == [[-1], [-1]]
        assert host(xp, xp.arange(4, dtype=xp.int64)).tolist() == [0, 1, 2, 3]

    def test_int8_truth_table_gather(self, xp):
        tt = xp.asarray(np.asarray([0, 1, 1, 0], dtype=np.int8))
        idx = xp.asarray([3, 0, 1], dtype=xp.int64)
        gathered = xp.astype(tt[idx], xp.int64)
        assert host(xp, gathered).tolist() == [0, 0, 1]

    def test_size(self, xp):
        assert xp.size(xp.zeros(0, dtype=xp.int64)) == 0
        assert xp.size(xp.zeros((3, 4), dtype=xp.int64)) == 12


# ----------------------------------------------------------------------
# Exact numpy semantics the kernel depends on
# ----------------------------------------------------------------------
class TestSemantics:
    def test_searchsorted_sides(self, xp):
        a = xp.asarray([10, 20, 20, 30], dtype=xp.int64)
        v = xp.asarray([20, 25, 5], dtype=xp.int64)
        left = host(xp, xp.searchsorted(a, v, side="left"))
        right = host(xp, xp.searchsorted(a, v, side="right"))
        assert left.tolist() == [1, 3, 0]
        assert right.tolist() == [3, 3, 0]

    def test_searchsorted_2d_queries(self, xp):
        a = xp.asarray([0, 10, 20, 30], dtype=xp.int64)
        v = xp.asarray([[5, 10], [30, 40]], dtype=xp.int64)
        out = host(xp, xp.searchsorted(a, v, side="right"))
        assert out.tolist() == [[1, 2], [4, 4]]

    def test_astype_truncates_toward_zero(self, xp):
        f = xp.asarray([1.9, 2.0, 0.999, 17.5], dtype=xp.float64)
        assert host(xp, xp.astype(f, xp.int64)).tolist() == [1, 2, 0, 17]

    def test_cumsum_and_diff(self, xp):
        a = xp.asarray([3, 1, 4], dtype=xp.int64)
        assert host(xp, xp.cumsum(a)).tolist() == [3, 4, 8]
        assert host(xp, xp.diff(xp.cumsum(a))).tolist() == [1, 4]
        assert xp.size(xp.cumsum(a[:0])) == 0

    def test_repeat_array_counts(self, xp):
        a = xp.asarray([7, 8, 9], dtype=xp.int64)
        counts = xp.asarray([2, 0, 3], dtype=xp.int64)
        assert host(xp, xp.repeat(a, counts)).tolist() == [7, 7, 9, 9, 9]

    def test_repeat_rows(self, xp):
        m = xp.asarray([[1, 2], [3, 4]], dtype=xp.int64)
        out = host(xp, xp.repeat(m, 2, axis=0))
        assert out.tolist() == [[1, 2], [1, 2], [3, 4], [3, 4]]

    def test_tile_and_broadcast(self, xp):
        a = xp.asarray([1, 2], dtype=xp.int64)
        assert host(xp, xp.tile(a, 3)).tolist() == [1, 2, 1, 2, 1, 2]
        b = host(xp, xp.broadcast_to(a, (2, 2)))
        assert b.tolist() == [[1, 2], [1, 2]]

    def test_where_with_scalars(self, xp):
        cond = xp.asarray([1, 0, 2], dtype=xp.int64)  # int condition
        a = xp.asarray([10, 20, 30], dtype=xp.int64)
        assert host(xp, xp.where(cond, a, 0)).tolist() == [10, 0, 30]
        f = xp.asarray([1.0, 2.0, 3.0], dtype=xp.float64)
        out = host(xp, xp.where(cond == 0, f, xp.inf))
        assert out[1] == 2.0 and np.isinf(out[0]) and np.isinf(out[2])

    def test_minimum_maximum_scalar_clamp(self, xp):
        a = xp.asarray([-5, 3, 99], dtype=xp.int64)
        assert host(xp, xp.minimum(a, 10)).tolist() == [-5, 3, 10]
        assert host(xp, xp.maximum(a, 0)).tolist() == [0, 3, 99]
        b = xp.asarray([0, 5, 50], dtype=xp.int64)
        assert host(xp, xp.minimum(a, b)).tolist() == [-5, 3, 50]

    def test_reductions(self, xp):
        m = xp.asarray([[1.0, 5.0], [4.0, 2.0]], dtype=xp.float64)
        assert host(xp, xp.min(m, axis=1)).tolist() == [1.0, 2.0]
        assert host(xp, xp.max(m, axis=1)).tolist() == [5.0, 4.0]
        assert host(xp, xp.sum(m, axis=1)).tolist() == [6.0, 6.0]
        assert int(xp.sum(xp.asarray([1, 2], dtype=xp.int64))) == 3
        assert float(xp.min(m)) == 1.0 and float(xp.max(m)) == 5.0

    def test_any_all_truthiness(self, xp):
        t = xp.asarray([0, 1], dtype=xp.int64)
        assert bool(xp.any(t != 0))
        assert not bool(xp.all(t != 0))
        empty = t[:0]
        assert not bool(xp.any(empty != 0))
        assert bool(xp.all(empty != 0))

    def test_isfinite(self, xp):
        f = xp.where(
            xp.asarray([1, 0], dtype=xp.int64),
            xp.asarray([1.5, 2.5], dtype=xp.float64),
            xp.inf,
        )
        assert host(xp, xp.isfinite(f)).tolist() == [True, False]

    def test_scatter_assignment(self, xp):
        buf = xp.zeros(6, dtype=xp.int64)
        idx = xp.asarray([4, 1, 2], dtype=xp.int64)
        buf[idx] = xp.asarray([40, 10, 20], dtype=xp.int64)
        assert host(xp, buf).tolist() == [0, 10, 20, 0, 40, 0]
        buf[1:3] = xp.asarray([-1, -2], dtype=xp.int64)
        assert host(xp, buf).tolist() == [0, -1, -2, 0, 40, 0]

    def test_boolean_mask_read_and_write(self, xp):
        a = xp.asarray([1, 2, 3, 4], dtype=xp.int64)
        mask = a > 2
        assert host(xp, a[mask]).tolist() == [3, 4]
        a[mask] = 0
        assert host(xp, a).tolist() == [1, 2, 0, 0]

    def test_block_scatter_with_broadcast_indices(self, xp):
        table = xp.full((3, 2), -1, dtype=xp.int64)
        rows = xp.asarray([2, 0], dtype=xp.int64)
        cols = xp.asarray([0, 1], dtype=xp.int64)
        table[rows[:, None], cols[None, :]] = xp.asarray(
            [[1, 2], [3, 4]], dtype=xp.int64
        )
        assert host(xp, table).tolist() == [[3, 4], [-1, -1], [1, 2]]
        gathered = table[rows[:, None], cols[None, :]]
        assert host(xp, gathered).tolist() == [[1, 2], [3, 4]]

    def test_transpose_reshape(self, xp):
        m = xp.asarray(np.arange(12).reshape(2, 3, 2), dtype=xp.int64)
        t = xp.transpose(m, (0, 2, 1))
        expected = np.transpose(np.arange(12).reshape(2, 3, 2), (0, 2, 1))
        np.testing.assert_array_equal(host(xp, t.reshape(4, 3)), expected.reshape(4, 3))

    def test_copy_is_independent(self, xp):
        a = xp.asarray([1, 2], dtype=xp.int64)
        b = xp.copy(a)
        b[0] = 99
        assert host(xp, a).tolist() == [1, 2]

    def test_concatenate(self, xp):
        a = xp.asarray([1], dtype=xp.int64)
        b = xp.asarray([2, 3], dtype=xp.int64)
        assert host(xp, xp.concatenate([a, b])).tolist() == [1, 2, 3]

    def test_bool_int_promotion_in_arithmetic(self, xp):
        # storage_words relies on int64 + bool promoting to int64.
        counts = xp.asarray([0, 2], dtype=xp.int64)
        markers = xp.asarray([1, 0], dtype=xp.int64) != 0
        total = 2 + counts + markers
        assert host(xp, total).tolist() == [3, 4]

    def test_augmented_fancy_index_add(self, xp):
        a = xp.zeros(4, dtype=xp.int64)
        idx = xp.asarray([0, 2], dtype=xp.int64)
        a[idx] += xp.asarray([5, 7], dtype=xp.int64)
        assert host(xp, a).tolist() == [5, 0, 7, 0]


# ----------------------------------------------------------------------
# The kernel itself as the end-to-end conformance check
# ----------------------------------------------------------------------
class TestLevelKernelOnBackend:
    def test_simulate_level_matches_numpy(self, xp):
        """The full lock-step kernel produces identical toggles per backend."""
        from repro.core import WaveformPool, Waveform
        from repro.core.vector_kernel import simulate_level
        from repro.testing import build_random_netlist
        from repro.core.engine import GatspiEngine

        netlist = build_random_netlist(num_inputs=4, num_gates=12, seed=3)
        engine = GatspiEngine(netlist)
        engine.compile()
        packed_host = engine.packed_design
        packed = packed_host.to_device(xp)
        level = packed.levels[0]
        level_host = packed_host.levels[0]

        def run(backend, design, lvl):
            pool = WaveformPool(
                1 << 16,
                xp=backend,
                net_index=design.net_index,
                window_indices=[0],
            )
            for i, net in enumerate(netlist.source_nets()):
                pool.store_waveform(
                    net, 0, Waveform.from_initial_and_toggles(i & 1, [10 + 7 * i, 40 + 9 * i])
                )
            pool.store_padding_waveform()
            pointers, caps = pool.gather_level_inputs(lvl.input_net_ids)
            result = simulate_level(
                pool.data, pointers, design, lvl, 1, caps, xp=backend
            )
            return (
                backend.to_host(result.initial_values).tolist(),
                backend.to_host(result.toggle_counts).tolist(),
                backend.to_host(result.toggle_buffer).tolist(),
            )

        assert run(xp, packed, level) == run(HOST, packed_host, level_host)
