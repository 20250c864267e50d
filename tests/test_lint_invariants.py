"""Tests for ``tools/lint_invariants.py``.

Each rule is exercised against a seeded-violation fixture under
``tests/data/lint_fixtures/`` (so the detection logic is pinned, not just
the happy path), and the linter as a whole must pass on the real
``src/repro`` tree — that assertion is what makes the CI lint job's
green meaningful.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "data" / "lint_fixtures"


def _load_linter():
    """Import ``tools/lint_invariants.py`` by path (tools/ is not a package)."""
    path = REPO_ROOT / "tools" / "lint_invariants.py"
    spec = importlib.util.spec_from_file_location("lint_invariants", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("lint_invariants", module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def linter():
    return _load_linter()


class TestXpPurityRule:
    def test_seeded_numpy_usage_reported(self, linter):
        violations = linter.lint_file(FIXTURES / "core" / "engine.py")
        rules = [v.rule for v in violations]
        assert rules.count("XP001") >= 3  # import, from-import, np. use
        lines = {v.line for v in violations if v.rule == "XP001"}
        assert 7 in lines  # import numpy as np
        assert 8 in lines  # from numpy import int64
        assert 12 in lines  # np.asarray(...)

    def test_rule_only_applies_to_xp_routed_paths(self, linter):
        assert linter._is_xp_routed(Path("src/repro/core/engine.py"))
        assert linter._is_xp_routed(Path("src/repro/core/vector_kernel.py"))
        assert linter._is_xp_routed(Path("src/repro/core/restructure.py"))
        assert linter._is_xp_routed(Path("src/repro/core/memory.py"))
        assert not linter._is_xp_routed(Path("src/repro/core/xp.py"))
        assert not linter._is_xp_routed(Path("src/repro/core/kernel.py"))

    def test_hnp_alias_is_sanctioned(self, linter, tmp_path):
        clean = tmp_path / "core" / "engine.py"
        clean.parent.mkdir()
        clean.write_text(
            "from .xp import HOST\n"
            "hnp = HOST\n"
            "def f(x):\n"
            "    return hnp.asarray(x, dtype=hnp.int64)\n"
        )
        assert linter.lint_file(clean) == []


class TestLockOrderRule:
    def test_inverted_nesting_reported(self, linter):
        violations = linter.lint_file(FIXTURES / "lock_violation.py")
        lk = [v for v in violations if v.rule == "LK001"]
        assert len(lk) == 2
        assert "'_service_lock' (rank 10)" in lk[0].message
        assert "'_LOCK' (rank 30)" in lk[0].message
        assert "'_run_lock' (rank 0)" in lk[1].message
        assert "'_service_lock' (rank 10)" in lk[1].message

    def test_sanctioned_order_and_nested_defs_clean(self, linter):
        violations = linter.lint_file(FIXTURES / "lock_violation.py")
        # Only the two seeded inversions fire: the rank-ascending method
        # and the nested-function body are clean.
        assert len(violations) == 2

    def test_serving_leaf_locks_admit_no_nesting(self, linter, tmp_path):
        """The serving leaf locks (conn/shm-registry) share the max rank,
        so acquiring anything — even each other — inside them fires."""
        bad = tmp_path / "leaf.py"
        bad.write_text(
            "class S:\n"
            "    def f(self):\n"
            "        with self._registry_lock:\n"
            "            with self._service_lock:\n"
            "                pass\n"
            "    def g(self):\n"
            "        with self._conn_lock:\n"
            "            with self._registry_lock:\n"
            "                pass\n"
        )
        violations = linter.lint_file(bad)
        assert [v.rule for v in violations] == ["LK001", "LK001"]
        assert "'_registry_lock' (rank 30)" in violations[0].message
        assert "'_service_lock' (rank 10)" in violations[0].message
        assert "'_conn_lock' (rank 30)" in violations[1].message
        assert "'_registry_lock' (rank 30)" in violations[1].message

    def test_multi_item_with_checked(self, linter, tmp_path):
        bad = tmp_path / "multi.py"
        bad.write_text(
            "import threading\n"
            "_LOCK = threading.Lock()\n"
            "class S:\n"
            "    def f(self):\n"
            "        with _LOCK, self._run_lock:\n"
            "            pass\n"
        )
        violations = linter.lint_file(bad)
        assert [v.rule for v in violations] == ["LK001"]
        assert "'_run_lock' (rank 0)" in violations[0].message


class TestFrozenMutationRule:
    def test_seeded_mutations_reported(self, linter):
        violations = linter.lint_file(FIXTURES / "mut_violation.py")
        mut = [v for v in violations if v.rule == "MUT001"]
        assert len(mut) == 3
        messages = "\n".join(v.message for v in mut)
        assert "'tt_flat'" in messages
        assert "'weights'" in messages
        assert "'levels'" in messages

    def test_register_file_fields_covered(self, linter, tmp_path):
        seeded = tmp_path / "core" / "clocked_bad.py"
        seeded.parent.mkdir()
        seeded.write_text(
            "def corrupt(rf, state):\n"
            "    rf.init_values = state\n"
            "    rf.clk_to_q_rise[0] = 99\n"
            "    object.__setattr__(rf, 'reset_values', state)\n"
        )
        violations = linter.lint_file(seeded)
        messages = "\n".join(v.message for v in violations)
        assert "'init_values'" in messages
        assert "'clk_to_q_rise'" in messages
        assert "'reset_values'" in messages
        rules = sorted({v.rule for v in violations})
        assert rules == ["MUT001", "MUT002"]

    def test_exempt_names_do_not_fire(self, linter):
        violations = linter.lint_file(FIXTURES / "mut_violation.py")
        messages = "\n".join(v.message for v in violations)
        # Levelization.levels-style plain assignment and the GPU models'
        # self.device stay allowed; truthtable/waveform __setattr__ fields
        # ('table', 'data') are outside the packed set.
        assert "'device'" not in messages
        assert "'table'" not in messages
        assert "'data'" not in messages


class TestSliceMutationRule:
    def test_seeded_subscript_writes_reported(self, linter):
        violations = linter.lint_file(FIXTURES / "mut002_violation.py")
        mut = [v for v in violations if v.rule == "MUT002"]
        assert len(mut) == 3
        messages = "\n".join(v.message for v in mut)
        assert "'tt_flat'" in messages
        assert "'tt_offsets'" in messages
        assert "'wire_rise'" in messages
        # Local arrays and exempt generic names stay clean.
        assert "'levels'" not in messages

    def test_net_index_write_is_mut002_not_mut001(self, linter):
        violations = linter.lint_file(FIXTURES / "mut_violation.py")
        by_rule = {v.rule for v in violations if "'net_index'" in v.message}
        assert by_rule == {"MUT002"}

    def test_sanctioned_rebuild_paths(self, linter):
        assert linter._is_slice_sanctioned(Path("src/repro/core/vector_kernel.py"))
        assert linter._is_slice_sanctioned(Path("src/repro/core/incremental.py"))
        assert not linter._is_slice_sanctioned(Path("src/repro/core/engine.py"))
        assert not linter._is_slice_sanctioned(Path("src/repro/core/workers.py"))

    def test_sanctioned_path_not_linted(self, linter, tmp_path):
        sanctioned = tmp_path / "core" / "incremental.py"
        sanctioned.parent.mkdir()
        sanctioned.write_text(
            "def patch(level):\n"
            "    level.tt_offsets[0] = 1\n"
        )
        assert linter.lint_file(sanctioned) == []

    def test_incremental_module_is_xp_routed(self, linter):
        assert linter._is_xp_routed(Path("src/repro/core/incremental.py"))


class TestWholeTree:
    def test_source_tree_is_clean(self, linter):
        violations = linter.lint_paths([REPO_ROOT / "src" / "repro"])
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_cli_exit_codes(self, linter, capsys):
        assert linter.main([str(REPO_ROOT / "src" / "repro"), "--quiet"]) == 0
        assert linter.main([str(FIXTURES)]) == 1
        assert linter.main([str(REPO_ROOT / "no-such-dir")]) == 2
        capsys.readouterr()
