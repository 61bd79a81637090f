"""The determinism & concurrency invariant checker, and its race harness.

Three layers under test:

* the static rules (R1-R5) each catch a seeded regression in a fixture
  snippet and stay quiet on the corrected version;
* no comment silences a finding, and the CLI exit-code contract
  (0 clean / 1 violations / 2 usage) holds;
* the runtime harness: DebugLock rank assertions, guard_instance
  descriptors, and the seeded ChaosScheduler stress that fused drains and
  cluster failover stay byte-identical under perturbed interleavings.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

import repro.analysis.lockorder as lockorder
from repro.analysis import (
    ALL_RULES,
    LOCK_ORDER,
    check_paths,
    check_source,
    lock_rank,
)
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.runtime import (
    ChaosScheduler,
    DebugLock,
    RaceViolation,
    guard_instance,
    merged_guarded_by,
)
from repro.cluster import LocalCluster, serve_cluster
from repro.service import FactorizationCache, KernelRegistry, RoundScheduler, serve
from repro.workloads import random_psd_ensemble

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: iteration knobs — CI runs the full counts; tighten locally via env
STRESS_ITERATIONS = int(os.environ.get("REPRO_ANALYSIS_STRESS_ITERATIONS", "200"))
FAILOVER_ITERATIONS = int(os.environ.get("REPRO_ANALYSIS_FAILOVER_ITERATIONS", "10"))


def check(source, *, in_repro=True):
    """Run the full rule set over a dedented snippet as src/repro code."""
    return check_source(textwrap.dedent(source), "src/repro/fixture.py",
                        in_repro=in_repro)


def codes(report):
    return sorted(f"{v.rule}[{v.code}]" for v in report.violations)


# ---------------------------------------------------------------------- #
# R1 — determinism
# ---------------------------------------------------------------------- #
class TestDeterminismRule:
    def test_stdlib_random_flagged(self):
        report = check("""
            import random
            x = random.random()
        """)
        assert "R1[stdlib-random]" in codes(report)

    def test_seeded_random_instance_allowed(self):
        # the ChaosScheduler exception: an explicit, seeded instance
        report = check("""
            import random
            rng = random.Random(1234)
            x = rng.random()
        """)
        assert codes(report) == []

    def test_numpy_module_state_flagged(self):
        report = check("""
            import numpy as np
            np.random.seed(0)
            x = np.random.rand(3)
        """)
        assert codes(report).count("R1[np-random-module-state]") == 2

    def test_unseeded_default_rng_flagged_seeded_ok(self):
        bad = check("""
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert "R1[unseeded-default-rng]" in codes(bad)
        good = check("""
            import numpy as np
            def f(seed):
                return np.random.default_rng(seed)
        """)
        assert codes(good) == []

    def test_wall_clock_flagged_perf_counter_ok(self):
        bad = check("""
            import time
            stamp = time.time()
        """)
        assert "R1[wall-clock-value]" in codes(bad)
        good = check("""
            import time
            started = time.perf_counter()
        """)
        assert codes(good) == []

    def test_set_iteration_flagged_sorted_ok(self):
        bad = check("""
            def f(items):
                for x in {1, 2, 3}:
                    yield x
        """)
        assert "R1[set-iteration-order]" in codes(bad)
        good = check("""
            def f(items):
                for x in sorted(set(items)):
                    yield x
        """)
        assert codes(good) == []

    def test_scope_is_src_repro_only(self):
        report = check("""
            import random
            x = random.random()
        """, in_repro=False)
        assert codes(report) == []


# ---------------------------------------------------------------------- #
# R2 — lock discipline
# ---------------------------------------------------------------------- #
_R2_BAD = """
    import threading

    class Box:
        _GUARDED_BY = {"_lock": ("_items",)}

        def __init__(self):
            self._lock = threading.Lock()
            self._items = []

        def size(self):
            return len(self._items)
"""

_R2_GOOD = """
    import threading

    class Box:
        _GUARDED_BY = {"_lock": ("_items",)}

        def __init__(self):
            self._lock = threading.Lock()
            self._items = []

        def size(self):
            with self._lock:
                return len(self._items)

        def _sweep_locked(self):
            return list(self._items)
"""


class TestLockDisciplineRule:
    def test_unlocked_access_flagged(self):
        report = check(_R2_BAD)
        assert codes(report) == ["R2[unlocked-access]"]
        assert "_items" in report.violations[0].message

    def test_locked_access_and_locked_suffix_clean(self):
        assert codes(check(_R2_GOOD)) == []

    def test_init_exempt(self):
        # the __init__ writes in the bad fixture are not among the findings
        report = check(_R2_BAD)
        assert all(v.line > 9 for v in report.violations)

    def test_explicit_acquire_release_pair_counts(self):
        report = check("""
            import threading

            class Box:
                _GUARDED_BY = {"_lock": ("_items",)}

                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def pop(self):
                    self._lock.acquire()
                    item = self._items.pop()
                    self._lock.release()
                    return item
        """)
        assert codes(report) == []

    def test_inherited_declaration_applies_to_subclass(self):
        report = check("""
            import threading

            class Base:
                _GUARDED_BY = {"_lock": ("_items",)}

                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

            class Child(Base):
                def size(self):
                    return len(self._items)
        """)
        assert codes(report) == ["R2[unlocked-access]"]

    def test_lock_order_inversion_flagged(self, monkeypatch):
        # seed a two-lock class into the rank registry so the static
        # inversion path is exercised end to end
        monkeypatch.setitem(lockorder._RANK, ("Pair", "_outer"), 0)
        monkeypatch.setitem(lockorder._RANK, ("Pair", "_inner"), 1)
        report = check("""
            import threading

            class Pair:
                _GUARDED_BY = {"_outer": ("_a",), "_inner": ("_b",)}

                def __init__(self):
                    self._outer = threading.Lock()
                    self._inner = threading.Lock()
                    self._a = self._b = 0

                def wrong(self):
                    with self._inner:
                        with self._outer:
                            return self._a + self._b

                def right(self):
                    with self._outer:
                        with self._inner:
                            return self._a + self._b
        """)
        assert codes(report) == ["R2[lock-order]"]
        assert "inversion" in report.violations[0].message

    def test_registry_is_a_total_order(self):
        ranks = [lock_rank(cls, attr) for cls, attr in LOCK_ORDER]
        assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)
        # spot-check the topology the codebase relies on
        assert lock_rank("KernelRegistry", "_lock") < lock_rank(
            "FactorizationCache", "_lock")
        assert lock_rank("RoundScheduler", "_lock") < lock_rank(
            "FactorizationCache", "_lock")


# ---------------------------------------------------------------------- #
# R3 — shipping contract
# ---------------------------------------------------------------------- #
class TestShippingContractRule:
    def test_missing_rebuild_flagged(self):
        report = check("""
            class D:
                def worker_payload(self):
                    return {"kernel": self.matrix}, {"labels": self.labels}

                def oracle_cost_hint(self):
                    return 1.0
        """)
        assert codes(report) == ["R3[missing-from-worker-payload]"]

    def test_missing_cost_hint_flagged(self):
        report = check("""
            class D:
                def worker_payload(self):
                    return {"kernel": self.matrix}, {"labels": self.labels}

                @classmethod
                def from_worker_payload(cls, arrays, params):
                    return cls(arrays["kernel"], params["labels"])
        """)
        assert codes(report) == ["R3[missing-oracle-cost-hint]"]

    def test_consumed_key_never_produced_flagged(self):
        report = check("""
            class D:
                def worker_payload(self):
                    return {"kernel": self.matrix}, {"labels": self.labels}

                @classmethod
                def from_worker_payload(cls, arrays, params):
                    return cls(arrays["factor"], params["labels"])

                def oracle_cost_hint(self):
                    return 1.0
        """)
        assert codes(report) == ["R3[payload-key-mismatch]"]
        assert "'factor'" in report.violations[0].message

    def test_full_contract_clean(self):
        report = check("""
            class D:
                def worker_payload(self):
                    return {"kernel": self.matrix}, {"labels": self.labels}

                @classmethod
                def from_worker_payload(cls, arrays, params):
                    return cls(arrays["kernel"], params.get("labels"))

                def oracle_cost_hint(self):
                    return 1.0
        """)
        assert codes(report) == []

    def test_mixin_checked_through_subclass(self):
        report = check("""
            class Mixin:
                def worker_payload(self):
                    return {"factor": self.factor}, self._payload_params()

            class Concrete(Mixin):
                def _payload_params(self):
                    return {"z": self.z}

                @classmethod
                def from_worker_payload(cls, arrays, params):
                    return cls(arrays["factor"], params["z"])

                def oracle_cost_hint(self):
                    return 1.0
        """)
        assert codes(report) == []

    def test_helper_delegation_mismatch_still_caught(self):
        report = check("""
            class D:
                def worker_payload(self):
                    return {"factor": self.factor}, self._payload_params()

                def _payload_params(self):
                    return {"z": self.z}

                @classmethod
                def from_worker_payload(cls, arrays, params):
                    return cls(arrays["factor"], params["k"])

                def oracle_cost_hint(self):
                    return 1.0
        """)
        assert codes(report) == ["R3[payload-key-mismatch]"]

    def test_dynamic_payload_is_opaque(self):
        report = check("""
            class D:
                def worker_payload(self):
                    return dict(self._arrays), {**self._base, "extra": 1}

                @classmethod
                def from_worker_payload(cls, arrays, params):
                    return cls(arrays["anything"], params["at-all"])

                def oracle_cost_hint(self):
                    return 1.0
        """)
        assert codes(report) == []


# ---------------------------------------------------------------------- #
# R4 — export hygiene
# ---------------------------------------------------------------------- #
class TestExportHygieneRule:
    def test_set_in_export_flagged(self):
        report = check("""
            class S:
                def snapshot(self):
                    return {"nodes": {1, 2, 3}}
        """)
        assert codes(report) == ["R4[set-in-export]"]

    def test_lock_in_export_flagged(self):
        report = check("""
            import threading

            class S:
                _GUARDED_BY = {"_lock": ("_items",)}

                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def snapshot(self):
                    with self._lock:
                        return {"lock": self._lock, "n": len(self._items)}
        """)
        assert "R4[lock-in-export]" in codes(report)

    def test_numpy_in_export_flagged_coercion_ok(self):
        bad = check("""
            import numpy as np

            class S:
                def stats(self):
                    return {"mean": np.mean(self.values)}
        """)
        assert codes(bad) == ["R4[numpy-in-export]"]
        good = check("""
            import numpy as np

            class S:
                def stats(self):
                    return {"mean": float(np.mean(self.values)),
                            "ids": sorted({1, 2})}
        """)
        assert codes(good) == []

    def test_bytes_in_export_flagged(self):
        report = check("""
            class S:
                def cluster_info(self):
                    return {"fingerprint": b"abc123"}
        """)
        assert codes(report) == ["R4[bytes-in-export]"]

    def test_non_export_methods_ignored(self):
        report = check("""
            class S:
                def internal(self):
                    return {"nodes": {1, 2, 3}}
        """)
        assert codes(report) == []


# ---------------------------------------------------------------------- #
# R5 — unused imports
# ---------------------------------------------------------------------- #
class TestUnusedImportRule:
    def test_unread_imports_flagged(self):
        report = check("""
            import math
            import os.path
            from typing import List, Optional
            from collections import deque as queue

            def f(xs: List[int]) -> int:
                return len(xs)
        """)
        assert codes(report) == ["R5[unused-import]"] * 4
        assert sorted(v.message.split("'")[1] for v in report.violations) == [
            "Optional", "math", "os", "queue"]

    def test_reads_annotations_and_all_count(self):
        report = check("""
            from __future__ import annotations

            import os.path
            from typing import TYPE_CHECKING, Optional
            from repro.utils.subsets import subset_key

            if TYPE_CHECKING:
                from repro.distributions.base import SubsetDistribution

            __all__ = ["subset_key", "f"]

            def f(d: Optional["SubsetDistribution"]) -> bool:
                return os.path.exists("x")
        """)
        assert codes(report) == []

    def test_package_init_reexports_exempt(self):
        source = "from repro.utils.subsets import subset_key\n"
        assert codes(check_source(source, "src/repro/pkg/__init__.py")) == []
        assert codes(check_source(source, "src/repro/pkg/mod.py")) == ["R5[unused-import]"]


# ---------------------------------------------------------------------- #
# no allowlist
# ---------------------------------------------------------------------- #
class TestNoAllowlist:
    def test_allow_comment_leaves_the_hit_reported(self):
        report = check(_R2_BAD.replace(
            "return len(self._items)",
            "return len(self._items)  # repro: allow[R2] -- fixture: race is benign"))
        assert codes(report) == ["R2[unlocked-access]"]


# ---------------------------------------------------------------------- #
# CLI / exit-code contract
# ---------------------------------------------------------------------- #
class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert analysis_main([str(tmp_path)]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_exit_one_on_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("class S:\n"
                       "    def snapshot(self):\n"
                       "        return {'ids': {1, 2}}\n")
        assert analysis_main([str(tmp_path)]) == 1
        assert "set-in-export" in capsys.readouterr().out

    def test_exit_two_on_no_paths(self, capsys):
        assert analysis_main([]) == 2

    def test_json_artifact(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("class S:\n"
                       "    def snapshot(self):\n"
                       "        return {'ids': {1, 2}}\n")
        artifact = tmp_path / "report.json"
        assert analysis_main([str(bad), "--json", str(artifact)]) == 1
        payload = json.loads(artifact.read_text())
        assert payload["ok"] is False
        assert payload["violations"][0]["rule"] == "R4"

    def test_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out

    def test_in_repro_scope_via_paths(self, tmp_path):
        nested = tmp_path / "src" / "repro"
        nested.mkdir(parents=True)
        (nested / "mod.py").write_text("import random\nx = random.random()\n")
        report = check_paths([str(tmp_path)])
        assert codes(report) == ["R1[stdlib-random]"]

    def test_merged_tree_is_clean(self):
        """The repo gate: `python -m repro.analysis src benchmarks` exits 0."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src", "benchmarks"],
            cwd=ROOT, env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stdout + result.stderr


# ---------------------------------------------------------------------- #
# runtime harness units
# ---------------------------------------------------------------------- #
class _Guarded:
    _GUARDED_BY = {"_lock": ("_value", "_racy")}

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0
        self._racy = 0

    def bump(self):
        with self._lock:
            self._value += 1

    def peek(self):
        return self._value  # deliberate unguarded read


class TestRuntimeHarness:
    def test_merged_guarded_by_walks_mro(self):
        class Child(_Guarded):
            _GUARDED_BY = {"_lock": ("_value", "_racy", "_extra")}

        assert merged_guarded_by(Child)["_lock"] == ("_value", "_racy", "_extra")

    def test_guard_instance_catches_unguarded_read(self):
        collector = []
        obj = guard_instance(_Guarded(), collector=collector)
        obj.bump()  # locked path: clean
        assert collector == []
        obj.peek()  # unguarded read: recorded, not raised
        assert [v.kind for v in collector] == ["unguarded-access"]
        assert "_value" in collector[0].detail

    def test_guard_instance_raises_without_collector(self):
        obj = guard_instance(_Guarded())
        obj.bump()
        with pytest.raises(AssertionError, match="unguarded-access"):
            obj.peek()

    def test_guard_instance_preserves_state_and_requires_declaration(self):
        obj = _Guarded()
        obj.bump()
        guard_instance(obj, collector=[])
        with obj._lock:
            assert obj._value == 1
        with pytest.raises(ValueError):
            guard_instance(object())

    def test_debuglock_flags_rank_inversion(self):
        collector = []
        # FactorizationCache ranks inside KernelRegistry: registry-then-cache
        # is the canonical order, cache-then-registry is the inversion
        registry_lock = DebugLock(threading.Lock(), owner="KernelRegistry",
                                  collector=collector)
        cache_lock = DebugLock(threading.Lock(), owner="FactorizationCache",
                               collector=collector)
        with registry_lock:
            with cache_lock:
                pass
        assert collector == []
        with cache_lock:
            with registry_lock:
                pass
        assert [v.kind for v in collector] == ["lock-order"]

    def test_debuglock_reentrant_rlock_not_an_inversion(self):
        collector = []
        lock = DebugLock(threading.RLock(), owner="LocalCluster",
                         collector=collector)
        with lock:
            with lock:
                pass
        assert collector == []

    def test_chaos_scheduler_is_seed_deterministic(self):
        def switch_trace(seed):
            chaos = ChaosScheduler(seed, max_sleep=0.0)
            trace = []
            for _ in range(64):
                chaos.maybe_switch()
                trace.append(chaos.switches)
            return trace

        assert switch_trace(7) == switch_trace(7)
        assert switch_trace(7) != switch_trace(8)

    def test_chaos_scheduler_restores_switch_interval(self):
        before = sys.getswitchinterval()
        with ChaosScheduler(0):
            assert sys.getswitchinterval() != before or before == 1e-5
        assert sys.getswitchinterval() == before


# ---------------------------------------------------------------------- #
# chaos stress: the contracts hold under perturbed interleavings
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def stress_kernel():
    return random_psd_ensemble(6, rank=4, seed=3)


class TestChaosStress:
    def test_fused_drain_byte_identical_across_seeded_schedules(self, stress_kernel):
        """STRESS_ITERATIONS seeded interleavings of a concurrent submit +
        fused drain, each guarded by the runtime harness, all producing the
        samples the unfused path produces."""
        registry = KernelRegistry()
        reference_session = serve(stress_kernel, registry=registry)
        seeds = list(range(100, 116))
        expected = {s: reference_session.sample(2, seed=s, method="parallel").subset
                    for s in seeds}

        failures = []
        for chaos_seed in range(STRESS_ITERATIONS):
            collector = []
            with ChaosScheduler(chaos_seed) as chaos:
                session = serve(stress_kernel, registry=registry)
                scheduler = RoundScheduler(session, seed=0)
                guard_instance(session, collector=collector, chaos=chaos)
                guard_instance(scheduler, collector=collector, chaos=chaos)

                indices = {}
                index_lock = threading.Lock()

                def submit_range(chunk):
                    for s in chunk:
                        chaos.maybe_switch()
                        ticket = scheduler.submit(2, seed=s)
                        with index_lock:
                            indices[ticket.index] = s

                threads = [threading.Thread(target=submit_range,
                                            args=(seeds[i::4],))
                           for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                results = scheduler.drain()
                session.close()

            for index, result in enumerate(results):
                if result.subset != expected[indices[index]]:
                    failures.append(
                        f"seed {chaos_seed}: request {indices[index]} drained "
                        f"{result.subset}, expected {expected[indices[index]]}")
            failures.extend(f"seed {chaos_seed}: {v.render()}" for v in collector)
        reference_session.close()
        assert not failures, "\n".join(failures[:20])

    def test_kill_node_failover_under_chaos(self, stress_kernel):
        """Fresh 2-node replication-2 cluster per iteration: kill the
        primary mid-session and require the failover sample byte-identical,
        with the guarded client/session reporting no contract breaches."""
        failures = []
        for chaos_seed in range(FAILOVER_ITERATIONS):
            collector = []
            with ChaosScheduler(chaos_seed) as chaos, \
                    LocalCluster(nodes=2, replication=2) as cluster:
                session = serve_cluster(stress_kernel, cluster=cluster)
                client = cluster.client()
                guard_instance(client, collector=collector, chaos=chaos)
                guard_instance(session, collector=collector, chaos=chaos)

                want = session.sample(k=2, seed=21).subset
                cluster.kill_node(session.owners[0])
                got = session.sample(k=2, seed=21).subset
                if got != want:
                    failures.append(
                        f"seed {chaos_seed}: failover sample {got} != {want}")
                if client.failover_count() < 1:
                    failures.append(f"seed {chaos_seed}: no failover recorded")
                session.close()
            failures.extend(f"seed {chaos_seed}: {v.render()}" for v in collector)
        assert not failures, "\n".join(failures[:20])


# ---------------------------------------------------------------------- #
# typing gate
# ---------------------------------------------------------------------- #
def test_mypy_strict_on_analysis_package():
    if shutil.which("mypy") is None:
        pytest.skip("mypy not installed here; the CI analysis job runs it")
    result = subprocess.run(
        ["mypy", "--strict", os.path.join("src", "repro", "analysis")],
        cwd=ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
