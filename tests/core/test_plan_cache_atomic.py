"""Torn-write regression: a writer killed mid-persist never corrupts
the plan store.

The subprocess patches ``os.fsync`` to SIGKILL itself after the data
reaches the ``*.tmp`` sibling but *before* ``os.replace`` — the widest
torn-write window ``atomic_write_text`` leaves open.  The destination
must stay untouched (absent, or byte-identical old content) and the
only debris must be a ``*.tmp`` file that ``sweep_tmp_files`` collects.
"""

import os
import signal
import stat
import subprocess
import sys
from pathlib import Path

from repro.compile.pipeline import compile_key
from repro.core.plan_cache import PlanCache, PlanKey
from repro.fsutil import TMP_SUFFIX, atomic_write_text, sweep_tmp_files
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.store.plan_store import PlanStore

SRC = str(Path(__file__).resolve().parents[2] / "src")

KILL_AFTER_FSYNC = """
import os, sys
sys.path.insert(0, {src!r})
real_fsync = os.fsync
def killing_fsync(fd):
    real_fsync(fd)
    os.kill(os.getpid(), 9)
os.fsync = killing_fsync
"""


def make_key(**overrides) -> PlanKey:
    fields = dict(
        network="lenet", device="jetson-agx-xavier", batch_size=1,
        precision="fp32", use_memory_management=True,
        use_hybrid_execution=True, use_inter_kernel=True,
        use_intra_kernel=True, objective="latency",
    )
    fields.update(overrides)
    return PlanKey(**fields)


def tune_lenet():
    return compile_key(make_key(), JETSON_AGX_XAVIER).artifact


def run_killed_writer(body: str) -> subprocess.CompletedProcess:
    script = KILL_AFTER_FSYNC.format(src=SRC) + body
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, (
        f"writer should die by SIGKILL mid-write, got "
        f"rc={proc.returncode}\nstdout={proc.stdout}\nstderr={proc.stderr}"
    )
    return proc


class TestKilledCachePersist:
    def test_no_torn_artifact_and_clean_recovery(self, tmp_path):
        root = tmp_path / "store"
        run_killed_writer(f"""
from repro.compile.pipeline import compile_key
from repro.core.plan_cache import PlanCache, PlanKey
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.store.plan_store import PlanStore
key = PlanKey(network="lenet", device="jetson-agx-xavier", batch_size=1,
              precision="fp32", use_memory_management=True,
              use_hybrid_execution=True, use_inter_kernel=True,
              use_intra_kernel=True, objective="latency")
cache = PlanCache(store=PlanStore({str(root)!r}))
cache.get_or_tune(
    key, lambda: compile_key(key, JETSON_AGX_XAVIER).artifact
)
print("UNREACHABLE")
""")
        # Neither the object nor the manifest appeared; only tmp debris
        # is allowed.
        store = PlanStore(root)
        assert list(store.objects_dir.glob("*.json")) == []
        assert not store.manifest_path.exists()
        debris = list(store.objects_dir.glob(f"*{TMP_SUFFIX}"))
        assert debris, "the kill window should leave the tmp sibling"

        # Recovery: sweep the corpse, re-tune, persist for real.
        assert store.sweep_tmp() == debris
        key = make_key()
        cache = PlanCache(store=store)
        cache.get_or_tune(key, tune_lenet)
        assert store.contains(key)
        assert cache.corrupt_loads == 0

        # And a *fresh* process-view cache loads it with zero tuning.
        warm = PlanCache(store=PlanStore(root))
        result = warm.get_or_tune(
            key, lambda: (_ for _ in ()).throw(AssertionError("re-tuned"))
        )
        assert result.key == key

    def test_killed_overwrite_keeps_old_bytes(self, tmp_path):
        target = tmp_path / "artifact.json"
        atomic_write_text(target, '{"old": "complete content"}\n')
        before = target.read_bytes()
        run_killed_writer(f"""
from repro.fsutil import atomic_write_text
atomic_write_text({str(target)!r}, '{{"new": "' + "x" * 65536 + '"}}')
""")
        assert target.read_bytes() == before
        assert sweep_tmp_files(tmp_path)
        assert target.read_bytes() == before


class TestDirectoryFsync:
    def test_directory_is_fsynced_after_the_rename(
        self, tmp_path, monkeypatch
    ):
        """A rename is durable only once its directory is fsynced: the
        tmp file's data is fsynced before ``os.replace``, and a
        descriptor of the target's directory after it."""
        calls = []
        real_replace, real_fsync = os.replace, os.fsync

        def replace(src, dst):
            calls.append(("replace", None))
            real_replace(src, dst)

        def fsync(fd):
            calls.append(("fsync", os.fstat(fd)))
            real_fsync(fd)

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "fsync", fsync)
        target = tmp_path / "objects" / "artifact.json"
        atomic_write_text(target, '{"complete": "content"}\n')
        monkeypatch.undo()

        kinds = [kind for kind, _ in calls]
        assert kinds.count("replace") == 1
        split = kinds.index("replace")
        directory = os.stat(target.parent)

        def is_directory(st):
            return stat.S_ISDIR(st.st_mode) and (st.st_dev, st.st_ino) == (
                directory.st_dev, directory.st_ino,
            )

        before = [st for kind, st in calls[:split] if kind == "fsync"]
        after = [st for kind, st in calls[split + 1:] if kind == "fsync"]
        assert before and all(stat.S_ISREG(st.st_mode) for st in before)
        assert any(is_directory(st) for st in after)
        assert target.read_text() == '{"complete": "content"}\n'
