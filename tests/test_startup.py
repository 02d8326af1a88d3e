"""What importing modnull costs a process, and what it changes in it.

``import modnull`` loads a public name only when it is first read, so a
library user's process gets no numpy and no new environment variable
until it asks for them.  The CLI runs numpy's OpenBLAS on one thread
unless the caller set ``OPENBLAS_NUM_THREADS``, since no modnull code
calls a BLAS routine; the artifacts must not depend on that setting.
It also loads with the cyclic GC off and freezes what it loaded, and
``--threads`` runs plain threads, so no command imports a thread pool.
"""

import hashlib
import json
import os
import pkgutil
import subprocess
import sys
import threading
import time

import pytest

import modnull
from modnull import ColorDistribution, gen_regular, rng, simulation

BLAS = "OPENBLAS_NUM_THREADS"


def child(*argv: str, blas: str | None = None, cwd=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with ``argv`` and ``OPENBLAS_NUM_THREADS``
    set to ``blas``, or unset if None."""
    env = {k: v for k, v in os.environ.items() if k != BLAS}
    if blas is not None:
        env[BLAS] = blas
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


def child_json(code: str, **kwargs):
    result = child("-c", code, **kwargs)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


THREADS = """
import json, os
import modnull.cli
print(json.dumps([len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc/self/task")
def test_cli_process_runs_one_thread_unless_the_caller_sets_openblas():
    assert child_json(THREADS) == [1, "1"]
    # OpenBLAS starts no more workers than the process may run on.
    cores = len(os.sched_getaffinity(0))
    assert child_json(THREADS, blas="2") == [min(2, cores), "2"]


def test_import_modnull_loads_no_numpy_and_keeps_the_environment():
    loaded, same_env, gc_state = child_json("""
import gc, json, os, sys
before = dict(os.environ)
import modnull
print(json.dumps([sorted(m for m in sys.modules if m == "numpy" or m.startswith("modnull.")),
                  dict(os.environ) == before, [gc.isenabled(), gc.get_freeze_count()]]))
""")
    assert loaded == [] and same_env and gc_state == [True, 0]


def test_every_public_name_is_its_home_submodules_object():
    for name in modnull.__all__:
        obj = getattr(modnull, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("modnull.") and getattr(home, name) is obj, name
    namespace = {}
    exec("from modnull import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == modnull.__all__
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        modnull.no_such_name
    with pytest.raises(ImportError):
        exec("from modnull import no_such_name", {})


def test_submodules_resolve_after_a_bare_import():
    names = sorted(m.name for m in pkgutil.iter_modules(modnull.__path__) if m.name != "cli")
    assert {"graph", "rng", "serialize", "simulation"} <= set(names)
    resolved = child_json(f"""
import json
import modnull
names = {names!r}
resolved = [getattr(modnull, name).__name__ for name in names]
from modnull import rng
print(json.dumps(resolved + [rng.__name__]))
""")
    assert resolved == [f"modnull.{name}" for name in names] + ["modnull.rng"]


def test_cli_imported_after_numpy_leaves_the_environment_alone():
    assert child_json(f"""
import json, os
import numpy
import modnull.cli
print(json.dumps(os.environ.get({BLAS!r})))
""") is None


# Each collection records whether numpy had started to load.
GC_STATE = """
import gc, json, sys
{before}
late = []
gc.callbacks.append(lambda phase, info: phase == "start" and late.append("numpy" in sys.modules))
import modnull.cli
print(json.dumps([gc.isenabled(), gc.get_freeze_count() > 0, any(late),
                  sorted(m for m in ("concurrent.futures", "logging") if m in sys.modules)]))
"""


def test_cli_import_runs_without_the_cyclic_gc_and_freezes_what_it_loaded():
    # [GC on after the import, objects frozen, a collection ran once numpy
    # was loading, thread-pool modules loaded]
    assert child_json(GC_STATE.format(before="")) == [True, True, False, []]
    # A caller's disabled GC stays disabled.
    assert child_json(GC_STATE.format(before="gc.disable()")) == [False, True, False, []]
    # A process that loaded numpy first keeps its GC and its freeze count.
    assert child_json(GC_STATE.format(before="import numpy")) == [True, False, True, []]


def test_a_threaded_command_imports_no_thread_pool(tmp_path):
    # 200 replicates of a 2000-vertex graph take three chunks, so two workers.
    assert child_json(f"""
import json, sys
import modnull.cli
code = modnull.cli.main(["be-study", "--model", "reg:d=6", "--sizes", "2000", "--reps", "200",
                         "--threads", "2", "--out", {str(tmp_path / "be.csv")!r}])
print(json.dumps([code, sorted(m for m in ("concurrent.futures", "dataclasses", "logging", "string",
                                          "traceback") if m in sys.modules)]))
""") == [0, []]


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("sampler, kernel", [("null_q_samples", "_q_lanes"),
                                             ("martingale_variance_samples", "_v2_lanes")])
def test_a_worker_error_is_raised_after_every_thread_is_joined(monkeypatch, sampler, kernel,
                                                               threads):
    # One lane group per chunk, so 64 replicates make 8 chunks.  Every
    # worker raises in its first chunk, once all of them are inside one,
    # and all but the first worker started raise 0.2 s later: the error
    # raised is the first worker's, and no thread outlives the call.
    monkeypatch.setattr(rng, "BUDGET", 4096)
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    barrier = threading.Barrier(threads, timeout=60)

    def failing(*args):
        barrier.wait()
        if threading.current_thread() is not started[0]:
            time.sleep(0.2)
        raise RuntimeError(threading.current_thread().name)

    monkeypatch.setattr(threading, "Thread", Recorded)
    monkeypatch.setattr(simulation, kernel, failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        getattr(simulation, sampler)(gen_regular(300, 4, 1), ColorDistribution.uniform(2), 64, 5,
                                     threads=threads)
    assert len(started) == threads and str(raised.value) == started[0].name
    assert threading.active_count() == before == 1
    assert not any(thread.is_alive() for thread in started)


GENERATE = ["generate", "--model", "hub:p=0.05", "--n", "200", "--seed", "2", "--out", "hub.txt"]
COMMANDS = [
    ["compute", "--graph", "hub.txt", "--partition", "part.txt", "--out", "compute.json"],
    ["test", "--graph", "hub.txt", "--partition", "part.txt", "--out", "test.json"],
    ["null-sample", "--graph", "hub.txt", "--partition", "part.txt", "--reps", "300",
     "--seed", "3", "--threads", "2", "--out", "null.csv"],
    ["be-study", "--model", "reg:d=4", "--sizes", "40,80", "--reps", "200", "--seed", "5",
     "--threads", "2", "--out", "be.csv"],
]


def test_artifacts_do_not_depend_on_the_blas_thread_pool(tmp_path):
    digests = []
    for blas in (None, "2"):
        workdir = tmp_path / str(blas)
        workdir.mkdir()
        (workdir / "part.txt").write_text("".join(f"{1 + (5 * v) % 3}\n" for v in range(200)))
        streams = []
        for argv in [GENERATE, *COMMANDS]:
            result = child("-m", "modnull.cli", *argv, blas=blas, cwd=workdir)
            assert result.returncode == 0, result.stderr
            streams.append(result.stdout + result.stderr)
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        files["streams"] = "\n".join(streams).encode()
        digests.append({name: hashlib.sha256(data).hexdigest() for name, data in files.items()})
    assert len(digests[0]) == 9
    assert digests[0] == digests[1]
