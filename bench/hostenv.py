"""Host facts recorded with every result: the environment stamp, the
host-noise probe and the import-time probe. Importing this module does not
import numpy, so ``pin_threads`` can run first."""

import bisect
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from importlib import metadata

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads():
    """One BLAS thread, in this process and in every subprocess it starts.
    Must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _git_sha(root):
    # the benchmark may run from an export that is not a git checkout; do
    # not let git find an enclosing repository instead
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def env_stamp(root):
    """Git SHA, Python/numpy/scipy versions, BLAS build, thread variables
    and CPU count. scipy's version is read from its metadata, so the stamp
    does not import it."""
    import numpy as np
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    keep = ("name", "version", "openblas configuration")
    blas, lapack = ({k: v for k, v in deps.get(lib, {}).items() if k in keep}
                    for lib in ("blas", "lapack"))
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas": blas,
        "lapack": lapack,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


# probe times of a host in its usual state; only ratios matter
REF_PROBE_MS = 4.0
REF_SPAWN_MS = 130.0


def probe_ms():
    """One timing, in ms, of a fixed numpy plus pure-Python loop that does
    not use gnewton: Python bytecode, small numpy calls and small LAPACK
    calls, the mix the solves are made of. A host that has switched into a
    slow mode shows as a jump here, independently of the code under test."""
    import numpy as np
    a = np.linspace(0.0, 1.0, 64).reshape(8, 8) + np.eye(8)
    b = np.linspace(-1.0, 1.0, 1200).reshape(40, 30)
    s = b @ b.T
    t0 = time.perf_counter()
    acc = 0
    for i in range(10000):
        acc += i % 7
    for _ in range(250):
        acc += float(np.linalg.norm(a @ a))
    for _ in range(6):
        acc += float(np.linalg.eigh(s)[0][-1] + np.linalg.qr(b)[1][0, 0])
    return (time.perf_counter() - t0) * 1e3


def host_ref_ms(reps=5):
    return statistics.median(probe_ms() for _ in range(reps))


def spawn_probe_ms(root, env):
    """One timing, in ms, of a fresh interpreter that imports numpy and
    exits: the host probe for work done in subprocesses (CLI calls and
    set-up), which the in-process probe does not track. It does not use
    gnewton."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=root,
                   env=env, capture_output=True, timeout=60, check=True)
    return (time.perf_counter() - t0) * 1e3


class HostClock:
    """Host speed sampled by a probe, to scale each timed call to the usual
    host speed.

    A shared host flips between speed states that differ by up to 2x and
    last from under a second to tens of seconds, so a whole run's median
    does not describe one call, and a call of several seconds meets more
    than one state. ``probe`` returns one sample in ms and ``ref_ms`` is its
    time in the usual state. Samples are taken between calls by ``tick``
    (at most every ``every_s`` seconds) or, inside ``timer()``, every
    ``every_s`` seconds by an interval timer, also in the middle of a call.
    Callers take a last ``sample()`` after their last timed call."""

    def __init__(self, probe=probe_ms, ref_ms=REF_PROBE_MS, every_s=0.1):
        self.probe = probe
        self.ref_ms = ref_ms
        self.every_s = every_s
        self.starts, self.ends, self.samples = [], [], []
        self._busy = False
        self.sample()

    def sample(self, *_signal_args):
        if self._busy:  # a timer signal during a sample
            return
        self._busy = True
        start = time.perf_counter()
        ms = self.probe()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.samples.append(ms)
        self._busy = False

    def tick(self):
        if time.perf_counter() - self.ends[-1] >= self.every_s:
            self.sample()

    @contextmanager
    def timer(self):
        """Sample every ``every_s`` seconds from SIGALRM while the block
        runs. The handler runs between bytecodes of the main thread, so a
        sample lands between, never inside, numpy's calls."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start, end):
        """Seconds the call that ran from ``start`` to ``end`` would take
        on the host in its usual state. Samples taken during the call are
        cut out of it; each stretch between two samples is scaled by their
        mean, from the last sample that ended before the call to the first
        that started after it."""
        last = len(self.samples) - 1
        k = max(bisect.bisect_right(self.ends, start) - 1, 0)
        stop = min(bisect.bisect_left(self.starts, end), last)
        seconds, t = 0.0, start
        while k < stop:
            nxt = k + 1
            until = min(self.starts[nxt], end)
            seconds += (max(until - t, 0.0)
                        / (self.samples[k] + self.samples[nxt]))
            t = max(t, self.ends[nxt])
            k = nxt
        if t < end:  # no sample after the call
            seconds += (end - t) / (2 * self.samples[k])
        return seconds * 2 * self.ref_ms

    def factor(self, start, end):
        """Slow-down (> 1: slower than usual) over the call."""
        return (end - start) / self.scaled(start, end)


def import_seconds(root, env, reps=3):
    """Median cumulative import time in seconds of ``gnewton`` and of
    ``scipy.linalg`` (0 when gnewton no longer imports it), read from
    ``python -X importtime`` in fresh interpreters."""
    found = {"gnewton": [], "scipy.linalg": []}
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gnewton"],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
            check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.partition("import time:")[2].split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e6
        for name, values in found.items():
            values.append(cumulative.get(name, 0.0))
    return {name: statistics.median(v) for name, v in found.items()}
