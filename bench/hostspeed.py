"""Host speed from a fixed reference kernel, timed with each operation.

The benchmark host is a 2-vCPU VM whose speed swings by up to 2x under load
from outside it, on time scales from under a second to a minute, and its
two CPUs are not equally fast at the same moment.  A fixed solshoot call
took 0.06 s in one 5-second window and 0.12 s a minute later, while the
ratio of its time to the kernel below, timed alternately, stayed within
+-4%.  So every timing is also reported in nominal seconds: wall time x
``KERNEL_NOMINAL_S`` / the kernel's time measured where and when the call
ran.  On a quiet host at nominal speed the two agree.

The kernel is small-vector numpy work driven from a Python loop, the same
mix as the package's integrator, and it uses nothing from solshoot, so no
change to the package can move it.
"""

import os
import signal
import statistics
import struct
import time
from contextlib import contextmanager

import numpy as np

# kernel wall time on the reference host (2-vCPU Intel Xeon VM, Python
# 3.11, numpy 2.4) in its fast phases
KERNEL_NOMINAL_S = 0.016

_A = np.array(
    [[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.5, 0.0], [0.0, -0.5, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]]
)


KERNEL_STEPS = 2000  # one kernel run, the unit KERNEL_NOMINAL_S is quoted in
_CHUNK = 250

# the kernel after an operation runs for this share of the operation's wall
# time, and at least the minimum, so long operations get a long sample
KERNEL_SHARE = 0.1
KERNEL_MIN_S = 0.04

# in-process sampling: SAMPLE_STEPS kernel steps (~0.8 ms at nominal speed)
# every SAMPLE_PERIOD_S, about 3% of the call's time
SAMPLE_PERIOD_S = 0.025
SAMPLE_STEPS = 100
MIN_SAMPLES = 4


def _steps(n: int, y: np.ndarray) -> np.ndarray:
    h = 1e-3
    for _ in range(n):
        k1 = _A @ y
        y = y + h * (_A @ (y + 0.5 * h * k1))
        float(np.sqrt(np.mean(np.square(y))))
    return y


def kernel_seconds(budget_s: float = KERNEL_MIN_S) -> float:
    """Wall seconds per ``KERNEL_STEPS`` kernel steps (explicit midpoint on
    a linear 4-vector system plus an RMS norm per step), averaged over at
    least ``budget_s`` of running."""
    y = np.array([1.0, 0.0, 0.5, 0.0])
    steps = 0
    t0 = time.perf_counter()
    while True:
        y = _steps(_CHUNK, y)
        steps += _CHUNK
        elapsed = time.perf_counter() - t0
        if elapsed >= budget_s:
            return elapsed * KERNEL_STEPS / steps


@contextmanager
def pinned(cpus):
    """Run the block with this process restricted to ``cpus``.

    Processes started inside inherit the restriction.
    """
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def host_kernel_seconds(cpus, budget_s: float = KERNEL_MIN_S) -> float:
    """``kernel_seconds`` averaged over ``cpus``, pinned to each in turn.

    The host's CPUs run at different speeds at the same moment, so the
    kernel has to run where the measured work runs: on the one CPU a
    single-threaded client is pinned to, or on every CPU when worker
    processes share them.
    """
    times = []
    for cpu in sorted(cpus):
        with pinned({cpu}):
            times.append(kernel_seconds(budget_s / len(cpus)))
    return sum(times) / len(times)


class _Sampler:
    """Times a few kernel steps every ``SAMPLE_PERIOD_S`` of wall time,
    from a SIGALRM handler, while the block runs in this process.

    The handler runs between bytecodes of the measured code on the same
    CPU, so the samples see the host speed the code sees, moment by moment.
    The handler touches nothing of the measured code's state.
    """

    def __init__(self, record=None):
        self.samples = []
        self._record = record or self.samples.append
        self._y = np.array([1.0, 0.0, 0.5, 0.0])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _steps(SAMPLE_STEPS, self._y)
        self._record(time.perf_counter() - t0)


# write end of the pipe that forked workers send their samples to, set only
# while a call with sample="workers" runs; read by the fork hook below
_worker_pipe = None


def _sample_in_forked_worker():
    """Fork hook: a worker forked during a sampled call samples the kernel
    for its whole life and sends each sample to the parent as 8 bytes.
    Samples that do not fit the pipe are dropped, never waited for."""
    if _worker_pipe is None:
        return
    fd = _worker_pipe
    os.set_blocking(fd, False)

    def send(seconds):
        try:
            os.write(fd, struct.pack("d", seconds))
        except BlockingIOError:
            pass

    _Sampler(send).__enter__()


class Paced:
    """Runs calls and converts their wall time to nominal seconds.

    ``sample`` says where the call's work runs, so where to sample:

    * ``"self"``: in this process, pinned to one CPU.  The kernel is
      sampled during the call and its time is taken out of the wall time.
    * ``"workers"``: in worker processes the call forks.  Each worker
      samples the kernel during its life and sends the samples back.
    * ``None``: elsewhere (a subprocess that execs).  The kernel runs on
      ``cpus`` between calls, and each call is scaled by the mean of the
      kernel runs just before and after it, which half-corrects a change of
      speed during the call.

    A call that yields fewer than ``MIN_SAMPLES`` samples falls back to the
    last way.
    """

    def __init__(self, cpus, sample=None):
        if sample not in ("self", "workers", None):
            raise ValueError(f"sample must be 'self', 'workers' or None, got {sample!r}")
        self._cpus = set(cpus)
        self._sample = sample
        if sample == "workers":
            self._pipe = os.pipe()
            os.set_blocking(self._pipe[0], False)
            _register_fork_hook()
        self._last = host_kernel_seconds(self._cpus)

    def _worker_samples(self) -> list:
        data = b""
        while True:
            try:
                chunk = os.read(self._pipe[0], 65536)
            except BlockingIOError:
                break
            if not chunk:
                break
            data += chunk
        usable = len(data) - len(data) % 8
        return [v for (v,) in struct.iter_unpack("d", data[:usable])]

    def call(self, fn, *args):
        """``(result, wall_s, nominal_s)`` of ``fn(*args)``."""
        global _worker_pipe
        samples, overhead = [], 0.0
        t0 = time.perf_counter()
        if self._sample == "self":
            with _Sampler() as sampler:
                result = fn(*args)
            samples = sampler.samples
            overhead = sum(samples)
        elif self._sample == "workers":
            _worker_pipe = self._pipe[1]
            try:
                result = fn(*args)
            finally:
                _worker_pipe = None
            samples = self._worker_samples()
        else:
            result = fn(*args)
        wall = time.perf_counter() - t0 - overhead
        if len(samples) >= MIN_SAMPLES:
            ref = statistics.fmean(samples) * KERNEL_STEPS / SAMPLE_STEPS
            self._last = ref
            return result, wall, wall * KERNEL_NOMINAL_S / ref
        k = host_kernel_seconds(self._cpus, max(KERNEL_MIN_S, KERNEL_SHARE * wall))
        ref = 0.5 * (self._last + k)
        self._last = k
        return result, wall, wall * KERNEL_NOMINAL_S / ref


_hook_registered = False


def _register_fork_hook():
    global _hook_registered
    if not _hook_registered:
        os.register_at_fork(after_in_child=_sample_in_forked_worker)
        _hook_registered = True
