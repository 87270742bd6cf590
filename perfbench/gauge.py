"""Host speed gauge: times fixed reference kernels in between the program's work.

A shared host runs the same code at speeds that drift by up to 2x in phases
of seconds to minutes. Reference kernels timed on the same thread, every
`INTERVAL` seconds of wall time (from a SIGALRM handler, so they interleave
with lexlab's own calls), see the speed the program saw. An interval's work
time is its wall time minus the time spent in the gauge; its scaled time is
that work time at the nominal host speed:

    speed  = geometric mean over kernels of NOMINAL_S / median CPU time
    scaled = work * speed

The kernels are independent of lexlab, so a change to lexlab never changes
them. They cover what lexlab spends its time on, and each kind of work
reacts to the host's slow phases by a different amount: interpreter work on
dicts and floats, numpy calls on tiny arrays, sorts of an array and of a
list of tuples, small matrix products, a tall-by-thin product with a row
maximum (the shape of lexical encoding), and a pass over a few megabytes.
Interpreter work alone slows down more than lexlab does in a slow phase;
with the array kernels the mix tracks whole training stages.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass, field

import numpy as np

INTERVAL = 0.2
BRACKET = 3

_rng = np.random.default_rng(0)
_GRID = np.linspace(-1.0, 1.0, 16 * 16).reshape(16, 16)
_VEC = np.linspace(0.0, 1.0, 16)
_WIDE = (np.arange(8192) * 0.618034) % 1.0
_PAIRS = [(i * 7919 % 1000, str(i)) for i in range(600)]
_SQUARE = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
_TALL = _rng.standard_normal((2000, 16))
_THIN = _rng.standard_normal((16, 15))
_BIAS = _rng.standard_normal(2000)
_BIG = _rng.standard_normal(512 * 1024)
_BIG_COPY = np.empty_like(_BIG)


def _interpreter() -> float:
    table: dict[int, int] = {}
    total = 0.0
    for i in range(1200):
        key = i & 63
        table[key] = table.get(key, 0) + i
        total += i * 0.5
    return total


def _tiny_arrays() -> float:
    return sum(float(np.exp(-(_GRID @ _VEC)).sum()) for _ in range(50))


def _sorts() -> float:
    return float(np.sort(_WIDE)[-1]) + sorted(_PAIRS)[-1][0]


def _small_products() -> float:
    return sum(float((_SQUARE @ _SQUARE)[0, 0]) for _ in range(3))


def _tall_products() -> float:
    z = _TALL @ _THIN + _BIAS[:, None]
    return float(z.max(axis=1)[0]) + int(z.argmax(axis=1)[0])


def _stream() -> float:
    np.copyto(_BIG_COPY, _BIG)
    return float(_BIG_COPY.sum())


# Each kernel and its CPU seconds at the nominal speed (about what a 2-vCPU
# Xeon host with one BLAS thread measured); only the ratio to the measured
# time matters.
KERNELS = (
    (_interpreter, 2.4e-4),
    (_tiny_arrays, 3.1e-4),
    (_sorts, 1.8e-4),
    (_small_products, 4.0e-5),
    (_tall_products, 4.9e-4),
    (_stream, 9.0e-4),
)


@dataclass
class Interval:
    wall: float = 0.0  # raw wall seconds
    work: float = 0.0  # wall seconds minus the gauge's own samples
    speed: float = 1.0  # host speed over nominal (> 1: faster than nominal)
    samples: int = 0
    kernel_s: list = field(default_factory=list)  # median CPU seconds per kernel

    @property
    def scaled(self) -> float:
        return self.work * self.speed


class Gauge:
    """Samples go into preallocated arrays: a Python object kept per sample,
    allocated in the middle of lexlab's work, would pin its memory pages and
    make peak RSS depend on when the timer fired."""

    def __init__(self, capacity: int = 1 << 14) -> None:
        self.n = 0
        self.at = np.empty(capacity)  # wall start of each sample
        self.wall = np.empty(capacity)  # wall seconds of each sample
        self.cpu = np.empty((capacity, len(KERNELS)))  # CPU seconds per kernel
        self._busy = False
        self._previous = None

    def sample(self, *_signal_args) -> None:
        if self._busy:  # the timer fired during a bracket sample
            return
        self._busy = True
        if self.n == len(self.at):
            self.at, self.wall, self.cpu = (np.concatenate([a, np.empty_like(a)])
                                            for a in (self.at, self.wall, self.cpu))
        n = self.n
        w = time.perf_counter()
        for k, (kernel, _) in enumerate(KERNELS):
            c = time.process_time()
            kernel()
            self.cpu[n, k] = time.process_time() - c
        self.wall[n] = time.perf_counter() - w
        self.at[n] = w
        self.n = n + 1
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def measure(self) -> "_Measure":
        """`with gauge.measure() as iv:` fills `iv` when the block ends.

        BRACKET samples are taken right before and right after the block, so
        even a block shorter than INTERVAL has a reference.
        """
        return _Measure(self)


class _Measure:
    __slots__ = ("gauge", "interval", "lo", "start")

    def __init__(self, gauge: Gauge) -> None:
        self.gauge = gauge
        self.interval = Interval()

    def __enter__(self) -> Interval:
        self.lo = self.gauge.n
        for _ in range(BRACKET):
            self.gauge.sample()
        self.start = time.perf_counter()
        return self.interval

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        g = self.gauge
        for _ in range(BRACKET):
            g.sample()
        at, wall, cpu = g.at[self.lo:g.n], g.wall[self.lo:g.n], g.cpu[self.lo:g.n]
        iv = self.interval
        iv.wall = end - self.start
        iv.work = iv.wall - float(wall[(at >= self.start) & (at < end)].sum())
        iv.kernel_s = np.median(cpu, axis=0).tolist()
        nominal = np.array([seconds for _, seconds in KERNELS])
        iv.speed = float(np.exp(np.mean(np.log(nominal / iv.kernel_s))))
        iv.samples = len(at)
