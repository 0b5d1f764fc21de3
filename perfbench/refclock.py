"""A host-speed reference interleaved into the timed section.

The host's speed drifts by tens of percent in phases that last seconds, so
raw seconds of the same work do not repeat.  While a section is timed, a
``SIGALRM`` handler runs a fixed reference computation every ``INTERVAL``
seconds and records how long it took.  The section's own time, less those
slices, divided by the mean slice, is its cost in reference units (``ref``):
the slices sample the host's speed at the same moments as the program runs,
including inside a single long call such as an exhaustive search.

The reference uses the interpreter the way the program does: byte strings
and tuples built by indexing, integer index arithmetic, dict lookups,
validated frozen dataclass objects, and sets and lists in small loops.  A
plain counting loop does not track the program's speed (see README.md).
"""

import signal
import time
from dataclasses import dataclass
from itertools import product

INTERVAL = 0.040

# Duration of one reference slice on a quiet host: the unit that turns
# reference units back into seconds for set-up time.
NOMINAL_SLICE_S = 0.004

# Fixed data for the reference, from a linear congruential generator and
# closed formulas; nothing here depends on the host or on the program.
_WIDTH = 64
_K = 4


def _lcg_perms(count, width, state=12345):
    perms = []
    for _ in range(count):
        items = list(range(width))
        for i in range(width - 1, 0, -1):
            state = (state * 1103515245 + 12345) % (1 << 31)
            j = state % (i + 1)
            items[i], items[j] = items[j], items[i]
        perms.append(items)
    return perms


@dataclass(frozen=True)
class _Perm:
    """A validated permutation, built the way uimlab builds its own."""

    images: tuple

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation: {self.images}")

    def after(self, inner: "_Perm") -> "_Perm":
        return _Perm(tuple(self.images[j] for j in inner.images))


_REMAPS = _lcg_perms(48, _WIDTH)
_VALS = bytes((7 * i + 3) % _K for i in range(_WIDTH))
_IMAGES = (0, 9, 18, 27, 36, 45)
_PERMS = [_Perm(tuple(p)) for p in _lcg_perms(40, 5)]
_WORDS = list(product(range(3), repeat=6))
_INDEX_REPS, _INNER_PERMS, _WORD_REPS = 5, 12, 2


def reference_slice() -> int:
    """The fixed reference computation; its result is only a checksum.

    Three parts take about 40 %, 30 % and 30 % of it: values gathered
    by index into byte strings, tuples and dict memo lookups, as the
    classifier does; validated frozen dataclass objects composed and
    hashed, as the brute-force paths do with permutations; and
    first-occurrence words built with a set and a list, as ``ofo`` does."""
    memo = {}
    acc = 0
    for _ in range(_INDEX_REPS):
        for remap in _REMAPS:
            key = bytes(map(_VALS.__getitem__, remap))
            seen = memo.get(key)
            if seen is None:
                memo[key] = len(memo)
            else:
                acc += seen
            t = tuple(key[j] for j in _IMAGES)
            idx = 0
            for x in t:
                idx = idx * _K + x
            acc += memo.get(idx, idx & 1)
    composed = set()
    for a in _PERMS:
        for b in _PERMS[:_INNER_PERMS]:
            composed.add(a.after(b))
    acc += len(composed)
    for _ in range(_WORD_REPS):
        for t in _WORDS:
            seen = set()
            word = []
            for x in t:
                if x not in seen:
                    seen.add(x)
                    word.append(x)
            acc += len(word)
    return acc


def median_slice(count: int = 3) -> float:
    """Seconds per reference slice right now: the median of ``count``."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        reference_slice()
        times.append(time.perf_counter() - start)
    return sorted(times)[count // 2]


class RefClock:
    """Times sections with the reference interleaved, and keeps a clock of
    program time that excludes every reference slice run so far."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.ref_total = 0.0
        self.ref_count = 0

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        reference_slice()
        self.ref_total += time.perf_counter() - start
        self.ref_count += 1

    def now(self) -> float:
        """Seconds of program time: wall time less all reference slices.

        A slice can land between reading the wall clock and reading the
        slice total; reading the total on both sides detects it."""
        while True:
            before = self.ref_total
            t = time.perf_counter()
            if self.ref_total == before:
                return t - before

    def section(self):
        return _Section(self)


class _Section:
    """``with clock.section() as s:`` arms the reference timer for the body;
    afterwards ``s.wall_s``, ``s.ref_s``, ``s.slices`` and ``s.work_ref``."""

    def __init__(self, clock: RefClock):
        self.clock = clock

    def __enter__(self):
        c = self.clock
        self._previous = signal.signal(signal.SIGALRM, c._on_alarm)
        self._ref0, self._count0 = c.ref_total, c.ref_count
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, c.interval, c.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        c = self.clock
        self.wall_s = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.ref_s = c.ref_total - self._ref0
        self.slices = c.ref_count - self._count0
        return False

    @property
    def slice_s(self) -> float:
        if self.slices == 0:
            raise RuntimeError("section too short for a reference slice")
        return self.ref_s / self.slices

    @property
    def work_ref(self) -> float:
        return (self.wall_s - self.ref_s) / self.slice_s
