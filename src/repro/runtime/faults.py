"""Deterministic fault injection for the execution layer.

Production failure modes — a worker segfaulting, a task hanging, a
library raising, a cache frame landing corrupt on disk — are rare and
non-deterministic in the wild, which makes the recovery paths the least
tested code in the system.  This module makes those events *scheduled*:
a :class:`FaultPlan` names exactly which task ordinals misbehave and
how, a :class:`FaultInjector` fires the faults inside pool workers (or
the serial twin), and the plan travels as a compact spec string through
``REPRO_FAULT_PLAN`` or ``repro sweep --inject-faults`` so the same
failure replays bit-identically in tests and CI.

Plan grammar (entries joined by ``;``)::

    crash@3             worker calls os._exit on dispatched task 3 (once)
    hang@5x2=0.4        task 5 sleeps 0.4s before running, twice
    raise@7x*           task 7 raises InjectedFault on every attempt
    corrupt@9           task 9's record is cached as a bad-CRC frame
    state=/tmp/faults   directory for cross-process one-shot bookkeeping

Ordinals count *dispatched* tasks per runner, in dispatch order (cache
hits resolved by the parent are not dispatched).  ``xN`` fires a fault
at most N times, ``x*`` means every attempt; the default is once.  A
one-shot ``crash``/``hang`` needs ``state=`` to stay one-shot across
the pool rebuild it provokes — without it each fresh worker fires anew
(the runner still converges by quarantining the task).
"""

from __future__ import annotations

import hashlib
import os
import re
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "CRASH_EXIT_CODE",
    "FAULT_MODES",
    "FAULT_PLAN_ENV",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "write_corrupt_frame",
]

#: Environment variable consulted by workers and runners for a default plan.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Exit code used by injected worker crashes (distinguishable from signals).
CRASH_EXIT_CODE = 86

#: Supported fault modes, in the order the grammar documents them.
FAULT_MODES = ("crash", "hang", "raise", "corrupt")

_ENTRY_PATTERN = re.compile(
    r"^(crash|hang|raise|corrupt)@(\d+)(?:x(\d+|\*))?(?:=([0-9.]+))?$"
)


class InjectedFault(RuntimeError):
    """Raised by ``raise``-mode faults (and only by them)."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: ``mode`` fires at dispatched-task ``index``.

    ``count`` bounds how many times it fires (``None`` = every attempt);
    ``param`` is the mode's numeric argument (hang duration in seconds).
    """

    mode: str
    index: int
    count: Optional[int] = 1
    param: Optional[float] = None

    def entry(self) -> str:
        """Canonical spec-string entry for this fault."""
        text = f"{self.mode}@{self.index}"
        if self.count is None:
            text += "x*"
        elif self.count != 1:
            text += f"x{self.count}"
        if self.param is not None:
            text += f"={self.param:g}"
        return text


class FaultPlan:
    """An immutable schedule of :class:`FaultSpec` entries.

    ``state_dir`` (the ``state=`` entry) names a directory used for
    marker files so one-shot counts hold across processes — essential
    for ``crash`` faults, where the process that fired does not survive
    to remember having done so.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        state_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self._specs = tuple(specs)
        self._state_dir = None if state_dir is None else Path(state_dir)
        for spec in self._specs:
            if spec.mode not in FAULT_MODES:
                raise ValueError(f"unknown fault mode: {spec.mode!r}")
            if spec.index < 0:
                raise ValueError(f"fault index must be >= 0, got {spec.index}")

    @property
    def specs(self) -> Tuple[FaultSpec, ...]:
        """The scheduled faults, in plan order."""
        return self._specs

    @property
    def state_dir(self) -> Optional[Path]:
        """Directory for cross-process one-shot markers (``state=``)."""
        return self._state_dir

    @property
    def spec(self) -> str:
        """Canonical spec string (parses back to an equivalent plan)."""
        entries = [item.entry() for item in self._specs]
        if self._state_dir is not None:
            entries.append(f"state={self._state_dir}")
        return ";".join(entries)

    @classmethod
    def parse(cls, text: Optional[str]) -> Optional["FaultPlan"]:
        """Parse a spec string; ``None``/blank input means no plan."""
        if text is None:
            return None
        text = text.strip()
        if not text:
            return None
        specs: List[FaultSpec] = []
        state_dir: Optional[str] = None
        for raw in text.split(";"):
            entry = raw.strip()
            if not entry:
                continue
            if entry.startswith("state="):
                state_dir = entry[len("state=") :]
                continue
            match = _ENTRY_PATTERN.match(entry)
            if match is None:
                raise ValueError(
                    f"bad fault entry {entry!r} (expected mode@index[xN|x*][=param] "
                    f"with mode one of {', '.join(FAULT_MODES)})"
                )
            mode, index, count, param = match.groups()
            specs.append(
                FaultSpec(
                    mode=mode,
                    index=int(index),
                    count=None if count == "*" else int(count or 1),
                    param=None if param is None else float(param),
                )
            )
        if not specs:
            return None
        return cls(specs, state_dir=state_dir)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """Build the plan named by ``REPRO_FAULT_PLAN``, if any."""
        return cls.parse(os.environ.get(FAULT_PLAN_ENV))

    @classmethod
    def scatter(
        cls,
        total: int,
        rate: float,
        seed: int = 0,
        mode: str = "crash",
        state_dir: Optional[Union[str, Path]] = None,
    ) -> "FaultPlan":
        """Scatter one-shot faults over ``total`` ordinals, seed-driven.

        Each ordinal independently gets a fault with probability
        ``rate``, decided by a sha256 draw so the same (total, rate,
        seed, mode) always yields the same plan.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        specs = []
        for index in range(total):
            token = f"fault-scatter|{seed}|{mode}|{index}".encode()
            draw = int.from_bytes(hashlib.sha256(token).digest()[:8], "big")
            if draw / 2**64 < rate:
                specs.append(FaultSpec(mode=mode, index=index))
        return cls(specs, state_dir=state_dir)

    def faults_for(self, index: int) -> Tuple[FaultSpec, ...]:
        """The faults scheduled at dispatched-task ordinal ``index``."""
        return tuple(spec for spec in self._specs if spec.index == index)

    def __bool__(self) -> bool:
        return bool(self._specs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self._specs == other._specs and self._state_dir == other._state_dir

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.spec!r})"


class FaultInjector:
    """Fires a :class:`FaultPlan`'s faults at task-execution time.

    One injector lives per process (worker or parent).  ``fire`` is
    called with the task's dispatch ordinal just before the task runs;
    crash/hang/raise faults take effect immediately, while a claimed
    ``corrupt`` fault is reported back (``True``) for the caller to act
    on after computing the result.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._fired: Dict[Tuple[str, int], int] = {}
        state_dir = plan.state_dir
        if state_dir is not None:
            state_dir.mkdir(parents=True, exist_ok=True)

    @property
    def plan(self) -> FaultPlan:
        """The plan this injector executes."""
        return self._plan

    def fire(self, ordinal: int) -> bool:
        """Fire any faults due at ``ordinal``; return True to corrupt.

        ``crash`` exits the process (after claiming its marker, so a
        stateful plan never crash-loops), ``hang`` sleeps ``param``
        seconds (default 3600 — long enough that only a task timeout
        ends it), ``raise`` raises :class:`InjectedFault`.
        """
        corrupt = False
        for spec in self._plan.faults_for(ordinal):
            if not self._claim(spec):
                continue
            if spec.mode == "crash":
                os._exit(CRASH_EXIT_CODE)
            elif spec.mode == "hang":
                time.sleep(spec.param if spec.param is not None else 3600.0)
            elif spec.mode == "raise":
                raise InjectedFault(
                    f"injected fault at dispatched task {spec.index}"
                )
            elif spec.mode == "corrupt":
                corrupt = True
        return corrupt

    def _claim(self, spec: FaultSpec) -> bool:
        """Consume one firing of ``spec``; False once its count is spent."""
        if spec.count is None:
            return True
        state_dir = self._plan.state_dir
        if state_dir is None:
            key = (spec.mode, spec.index)
            fired = self._fired.get(key, 0)
            if fired >= spec.count:
                return False
            self._fired[key] = fired + 1
            return True
        for attempt in range(spec.count):
            marker = state_dir / f"{spec.mode}-{spec.index}-{attempt}.fired"
            try:
                handle = os.open(str(marker), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                return False
            os.close(handle)
            return True
        return False


def write_corrupt_frame(cache_dir: Union[str, Path], key: object) -> Path:
    """Append a deliberately corrupt frame for ``key`` to a cache dir.

    Writes a fresh packed segment whose single frame carries a CRC that
    does not match its payload — exactly the damage a torn write or bit
    rot leaves behind.  Readers must detect and drop it; ``repro cache
    verify`` must report it.  Returns the segment path.
    """
    from repro.runtime.disk_cache import _SegmentWriter, key_digest

    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    payload = zlib.compress(b"corrupt-injected-frame")
    bad_crc = (zlib.crc32(payload) ^ 0xFFFFFFFF) & 0xFFFFFFFF
    writer = _SegmentWriter(directory, "seg-fault")
    writer.append(bytes.fromhex(key_digest(key)), payload, time.time(), bad_crc)
    path = writer.path
    writer.close()
    with open(path, "rb") as stream:
        os.fsync(stream.fileno())
    return path
