"""Fixed pure-Python work that tracks the host's current speed.

On a shared host, speed drifts by tens of percent over minutes, and
every host time drifts with it.  ``run.py`` times this process beside
each measured unit and scales that unit's host times by
``CALIBRATION_REF_S`` over this process's wall time, which cancels the
drift common to both.

The work -- a seeded LRU table walk over small objects, with dict,
attribute and integer traffic much like the simulator's own -- uses no
code of the program under test, so no change to the program moves it.
It prints the number of table hits, so the work cannot be skipped.

Usage::

    python3 perfbench/calibrate.py
"""

from collections import OrderedDict

STEPS = 250_000
SETS = 64
WAYS = 16
PAGES = 4096


class Entry:
    __slots__ = ("count", "sent")

    def __init__(self) -> None:
        self.count = 0
        self.sent = False


def work(steps: int) -> int:
    table = [OrderedDict() for _ in range(SETS)]
    state = 12345
    hits = 0
    for _ in range(steps):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        page = (state >> 8) % PAGES
        target = table[page % SETS]
        entry = target.get(page)
        if entry is None:
            if len(target) >= WAYS:
                target.popitem(last=False)
            entry = target[page] = Entry()
        else:
            target.move_to_end(page)
            hits += 1
        entry.count += 1
        if entry.count >= 4:
            entry.sent = True
    return hits


if __name__ == "__main__":
    print(work(STEPS))
