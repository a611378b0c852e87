"""When a run uses a second thread, and the one helper thread it uses.

Two stages of an equilibrium run do numpy work that releases the
interpreter lock.  On a large input, with two or more usable CPUs, each
runs two pieces of that work at once, one on a helper thread:

- `trajectories.integrate` advances the lower half of the starts on
  the helper while it advances the upper half;
- `table.write_table` formats a table's next chunk on the helper while
  it lays out and writes the current one.

Every value is computed by the same arithmetic on either thread, so
the results do not depend on whether a helper ran.  On a small input
the helper costs more than it saves (its start, and the memory of a
second thread), so the work stays on the calling thread.
"""

from __future__ import annotations

import os
import threading

MIN_VALUES = 2**18        # the smallest table or ensemble handed to two threads


def two_threads(n_values: int) -> bool:
    """Whether a table of n_values rows, or an ensemble of n_values
    positions, is worth a second thread: it is at least MIN_VALUES, and
    the process may run on two or more CPUs."""
    if n_values < MIN_VALUES:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


class Helper:
    """Runs the calls given to `submit` on one helper thread, in order,
    while the caller works; the thread lives as long as the `with` block.

    `submit(fn, *args)` returns a function that waits for `fn(*args)` and
    returns its value, or raises what it raised; call these in the order
    of the submits.  Leaving the block waits until the helper has run
    every call submitted and ends the thread, also when the block raises.
    With `threaded=False` there is no thread: each call runs on the
    calling thread when its result is asked for.
    """

    def __init__(self, threaded: bool = True):
        self._thread = None
        if threaded:
            import queue                # loaded only by a run that starts a helper
            self._calls, self._results = queue.SimpleQueue(), queue.SimpleQueue()
            self._thread = threading.Thread(target=self._run, name="bohmlab-helper")

    def __enter__(self) -> Helper:
        if self._thread is not None:
            self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._thread is not None:
            self._calls.put(None)
            self._thread.join()

    def _run(self) -> None:
        for fn, args in iter(self._calls.get, None):
            try:
                self._results.put((fn(*args), None))
            except BaseException as error:      # raised again by the caller's result()
                self._results.put((None, error))

    def submit(self, fn, *args):
        if self._thread is None:
            return lambda: fn(*args)
        self._calls.put((fn, args))

        def result():
            value, error = self._results.get()
            if error is not None:
                raise error
            return value
        return result
