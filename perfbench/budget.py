"""Run one case under its time budget and classify the outcome."""

import signal
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional


class BudgetExceeded(BaseException):
    """Raised by the interval timer.  A BaseException, so that no
    ``except Exception`` inside the program swallows it."""


def _expire(signum, frame):
    raise BudgetExceeded


@dataclass
class Outcome:
    status: str            # ok | wrong | raised | overrun | memory
    elapsed: float         # seconds the call ran
    charged: float         # elapsed when ok, else the full budget
    reason: Optional[str] = None
    output: object = None


def run_case(case, during=nullcontext):
    """Time case.run() under case.budget, then check its output untimed.

    ``during()`` is a context entered around case.run() alone, not around
    the check, which may itself call into qspair.  The timer interrupts
    Python code at the budget; a single long native call ends first and is
    then judged by its elapsed time.
    """
    previous = signal.signal(signal.SIGALRM, _expire)
    elapsed = case.budget   # stands if the timer fires before it is read
    try:
        with during():
            t0 = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, case.budget)
                output = case.run()
            finally:
                elapsed = time.perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        return Outcome("overrun", elapsed, case.budget, "budget exceeded")
    except MemoryError:
        return Outcome("memory", elapsed, case.budget, "MemoryError")
    except Exception as exc:  # any failure of the program is a failed case
        return Outcome("raised", elapsed, case.budget,
                       f"{type(exc).__name__}: {exc}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    reason = case.check(output)
    if reason is not None:
        return Outcome("wrong", elapsed, case.budget, reason, output)
    if elapsed > case.budget:
        return Outcome("overrun", elapsed, case.budget, "budget exceeded",
                       output)
    return Outcome("ok", elapsed, elapsed, None, output)
