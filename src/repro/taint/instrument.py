"""Function-level instrumentation helpers.

Phosphor instruments every bytecode instruction; for code it cannot see
into (native methods) it falls back to a *method summary*: the return
value's taint is the union of the arguments' taints (paper Fig. 4).  That
summary is exactly right for pure library helpers and exactly wrong for
network receive methods — the received data's true taint lives on the
sending node and the parameter-derived summary loses it.  DisTA's whole
point is replacing that naive wrapper on the 23 network JNI methods.

This module provides the summary wrapper, used both as a convenience for
simulated "uninstrumented library" calls and as the PHOSPHOR-mode JNI
baseline.
"""

from __future__ import annotations

import functools
from typing import Callable

from repro.taint.values import taint_of, union_labels, with_taint


def phosphor_summary(fn: Callable) -> Callable:
    """Method-summary instrumentation: return taint = union of arg taints.

    This is what Phosphor does for opaque (native) methods.  Sound for
    pure functions; unsound for anything with external data flow.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        taint = None
        for value in list(args) + list(kwargs.values()):
            taint = union_labels(taint, taint_of(value))
        result = fn(*args, **kwargs)
        if taint is None or result is None:
            return result
        try:
            return with_taint(result, taint)
        except TypeError:
            return result

    wrapper.__phosphor_summary__ = True  # type: ignore[attr-defined]
    return wrapper

