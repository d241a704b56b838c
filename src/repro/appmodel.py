"""Calibrated application-compute model.

A real Phosphor-instrumented JVM pays shadow maintenance on *every*
arithmetic/move instruction of the application, which is where its 2–4×
overhead (paper Table V/VI) comes from — not from I/O alone.  The
simulated systems in this repository are deliberately thin, so this
per-byte checksum stands in for the application's compute over received
data:

* under ``Mode.ORIGINAL`` it runs the plain-value loop an uninstrumented
  JVM would execute;
* under shadow modes it runs the "rewritten" loop that consults and
  merges labels per byte.

Both the micro benchmark's ``check()`` phase and the real-system
workloads (consumers, followers, report readers) call
:func:`app_process` on data they receive.  See DESIGN.md (substitutions)
and EXPERIMENTS.md for how this calibration affects reported ratios.
"""

from __future__ import annotations

from itertools import chain, repeat

from repro.taint.policy import shadows_enabled
from repro.taint.values import TBytes, TInt, TStr, plain, union_labels


def app_process(value) -> object:
    """Checksum ``value``'s bytes, mode-aware (see module docstring)."""
    raw = plain(value)
    if isinstance(raw, str):
        raw = raw.encode("utf-8", "surrogatepass")
    if not isinstance(raw, (bytes, bytearray)):
        return 0
    if not shadows_enabled():
        acc = 0
        for b in raw:
            acc = (acc + b) & 0xFFFFF
        return acc
    labels = None
    if isinstance(value, TBytes):
        labels = value.labels
    elif isinstance(value, TStr):
        labels = value.labels
    if labels is None:
        # Taint-state specialization (cf. The Taint Rabbit): when the
        # value is untainted the "rewritten" loop dispatches to the
        # same plain-value loop the uninstrumented build runs, so the
        # per-byte label merge only costs where labels actually exist.
        acc = 0
        for b in raw:
            acc = (acc + b) & 0xFFFFF
        return TInt(acc)
    acc = 0
    taint = None
    last = None
    # zip pads with None past the labels' end (raw can be longer for
    # multi-byte TStr encodings) so every data byte still checksums.
    for b, label in zip(raw, chain(labels, repeat(None))):
        acc = (acc + b) & 0xFFFFF
        if label is not None and label is not last:
            last = label
            taint = union_labels(taint, label)
    return TInt(acc, taint)
