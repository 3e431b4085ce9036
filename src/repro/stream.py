"""``repro.stream`` — bounded-memory incremental parsing.

The paper's generated libraries expose *record-at-a-time* entry points
precisely so that multi-gigabyte feeds (the 2.2 GB Sirius stream, web
logs) never have to fit in memory.  This module is that regime's front
door: it parses from **pipes, sockets and growing files** through a
sliding window (:class:`repro.core.io.StreamSource`), keeping O(window)
bytes resident regardless of input size, and — for chunkable record
disciplines — can pipeline a live stream into the parallel driver
without waiting for EOF (:func:`repro.parallel.drive` with
``stream=True``, the ``parallel-stream`` mode of
:func:`repro.execute.run`).

Entry points (``records_stream`` is also a method of
:class:`~repro.core.api.CompiledDescription`; :func:`repro.execute.run`
reads stdin and ``follow`` tails through :func:`open_stream`)::

    import sys
    from repro import compile_description
    from repro.stream import records_stream

    clf = compile_description(CLF)
    for rep, pd in records_stream(clf, sys.stdin.buffer, "entry_t"):
        ...                       # one record resident at a time

    # tail -f a growing log, giving up after 5 idle seconds
    for rep, pd in clf.records_stream("/var/log/access.log", "entry_t",
                                      follow=True, idle_timeout=5.0):
        ...

Memory model, window sizing and the follow discipline are documented in
``docs/STREAMING.md``; the ``stream.*`` observability counters in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import os
from typing import BinaryIO, Iterator, Optional, Tuple

from .core.errors import PadsError, Pd
from .core.io import DEFAULT_STREAM_WINDOW, RecordDiscipline, StreamSource
from .core.limits import ParseLimits

__all__ = [
    "DEFAULT_STREAM_WINDOW", "StreamSource", "binary_stream", "open_stream",
    "records_stream", "count_records_stream",
]


def binary_stream(data) -> Tuple[BinaryIO, bool]:
    """``data`` as a readable binary object: a path (opened), an integer
    file descriptor, a socket (read through ``makefile("rb")``) or any
    object with a ``read`` method.  Returns ``(stream, owns)``; ``owns``
    means the caller closes it."""
    if isinstance(data, (str, os.PathLike)):
        return open(os.fspath(data), "rb"), True
    if isinstance(data, int) and not isinstance(data, bool):
        return os.fdopen(data, "rb"), True
    if hasattr(data, "makefile"):  # socket.socket
        return data.makefile("rb"), True
    if hasattr(data, "read"):
        return data, False
    raise PadsError(f"cannot stream from {type(data).__name__!r}: need a "
                    "path, fd, socket, or a readable binary object")


def open_stream(data, discipline: Optional[RecordDiscipline] = None, *,
                window: Optional[int] = None,
                follow: bool = False,
                poll_interval: float = 0.05,
                idle_timeout: Optional[float] = None,
                limits: Optional[ParseLimits] = None) -> StreamSource:
    """Build a :class:`StreamSource` from whatever the caller has:
    anything :func:`binary_stream` reads, or an already-open
    :class:`StreamSource` (passed through unchanged — the per-call
    options are ignored in that case)."""
    if isinstance(data, StreamSource):
        return data
    stream, owns = binary_stream(data)
    return StreamSource(stream, discipline, owns_stream=owns,
                        window=window if window is not None
                        else DEFAULT_STREAM_WINDOW,
                        follow=follow, poll_interval=poll_interval,
                        idle_timeout=idle_timeout, limits=limits)


def _index_sink_for(data, follow: bool, index):
    """The ``(IndexBuilder, path)`` a streaming pass should feed as a
    side effect, or ``(None, None)``.

    Only real, seekable files get an index (pipes/sockets/fds have no
    stable offsets to bind to) and only complete passes (``follow``
    tails never see EOF, so they could never seal a footer).  ``index``
    is False, True (default sampling interval) or an int interval.
    """
    if not index or follow:
        return None, None
    if not isinstance(data, (str, os.PathLike)) \
            or not os.path.isfile(os.fspath(data)):
        return None, None
    from .durable import DEFAULT_INDEX_INTERVAL, IndexBuilder
    interval = index if isinstance(index, int) and not isinstance(index, bool) \
        else DEFAULT_INDEX_INTERVAL
    return IndexBuilder(interval), os.fspath(data)


def _publish_index(builder, path: str, discipline) -> None:
    from .durable import write_index
    write_index(path, builder, discipline)


def records_stream(description, data, type_name: str, mask=None, *,
                   window: Optional[int] = None,
                   follow: bool = False,
                   poll_interval: float = 0.05,
                   idle_timeout: Optional[float] = None,
                   index=False,
                   ) -> Iterator[Tuple[object, Pd]]:
    """Bounded-memory twin of ``description.records``.

    Yields ``(rep, pd)`` pairs exactly as the slurped path would (the
    differential oracle, ``tests/test_oracle.py``, pins them
    byte-identical), but reads through a sliding window, so a feed of
    any size — or an endless one under ``follow=True`` — parses in
    O(window) memory.  The source is closed when the iterator is
    exhausted or dropped.

    Records with a batch kernel take the record loop's grid block step
    over each refill, as every other pass does.
    """
    builder, index_path = _index_sink_for(data, follow, index)
    src = open_stream(data, description.discipline, window=window,
                      follow=follow, poll_interval=poll_interval,
                      idle_timeout=idle_timeout,
                      limits=getattr(description, "limits", None))
    if builder is not None:
        src.index_sink = builder
    try:
        yield from description.records(src, type_name, mask)
        # Reaching here means a clean EOF: every boundary was seen, so
        # the index can be sealed.  An abandoned iterator publishes
        # nothing (a partial footer would under-report the file).
        if builder is not None:
            _publish_index(builder, index_path, description.discipline)
    finally:
        src.close()


def count_records_stream(description, data, *,
                         window: Optional[int] = None,
                         follow: bool = False,
                         poll_interval: float = 0.05,
                         idle_timeout: Optional[float] = None,
                         index=False) -> int:
    """Bounded-memory record count (record discipline only, no field
    parsing) — the paper's record-counting floor over a live stream.
    Constant-pitch disciplines count by arithmetic over each refill
    (``Source.count_rest``) unless an index is being built."""
    builder, index_path = _index_sink_for(data, follow, index)
    src = open_stream(data, description.discipline, window=window,
                      follow=follow, poll_interval=poll_interval,
                      idle_timeout=idle_timeout,
                      limits=getattr(description, "limits", None))
    if builder is not None:
        src.index_sink = builder
    with src:
        count = src.count_rest()
    if builder is not None:
        _publish_index(builder, index_path, description.discipline)
    return count
