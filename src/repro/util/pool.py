"""Process-pool fan-out primitives shared by the experiment drivers.

Historically this lived in :mod:`repro.experiment.parallel`, but that
module imports the study runner (it projects live results into picklable
samples), so anything the runner itself wants to fan out — the two-stage
classify pipeline — would create an import cycle.  The pool machinery is
runner-agnostic, so it lives here; ``experiment.parallel`` re-exports it
under the old names.

The key behaviours, unchanged from their previous home:

* serial when ``jobs`` is ``None``/``<=1`` (or there is nothing to fan
  out), with outputs identical to the pooled path;
* *loud* degradation when the pool itself is unusable (unpicklable work,
  sandboxed interpreter without worker processes): a RuntimeWarning, a
  bump of the process-wide :func:`pool_fallback_count`, and — when a
  perf registry is passed — the ``parallel.pool_fallback`` counter;
* exceptions raised by the mapped function propagate unchanged in both
  modes.
"""

from __future__ import annotations

import pickle
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Iterator, List, Optional, TypeVar, Union

from repro.util.perf import PerfRegistry

__all__ = ["parallel_imap", "parallel_map", "pool_fallback_count"]

T = TypeVar("T")
R = TypeVar("R")

#: process-wide count of pool-to-serial fallbacks (see parallel_map);
#: read through :func:`pool_fallback_count`
_pool_fallbacks = 0


def pool_fallback_count() -> int:
    """How many times parallel_map has degraded to serial this process."""
    return _pool_fallbacks


def _note_pool_fallback(error: BaseException,
                        perf: Optional[PerfRegistry]) -> None:
    """Make a pool-to-serial degradation visible instead of silent."""
    global _pool_fallbacks
    _pool_fallbacks += 1
    if perf is not None:
        perf.count("parallel.pool_fallback")
    warnings.warn(
        f"process pool unavailable ({type(error).__name__}: {error}); "
        "falling back to serial execution",
        RuntimeWarning, stacklevel=3)


def parallel_map(fn: Callable[[T], R], items: Iterable[T],
                 jobs: Optional[int] = None,
                 perf: Optional[PerfRegistry] = None) -> List[R]:
    """Order-preserving map over worker processes, serial when ``jobs<=1``.

    Falls back to the serial path when the pool cannot be used at all
    (unpicklable work or a sandbox without worker processes); exceptions
    raised by ``fn`` itself propagate unchanged in both modes.  The
    fallback is *loud*: it emits a :class:`RuntimeWarning`, bumps the
    process-wide :func:`pool_fallback_count`, and — when a ``perf``
    registry is passed — the ``parallel.pool_fallback`` counter, so pool
    breakage shows up in perf snapshots rather than masquerading as a
    slow parallel run.
    """
    return list(parallel_imap(fn, items, jobs=jobs, perf=perf))


def parallel_imap(fn: Callable[[T], R], items: Iterable[T],
                  jobs: Optional[int] = None,
                  perf: Optional[PerfRegistry] = None,
                  timeout: Optional[float] = None
                  ) -> Iterator[Union[R, str]]:
    """:func:`parallel_map`, yielding each result as soon as it is in order.

    A caller can act on (and durably record) each result while later
    items still run.  With a ``timeout``, an item whose pooled result
    takes longer to arrive is cancelled and yields the message
    ``"timed out after <timeout>s"`` instead.  After a pool fallback only
    the items not yet yielded run serially.
    """
    work = list(items)
    done = 0
    if jobs is not None and jobs > 1 and len(work) > 1:
        try:
            with ProcessPoolExecutor(
                    max_workers=min(jobs, len(work))) as pool:
                futures = [pool.submit(fn, item) for item in work]
                for future in futures:
                    result = _result(future, timeout)
                    done += 1
                    yield result
            return
        except (pickle.PicklingError, AttributeError, BrokenProcessPool,
                OSError) as error:
            # AttributeError is how lambdas/closures fail to pickle; a
            # real AttributeError from ``fn`` re-raises identically on
            # the serial retry, so nothing is masked.
            _note_pool_fallback(error, perf)
    for item in work[done:]:
        yield fn(item)


def _result(future: Future, timeout: Optional[float]):
    try:
        return future.result(timeout=timeout)
    except FutureTimeoutError:
        future.cancel()
        return f"timed out after {timeout}s"
