"""The simulator's transfer store: per-pair buckets that advance together.

Every transfer in flight lives in exactly one bucket — one per ordered
DC pair, plus one for intra-DC (LAN) traffic.  Transfers multiplexed on
a pair all move at the pair's allocated rate split *equally*, so a
bucket needs one per-transfer ``share``, not one rate per transfer:
progress is ``transferred = min(size, transferred + share·dt)``, the
next completion is ``min(size - transferred) / share``, and finished
transfers are those within :data:`FINISH_EPS` of their size.

A bucket picks its representation from its observed size:

* at or below :data:`SMALL_BUCKET` transfers it keeps plain per-object
  arithmetic — the transfer objects are authoritative, and the loops
  are inlined into :class:`VectorKernel`'s walks, because most pairs
  carry a handful of transfers and numpy's fixed per-call overhead
  would dominate them;
* above it the bucket holds numpy ``size`` / ``transferred`` arrays
  and advances as one vector, so a crowded pair costs a few numpy
  calls per event instead of a Python loop over its population.

Both representations evaluate the same per-element expressions in the
same order, so which one a bucket uses never changes a completion time
or a delivered megabit; ``tests/net/test_batch_parity.py`` pins the
outcomes of six weather scenarios to a committed golden file.

While a bucket is array-backed its transfer objects' ``rate_mbps`` /
``transferred_mbits`` fields go stale by design; eviction writes them
back, and the simulator calls :meth:`VectorKernel.sync_objects` before
handing transfers to observers (the bandwidth governor reads
per-transfer rates off
:meth:`~repro.net.simulator.NetworkSimulator.active_transfers`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.net.simulator import Transfer

__all__ = ["FINISH_EPS", "SMALL_BUCKET", "VectorKernel"]

#: Buckets at or below this many transfers stay on per-object
#: arithmetic — numpy array overhead only pays off beyond it.  Measured
#: break-even: one bucket's per-event work costs about 1 µs per
#: transfer per-object against a flat ~10 µs as arrays; perfbench's
#: batch-drain (buckets of 1–8) ran 7 % slower at a threshold of 2.
SMALL_BUCKET = 8

#: Remaining-payload slop below which a transfer counts as finished.
FINISH_EPS = 1e-6


class _Bucket:
    """One pair's (or the LAN's) transfers advancing at a shared rate.

    Invariant: ``size`` / ``transferred`` are arrays exactly when the
    population exceeds :data:`SMALL_BUCKET`; while they exist, the
    arrays — not the transfer objects — are authoritative for progress.

    ``fresh`` counts trailing members admitted since the last
    :meth:`set_share`.  A new transfer moves at rate 0 until the next
    reallocation assigns shares, so the catch-up progress inside that
    reallocation must not advance it — fresh members are excluded from
    progress, aggregate rate, and completion ETA until shares land.
    """

    __slots__ = ("transfers", "share", "fresh", "size", "transferred")

    def __init__(self) -> None:
        self.transfers: list["Transfer"] = []
        #: Per-transfer rate (every member moves at the same share).
        self.share = 0.0
        #: Trailing members not yet covered by ``share``.
        self.fresh = 0
        self.size = None
        self.transferred = None

    def add(self, transfer: "Transfer") -> None:
        """Admit one transfer (object state is current at this point)."""
        transfers = self.transfers
        transfers.append(transfer)
        self.fresh += 1
        if self.size is not None:
            self.size = np.append(self.size, transfer.size_mbits)
            self.transferred = np.append(
                self.transferred, transfer.transferred_mbits
            )
        elif len(transfers) > SMALL_BUCKET:
            self.size = np.array([t.size_mbits for t in transfers], dtype=float)
            self.transferred = np.array(
                [t.transferred_mbits for t in transfers], dtype=float
            )

    def remove(self, transfer: "Transfer") -> bool:
        """Evict one transfer, writing its progress back to the object.

        Returns whether ``transfer`` was a member.
        """
        transfers = self.transfers
        for index, candidate in enumerate(transfers):
            if candidate is transfer:
                break
        else:
            return False
        was_fresh = index >= len(transfers) - self.fresh
        del transfers[index]
        if was_fresh:
            self.fresh -= 1
        if self.size is None:
            return True
        transfer.transferred_mbits = float(self.transferred[index])
        if not was_fresh:
            transfer.rate_mbps = self.share
        self.size = np.delete(self.size, index)
        self.transferred = np.delete(self.transferred, index)
        if len(transfers) <= SMALL_BUCKET:
            # Back to per-object arithmetic: objects become authoritative.
            self.sync_objects()
            self.size = None
            self.transferred = None
        return True

    def set_share(self, share: float) -> None:
        """Install the per-transfer rate for the current allocation."""
        self.share = share
        self.fresh = 0
        if self.size is None:
            for transfer in self.transfers:
                transfer.rate_mbps = share

    def progress(self, dt: float) -> None:
        """Advance the rate-carrying members by ``dt`` (array-backed)."""
        done = self.transferred
        if self.fresh:
            limit = len(self.transfers) - self.fresh
            np.minimum(
                self.size[:limit],
                done[:limit] + self.share * dt,
                out=done[:limit],
            )
        else:
            np.minimum(self.size, done + self.share * dt, out=done)

    def rate_total(self) -> float:
        """Aggregate instantaneous rate of the bucket (Mbps)."""
        if self.size is None:
            return sum(t.rate_mbps for t in self.transfers)
        return self.share * (len(self.transfers) - self.fresh)

    def sync_objects(self) -> None:
        """Write array progress and rates back to the transfer objects."""
        if self.size is None:
            return
        limit = len(self.transfers) - self.fresh
        share = self.share
        for index, (transfer, done) in enumerate(
            zip(self.transfers, self.transferred.tolist())
        ):
            transfer.transferred_mbits = done
            if index < limit:
                transfer.rate_mbps = share


class VectorKernel:
    """Every in-flight transfer of one simulator, bucketed by pair.

    ``pairs`` maps each ordered ``(src, dst)`` pair with traffic to its
    bucket, in first-admission order (a pair's bucket is dropped when
    it empties); ``lan`` holds intra-DC transfers and is always walked
    last.
    """

    def __init__(self) -> None:
        self.pairs: dict[tuple[str, str], _Bucket] = {}
        self.lan = _Bucket()

    def _walk(self) -> list[_Bucket]:
        buckets = list(self.pairs.values())
        if self.lan.transfers:
            buckets.append(self.lan)
        return buckets

    def add(self, transfer: "Transfer") -> None:
        """Track a newly started transfer."""
        if transfer.src == transfer.dst:
            self.lan.add(transfer)
            return
        pair = (transfer.src, transfer.dst)
        bucket = self.pairs.get(pair)
        if bucket is None:
            bucket = self.pairs[pair] = _Bucket()
        bucket.add(transfer)

    def remove(self, transfer: "Transfer") -> None:
        """Stop tracking a finished or cancelled transfer (no-op when
        it is not tracked)."""
        if transfer.src == transfer.dst:
            self.lan.remove(transfer)
            return
        pair = (transfer.src, transfer.dst)
        bucket = self.pairs.get(pair)
        if bucket is not None and bucket.remove(transfer):
            if not bucket.transfers:
                del self.pairs[pair]

    def progress(self, dt: float) -> None:
        """Advance every rate-carrying transfer by ``dt`` seconds."""
        for bucket in self._walk():
            if bucket.size is None:
                for t in bucket.transfers:
                    t.transferred_mbits = min(
                        t.size_mbits, t.transferred_mbits + t.rate_mbps * dt
                    )
            else:
                bucket.progress(dt)

    def advance(self, dt: float) -> list["Transfer"]:
        """Progress every bucket by ``dt`` and collect the finishers.

        The completion event's hot path: a same-instant batch of
        finishing transfers is found in the visit that advanced it.
        ``dt <= 0`` skips the (no-op) progress but still collects — a
        transfer can finish exactly at an instant another event
        already progressed to.
        """
        out: list["Transfer"] = []
        for bucket in self._walk():
            transfers = bucket.transfers
            if bucket.size is None:
                for t in transfers:
                    if dt > 0:
                        t.transferred_mbits = min(
                            t.size_mbits, t.transferred_mbits + t.rate_mbps * dt
                        )
                    if t.size_mbits - t.transferred_mbits <= FINISH_EPS:
                        out.append(t)
                continue
            if dt > 0:
                bucket.progress(dt)
            remaining = bucket.size - bucket.transferred
            if remaining.min() <= FINISH_EPS:
                indices = (remaining <= FINISH_EPS).nonzero()[0]
                out.extend(transfers[i] for i in indices.tolist())
        return out

    def min_eta(self) -> float:
        """Seconds until the next completion across all buckets."""
        eta = float("inf")
        for bucket in self._walk():
            if bucket.size is None:
                for t in bucket.transfers:
                    rate = t.rate_mbps
                    if rate > 0:
                        eta = min(eta, (t.size_mbits - t.transferred_mbits) / rate)
                continue
            limit = len(bucket.transfers) - bucket.fresh
            if bucket.share > 0 and limit > 0:
                remaining = bucket.size - bucket.transferred
                if bucket.fresh:
                    remaining = remaining[:limit]
                eta = min(eta, float(remaining.min()) / bucket.share)
        return eta

    def sync_objects(self) -> None:
        """Flush array state back to the WAN transfer objects."""
        for bucket in self.pairs.values():
            bucket.sync_objects()
