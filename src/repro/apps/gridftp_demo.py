"""The GridFTP data-transfer demonstrator (§4.7, §6.3).

"A data transfer study was performed to evaluate whether we could
perform large-scale reliable data transfers between Grid3 sites.  A
Java-based plug-in environment (Entrada) was used to generate simulated
traffic between a matrix of sites in a periodic fashion."

§6.3: "We met our goal of transferring 2 TB across Grid3 per day, and
long-running data transfers ran reliably."  Fig. 5: "The GridFTP
demonstrator accounted for most data transferred on Grid3" (~100 TB in
the 30-day window around SC2003).

The demonstrator cycles through the site matrix, moving a configurable
daily volume; completed transfers are logged to the ledger under the
iVDGL VO (the CS demonstrators' VO) with kind "demo".
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import GridError
from ..middleware import gridftp
from ..sim.units import DAY, GB, HOUR, TB
from .base import ApplicationDemonstrator, AppContext

#: §6.3 target, exceeded in practice: most of Fig. 5's ~100 TB/30 d.
DEFAULT_DAILY_VOLUME = 2.5 * TB


class GridFTPDemoApplication(ApplicationDemonstrator):
    """Entrada-style periodic site-matrix transfer traffic."""

    name = "gridftp-demo"
    vo = "ivdgl"
    users = ("entrada",)
    total_units = 0  # interval-driven

    def __init__(
        self,
        ctx: AppContext,
        daily_volume: float = DEFAULT_DAILY_VOLUME,
        cycle_interval: float = 1 * HOUR,
        transfer_size: float = 13 * GB,
    ) -> None:
        super().__init__(ctx)
        self.daily_volume = daily_volume
        self.cycle_interval = cycle_interval
        self.transfer_size = transfer_size
        self.bytes_attempted = 0.0
        self.bytes_delivered = 0.0
        self.transfers_ok = 0
        self.transfers_failed = 0
        self._matrix_cursor = 0

    def _site_pairs(self, count: int) -> List[tuple]:
        """The next ``count`` (src, dst) pairs of the site matrix."""
        names = sorted(self.ctx.sites)
        if len(names) < 2:
            return []
        pairs = []
        for _ in range(count):
            i = self._matrix_cursor % len(names)
            j = (self._matrix_cursor + 1 + (self._matrix_cursor // len(names))) % len(names)
            if i == j:
                j = (j + 1) % len(names)
            pairs.append((names[i], names[j]))
            self._matrix_cursor += 1
        return pairs

    def _one_transfer(self, src_name: str, dst_name: str, size: float, tag: int):
        src = self.ctx.sites[src_name]
        dst = self.ctx.sites[dst_name]
        self.bytes_attempted += size
        lfn = f"/entrada/{tag:08d}"
        try:
            yield from gridftp.transfer(
                self.ctx.engine, src, dst, lfn, size,
                # Demo traffic streams through; it does not occupy SEs.
                write_to_storage=False,
            )
        except GridError:
            self.transfers_failed += 1
            return
        self.transfers_ok += 1
        self.bytes_delivered += size
        if self.ctx.ledger is not None:
            self.ctx.ledger.record(
                self.ctx.engine.now, self.vo, size, src_name, dst_name,
                kind="demo",
            )

    def _campaign(self):
        engine = self.ctx.engine
        # Volume per cycle, scaled like everything else.
        per_cycle = self.daily_volume * (self.cycle_interval / DAY) / self.ctx.scale
        tag = 0
        while engine.now < self.ctx.duration:
            n_transfers = max(1, int(round(per_cycle / self.transfer_size)))
            size = per_cycle / n_transfers
            for src_name, dst_name in self._site_pairs(n_transfers):
                tag += 1
                self.stats.units_submitted += 1
                engine.process(
                    self._one_transfer(src_name, dst_name, size, tag),
                    name=f"entrada-{tag}",
                )
            yield engine.timeout(self.cycle_interval)

    def run_unit(self, index: int):  # pragma: no cover - interval-driven
        raise NotImplementedError("the demo overrides _campaign")

    @property
    def reliability(self) -> float:
        """Fraction of attempted transfers that completed (§6.3:
        'long-running data transfers ran reliably')."""
        total = self.transfers_ok + self.transfers_failed
        return self.transfers_ok / total if total else 0.0
