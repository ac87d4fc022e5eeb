"""Representative-days family: a few real days stand for the whole horizon.

Each representative day is modeled hour by hour and its costs are weighted
by the number of days its cluster represents.  Both variants are the
``hour_chain`` of ``hm`` over the hours of the medoid days in calendar order.
In the plain variant every day is its own fresh chronology and is
storage-cyclic: the level at the end of the day must not fall below the
level the day started from, so no energy can be netted across days.  The
enhanced variant concatenates the days so commitments and levels carry over,
and ties that chain back to the real calendar with two devices derived from
the day sequence: commitments are linked across day-cluster transitions, and
storage is additionally tracked by checkpoint variables chained across the
real calendar through the day-to-representative hour map, with
end-of-horizon and box bounds applied at the checkpoints.

Constraint prefixes added here: ``cyc`` day cyclicity, ``ulink`` cross-day
commitment linking, ``cbal`` checkpoint level chaining, ``clo``/``chi``
checkpoint level box, ``cfin`` end-of-horizon checkpoint requirement.
"""

from __future__ import annotations

import numpy as np

from ..milp import GE, EQ
from ..system import PowerSystem
from ..timeseries import HOURS_PER_DAY, WEEK_HOURS, TimeHorizonData
from ..aggregation import (RepPeriodClustering, TransitionMatrices,
                           default_checkpoints)
from .common import (FormulationOutput, Row, periods, checkpoint_labels, tile_rows,
                     shifted, hour_chain, add_levels, add_final)


def build_rp(system: PowerSystem, data: TimeHorizonData,
             rp: RepPeriodClustering, invest: bool = False) -> FormulationOutput:
    per = periods("rp", data.horizon_hours, rp=rp)
    fo, _, col = hour_chain("rp", system, data, per, HOURS_PER_DAY, invest)
    last = per.pos[rp.medoid_days * HOURS_PER_DAY] + HOURS_PER_DAY - 1
    tile_rows(fo, [f"r{r}" for r in range(rp.num_rp)],
              [Row("cyc", s.id, [(col["w", s.id][last], 1.0)], GE, s.w0)
               for s in system.storage])
    return fo


def build_rp_tmci(system: PowerSystem, data: TimeHorizonData,
                  rp: RepPeriodClustering, matrices: TransitionMatrices,
                  window: int = WEEK_HOURS, theta: float = 1.0,
                  invest: bool = False) -> FormulationOutput:
    """Representative days enhanced with day-sequence chronology.

    ``window`` sets the checkpoint spacing in hours (a multiple of the day
    length).  ``theta`` is the day-transition count at which commitment
    linking kicks in; a value in (0, 1) is read as a fraction of all day
    transitions, and ``inf`` disables linking entirely.
    """
    if window % HOURS_PER_DAY != 0:
        raise ValueError(f"checkpoint window {window} must be a multiple of {HOURS_PER_DAY}")
    per = periods("rp_tmci", data.horizon_hours, rp=rp)
    fo, x, col = hour_chain("rp_tmci", system, data, per, len(per.labels), invest)

    # commitment continuity across observed day-cluster transitions
    nrpp = matrices.rp_transitions
    threshold = theta * float(nrpp.sum()) if 0 < theta < 1 else theta
    a, b = np.nonzero((nrpp >= threshold) & (nrpp > 0))
    first = per.pos[rp.medoid_days * HOURS_PER_DAY]
    tile_rows(fo, [f"r{i}_r{j}" for i, j in zip(a.tolist(), b.tolist())],
              [Row("ulink", g.id, [(col["u", g.id][first[a] + HOURS_PER_DAY - 1], 1.0),
                                   (col["u", g.id][first[b]], -1.0)], EQ)
               for g in system.thermal])

    # checkpoint storage levels chained across the real calendar: row i
    # gathers the real hours since checkpoint i - 1 (padded to the longest
    # window with -1, no entry) through their periods
    checkpoints = default_checkpoints(data.horizon_hours, window)
    marks = checkpoint_labels(checkpoints)
    starts = np.concatenate(([0], checkpoints[:-1]))
    hour = starts[:, None] + np.arange((checkpoints - starts).max())
    inside = hour < checkpoints[:, None]
    pos = np.where(inside, per.pos[np.minimum(hour, data.horizon_hours - 1)], -1)
    wchk = add_levels(fo, system, marks, x, "wchk", "clo", "chi")
    rows = []
    for j, s in enumerate(system.storage):
        flows = np.stack([np.where(inside, col[sym, s.id][pos], -1) for sym in ("b", "q", "sp")],
                         axis=2).reshape(len(marks), -1)
        inflow = np.where(inside, data.inflows[per.hours, j][pos], 0.0)
        w0 = np.where(starts == 0, s.w0, 0.0)[:, None]
        rows.append(Row("cbal", s.id, [
            (wchk["wchk", s.id], 1.0), (shifted(wchk["wchk", s.id], starts == 0), -1.0),
            (flows, np.tile([-s.efficiency, 1.0, 1.0], pos.shape[1])[None, :])],
            EQ, np.cumsum(np.hstack((w0, inflow)), axis=1)[:, -1]))   # summed in order
    tile_rows(fo, marks, rows)
    add_final(fo, system, "cfin", [wchk["wchk", s.id][-1] for s in system.storage])
    fo.meta.checkpoints = checkpoints.tolist()
    return fo
