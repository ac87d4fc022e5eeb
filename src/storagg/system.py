"""Power system description shared by every formulation.

Units follow one consistent unit system: powers in GW, energies in GWh, and
costs in k euro.  Thermal fuel consumption is linear in output with a fixed
hourly term while committed and a startup term, so the hourly fuel bill of a
unit is ``fuel_cost * (beta * u + gamma * y + alpha * q)``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

SHORT_TERM = "short_term"
LONG_TERM = "long_term"

_ID_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


class SystemFormatError(ValueError):
    """The system file or objects violate the documented schema."""


@dataclass(frozen=True)
class ThermalUnit:
    """A dispatchable unit with commitment, startup and reserve capability."""

    id: str
    bus: str
    fuel_cost: float      # k euro/MJ
    alpha: float          # MJ per GWh produced
    beta: float           # MJ per hour while committed
    gamma: float          # MJ per startup
    om_cost: float        # k euro/GWh variable O&M
    q_max: float          # GW
    q_min: float          # GW
    ramp_10min: float     # GW available within 10 min for spinning reserve
    technology: str = "thermal"

    @property
    def marginal_cost(self) -> float:
        """k euro per GWh of output (fuel plus variable O&M)."""
        return self.fuel_cost * self.alpha + self.om_cost

    @property
    def commitment_cost(self) -> float:
        """k euro per committed hour."""
        return self.fuel_cost * self.beta

    @property
    def startup_cost(self) -> float:
        """k euro per startup."""
        return self.fuel_cost * self.gamma


@dataclass(frozen=True)
class StorageUnit:
    """An energy storage unit; ``kind`` separates intra-day from seasonal use."""

    id: str
    bus: str
    kind: str             # SHORT_TERM or LONG_TERM
    w0: float             # GWh stored before the first hour
    w_min: float          # GWh
    w_max: float          # GWh
    w_fin: float          # GWh required at the end of the horizon
    efficiency: float     # charging efficiency, 0 < eta <= 1
    q_max: float          # GW discharge capacity (existing)
    b_max: float          # GW charge capacity (existing)
    investable: bool = False
    inv_cost: float = 0.0  # k euro per GW of new power capacity
    epr_max: float = 0.0   # h of energy per GW of new capacity (upper)
    epr_min: float = 0.0   # h of energy per GW of new capacity (lower)
    technology: str = "storage"


@dataclass(frozen=True)
class Circuit:
    id: str
    from_bus: str
    to_bus: str
    capacity: float            # GW, symmetric flow limit
    reactance: float | None = None  # p.u., used to derive shift factors


@dataclass(frozen=True)
class Network:
    """Buses plus circuits; ``isf`` holds injection shift factors.

    ``isf`` has one row per circuit and one column per non-slack bus (bus
    order with the slack removed).  Entry (c, n) is the MW flowing on circuit
    c, oriented from_bus -> to_bus, per MW injected at bus n and withdrawn at
    the slack bus.
    """

    buses: list[str]
    slack_bus: str
    circuits: list[Circuit] = field(default_factory=list)
    isf: np.ndarray | None = None

    @property
    def nonslack(self) -> list[str]:
        return [b for b in self.buses if b != self.slack_bus]


@dataclass(frozen=True)
class OperatingConfig:
    reserve_fraction: float = 0.0        # spinning reserve as share of hourly demand
    pns_penalty: float = 1000.0          # k euro per GWh of non-served power
    spill_penalty: float = 0.0           # k euro per GWh spilled from storage
    initial_commitment: dict = field(default_factory=dict)  # unit id -> 0/1 before hour 1


@dataclass(frozen=True)
class PowerSystem:
    thermal: list[ThermalUnit]
    storage: list[StorageUnit]
    network: Network
    config: OperatingConfig = field(default_factory=OperatingConfig)

    @property
    def nodes(self) -> list[str]:
        return list(self.network.buses)

    @property
    def storage_ids(self) -> list[str]:
        return [s.id for s in self.storage]

    @property
    def short_term_storage(self) -> list[StorageUnit]:
        return [s for s in self.storage if s.kind == SHORT_TERM]

    @property
    def long_term_storage(self) -> list[StorageUnit]:
        return [s for s in self.storage if s.kind == LONG_TERM]

    def initial_commitment(self, unit_id: str) -> int:
        return int(self.config.initial_commitment.get(unit_id, 0))


def compute_isf_from_reactances(network: Network) -> np.ndarray:
    """Derive injection shift factors from circuit reactances.

    Builds the reduced nodal susceptance matrix (slack bus removed) and
    solves for the sensitivity of each circuit flow to a unit injection at
    each non-slack bus.  Raises SystemFormatError when a reactance is missing
    or the network is electrically disconnected (singular reduced matrix).
    """
    buses = network.buses
    if network.slack_bus not in buses:
        raise SystemFormatError(f"slack bus {network.slack_bus!r} is not a declared bus")
    nonslack = network.nonslack
    col = {b: j for j, b in enumerate(nonslack)}
    n_c, n_b = len(network.circuits), len(nonslack)
    if n_c == 0:
        return np.zeros((0, n_b))
    incidence = np.zeros((n_c, n_b))
    b_series = np.zeros(n_c)
    for i, c in enumerate(network.circuits):
        if c.reactance is None or c.reactance <= 0:
            raise SystemFormatError(f"circuit {c.id!r} needs a positive reactance")
        for bus, sign in ((c.from_bus, 1.0), (c.to_bus, -1.0)):
            if bus not in buses:
                raise SystemFormatError(f"circuit {c.id!r} references unknown bus {bus!r}")
            if bus in col:
                incidence[i, col[bus]] = sign
        b_series[i] = 1.0 / c.reactance
    b_reduced = incidence.T @ (b_series[:, None] * incidence)
    try:
        theta_sens = np.linalg.solve(b_reduced, np.eye(n_b))
    except np.linalg.LinAlgError:
        raise SystemFormatError("network is disconnected: reduced susceptance matrix is singular") from None
    return (b_series[:, None] * incidence) @ theta_sens


def validate_system(system: PowerSystem, data=None) -> list[str]:
    """Return a list of human-readable invariant violations (empty when valid)."""
    issues: list[str] = []
    net = system.network
    seen_buses = set()
    for b in net.buses:
        if not _ID_RE.match(b):
            issues.append(f"bus id {b!r} is not a valid identifier")
        if b in seen_buses:
            issues.append(f"duplicate bus id {b!r}")
        seen_buses.add(b)
    if net.slack_bus not in seen_buses:
        issues.append(f"slack bus {net.slack_bus!r} is not declared")
    seen_units: set[str] = set()
    for u in list(system.thermal) + list(system.storage):
        if not _ID_RE.match(u.id):
            issues.append(f"unit id {u.id!r} is not a valid identifier")
        if u.id in seen_units:
            issues.append(f"duplicate unit id {u.id!r}")
        seen_units.add(u.id)
        if u.bus not in seen_buses:
            issues.append(f"unit {u.id!r} sits on unknown bus {u.bus!r}")
    for t in system.thermal:
        if t.q_min < 0 or t.q_max < t.q_min:
            issues.append(f"thermal {t.id!r}: need 0 <= q_min <= q_max")
        if min(t.fuel_cost, t.alpha, t.beta, t.gamma, t.om_cost, t.ramp_10min) < 0:
            issues.append(f"thermal {t.id!r}: cost and reserve figures must be non-negative")
    for s in system.storage:
        if s.kind not in (SHORT_TERM, LONG_TERM):
            issues.append(f"storage {s.id!r}: kind must be {SHORT_TERM!r} or {LONG_TERM!r}")
        if not (0 < s.efficiency <= 1):
            issues.append(f"storage {s.id!r}: efficiency must lie in (0, 1]")
        if not (s.w_min <= s.w0 <= s.w_max):
            issues.append(f"storage {s.id!r}: need w_min <= w0 <= w_max")
        if not (s.w_min <= s.w_fin <= s.w_max):
            issues.append(f"storage {s.id!r}: need w_min <= w_fin <= w_max")
        if s.q_max < 0 or s.b_max < 0:
            issues.append(f"storage {s.id!r}: capacities must be non-negative")
        if s.epr_min > s.epr_max:
            issues.append(f"storage {s.id!r}: need epr_min <= epr_max")
        if s.investable and s.inv_cost < 0:
            issues.append(f"storage {s.id!r}: investment cost must be non-negative")
    seen_circuits = set()
    for c in net.circuits:
        if c.id in seen_circuits:
            issues.append(f"duplicate circuit id {c.id!r}")
        seen_circuits.add(c.id)
        for b in (c.from_bus, c.to_bus):
            if b not in seen_buses:
                issues.append(f"circuit {c.id!r} references unknown bus {b!r}")
        if c.from_bus == c.to_bus:
            issues.append(f"circuit {c.id!r} connects a bus to itself")
        if c.capacity < 0:
            issues.append(f"circuit {c.id!r}: capacity must be non-negative")
    if net.circuits:
        if net.isf is None:
            issues.append("network has circuits but no shift factors; "
                          "provide them or derive them from reactances")
        elif net.isf.shape != (len(net.circuits), len(net.buses) - 1):
            issues.append(f"shift factor matrix has shape {net.isf.shape}, "
                          f"expected ({len(net.circuits)}, {len(net.buses) - 1})")
    cfg = system.config
    if not (0 <= cfg.reserve_fraction < 1):
        issues.append("reserve fraction must lie in [0, 1)")
    if cfg.pns_penalty < 0 or cfg.spill_penalty < 0:
        issues.append("penalty prices must be non-negative")
    for uid, val in cfg.initial_commitment.items():
        if uid not in {t.id for t in system.thermal}:
            issues.append(f"initial commitment names unknown thermal unit {uid!r}")
        if val not in (0, 1):
            issues.append(f"initial commitment for {uid!r} must be 0 or 1")
    if data is not None:
        if list(data.nodes) != list(net.buses):
            issues.append(f"series columns {data.nodes} do not match buses {net.buses}")
        if list(data.storage_ids) != [s.id for s in system.storage]:
            issues.append(f"inflow columns {data.storage_ids} do not match storage units "
                          f"{[s.id for s in system.storage]}")
    return issues


# ---------------------------------------------------------------------------
# JSON system file
# ---------------------------------------------------------------------------

def save_system(system: PowerSystem, path) -> None:
    doc = {
        "buses": system.network.buses,
        "slack_bus": system.network.slack_bus,
        "circuits": [asdict(c) for c in system.network.circuits],
        "thermal": [asdict(t) for t in system.thermal],
        "storage": [asdict(s) for s in system.storage],
        "config": asdict(system.config),
    }
    if system.network.isf is not None:
        doc["isf"] = [[float(v) for v in row] for row in system.network.isf]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _number(value) -> bool:
    """An int or float, not a bool and not NaN (JSON files may spell ``NaN``,
    and every comparison with it is false, so no range check would catch it)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value == value


# the JSON value each annotated field type takes: type -> (test, what it asks for)
_FIELD_TESTS = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "list[str]": (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
                  "a list of strings"),
    "float": (_number, "a number"),
    "float | None": (lambda v: v is None or _number(v), "a number or null"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
}


def _check_types(obj, where: str) -> None:
    """Raise SystemFormatError for a field of ``obj`` whose JSON value has
    the wrong type, before any check compares or multiplies it."""
    for f in fields(obj):
        test, what = _FIELD_TESTS.get(f.type, (None, None))
        value = getattr(obj, f.name)
        if test is not None and not test(value):
            raise SystemFormatError(f"{where}: {f.name} must be {what}, got {value!r}")


def load_system(path) -> PowerSystem:
    path = Path(path)
    if not path.exists():
        raise SystemFormatError(f"{path}: file not found")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SystemFormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise SystemFormatError(f"{path}: the top level must be a JSON object, "
                                f"got {type(doc).__name__}")
    for key in ("circuits", "thermal", "storage"):
        if not isinstance(doc.get(key, []), list):
            raise SystemFormatError(f"{path}: {key} must be a list")
    isf = doc.get("isf")
    if isf is not None:
        try:
            isf = np.array(isf, dtype=float)
        except (TypeError, ValueError):
            raise SystemFormatError(f"{path}: isf must be a list of equal-length "
                                    "rows of numbers") from None
    try:
        network = Network(
            buses=doc["buses"],
            slack_bus=doc["slack_bus"],
            circuits=[Circuit(**c) for c in doc.get("circuits", [])],
            isf=isf,
        )
        system = PowerSystem(
            thermal=[ThermalUnit(**t) for t in doc.get("thermal", [])],
            storage=[StorageUnit(**s) for s in doc.get("storage", [])],
            network=network,
            config=OperatingConfig(**doc.get("config", {})),
        )
    except (KeyError, TypeError) as exc:
        raise SystemFormatError(f"{path}: malformed system file ({exc})") from None
    _check_types(network, f"{path}: network")
    for label, units in (("circuit", network.circuits), ("thermal unit", system.thermal),
                         ("storage unit", system.storage)):
        for unit in units:
            _check_types(unit, f"{path}: {label} {unit.id!r}")
    _check_types(system.config, f"{path}: config")
    if network.circuits and network.isf is None:
        has_x = all(c.reactance is not None for c in network.circuits)
        if has_x:
            system = PowerSystem(
                thermal=system.thermal, storage=system.storage,
                network=Network(buses=network.buses, slack_bus=network.slack_bus,
                                circuits=network.circuits,
                                isf=compute_isf_from_reactances(network)),
                config=system.config)
    issues = validate_system(system)
    if issues:
        raise SystemFormatError(f"{path}: " + "; ".join(issues))
    return system
