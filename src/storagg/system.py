"""Power system description shared by every formulation.

Units follow one consistent unit system: powers in GW, energies in GWh, and
costs in k euro.  Thermal fuel consumption is linear in output with a fixed
hourly term while committed and a startup term, so the hourly fuel bill of a
unit is ``fuel_cost * (beta * u + gamma * y + alpha * q)``.
"""

from __future__ import annotations

import json
import re
import reprlib
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace

import numpy as np

SHORT_TERM = "short_term"
LONG_TERM = "long_term"

_ID_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")    # \Z: no trailing newline


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
    isf: np.ndarray | None = field(default=None, metadata={"json": "list[list[float]]"})

    @property
    def nonslack(self) -> list[str]:
        return [b for b in self.buses if b != self.slack_bus]


@dataclass(frozen=True)
class OperatingConfig:
    reserve_fraction: float = 0.0        # spinning reserve as share of hourly demand
    pns_penalty: float = 1000.0          # k euro per GWh of non-served power
    spill_penalty: float = 0.0           # k euro per GWh spilled from storage
    initial_commitment: dict[str, int] = field(default_factory=dict)  # unit -> 0/1 before hour 1


@dataclass(frozen=True)
class PowerSystem:
    network: Network = field(metadata={"other_keys": True})   # its keys sit at the top level
    thermal: list[ThermalUnit] = field(default_factory=list)
    storage: list[StorageUnit] = field(default_factory=list)
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


def validate_system(system: PowerSystem) -> list[str]:
    """Return a list of human-readable invariant violations (empty when valid)."""
    issues: list[str] = []
    net = system.network
    units = list(system.thermal) + list(system.storage)
    for what, ids in (("bus", net.buses), ("unit", [u.id for u in units]),
                      ("circuit", [c.id for c in net.circuits])):
        seen = set()
        for i in ids:
            if not _ID_RE.match(i):
                issues.append(f"{what} id {i!r} is not a valid identifier")
            if i in seen:
                issues.append(f"duplicate {what} id {i!r}")
            seen.add(i)
    seen_buses = set(net.buses)
    if net.slack_bus not in seen_buses:
        issues.append(f"slack bus {net.slack_bus!r} is not declared")
    for u in units:
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
    for c in net.circuits:
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
    return issues


# ---------------------------------------------------------------------------
# JSON files: every stage reads and writes them through this pair
# ---------------------------------------------------------------------------

def write_json(path, doc, compact: bool = False) -> None:
    """Write ``doc`` with sorted keys and a final newline, indented by two
    or, ``compact``, with no spaces."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=None if compact else 2,
                  separators=(",", ":") if compact else None)
        fh.write("\n")


def read_json(path, what: str, error: type[Exception]) -> dict:
    """The top-level object of a UTF-8 JSON file; raises ``error`` as
    ``<path>: not a <what>: <reason>`` if there is none."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        reason = "not found"
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        reason = f"not valid JSON ({exc})"
    else:
        if isinstance(doc, dict):
            return doc
        reason = f"the top level must be a JSON object, got {type(doc).__name__}"
    raise error(f"{path}: not a {what}: {reason}")


def to_json(value):
    """``value`` as the JSON ``from_json`` reads back: a record as its init fields."""
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value) if f.init}
    if isinstance(value, dict):
        return {key: to_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(item) for item in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def save_system(system: PowerSystem, path) -> None:
    doc = to_json(system)    # the network's keys at the top level, an unset isf left out
    doc.update((key, value) for key, value in doc.pop("network").items() if value is not None)
    write_json(path, doc)


def _number(value) -> bool:
    """An int or float, not a bool and not NaN (JSON files may spell ``NaN``,
    and every comparison with it is false, so no range check would catch it)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value == value


def _rows(low: float):
    """The test of a list of equal-length rows of finite numbers >= ``low``."""
    return lambda v: isinstance(v, list) and all(
        isinstance(row, list) and len(row) == len(v[0])
        and all(_number(x) and low <= x and abs(x) < np.inf for x in row) for row in v)


# the JSON value each field type takes, ``T | None`` also null: type -> (test,
# what it asks for).  ``type(v) is int``: true is no integer
_FIELD_TESTS = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "list[str]": (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
                  "a list of strings"),
    "int": (lambda v: type(v) is int, "an integer"),
    "list[int]": (lambda v: isinstance(v, list) and all(type(x) is int for x in v),
                  "a list of integers"),
    "float": (_number, "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
    "dict[str, int]": (lambda v: isinstance(v, dict) and all(type(x) is int for x in v.values()),
                       "an object of integers"),
    "dict[str, float]": (lambda v: isinstance(v, dict) and all(map(_number, v.values())),
                         "an object of numbers"),
    "list[list[float]]": (_rows(-np.inf), "a list of equal-length rows of finite numbers"),
    "list[list[float]] >= 0": (_rows(0), "a list of equal-length rows of finite numbers >= 0"),
}


def _json_type(cls, f):
    """Field ``f`` of ``cls``: the JSON type it is read as (an ``np.ndarray``
    names it in its metadata, ``{"json": <type>}``), whether it takes null,
    and ``(shape, record)`` for a record of its module, ``list[…]`` or ``dict[str, …]``."""
    kind = f.metadata.get("json", f.type.removesuffix(" | None"))
    shape, _, name = kind.removesuffix("]").rpartition("[")
    record = vars(sys.modules[cls.__module__]).get(name.removeprefix("str, "))
    is_record = is_dataclass(record) and shape in ("", "list", "dict")
    return kind, f.type.endswith(" | None"), (shape, record) if is_record else None


def _check_types(cls, values: dict, where: str, error: type[Exception]) -> None:
    """Raise ``error`` as ``<where>: <field> must be <what>, got <value>`` for
    a value in ``values`` of the wrong JSON type for the field of ``cls`` it
    fills (a record's is an object) or outside the range the field names in
    its metadata, ``{"range": (test, what type and range)}``.  A field type
    with no test is a TypeError."""
    for f in fields(cls):
        kind, optional, record = _json_type(cls, f)
        test, what = _FIELD_TESTS.get((record[0] or "dict") if record else kind, (None, None))
        if test is None:
            raise TypeError(f"{cls.__name__}.{f.name}: no JSON test for {kind!r}")
        value = values.get(f.name)
        if f.name not in values or optional and value is None:
            continue
        in_range, what = f.metadata.get("range", (None, what))
        if not test(value) or in_range and not in_range(value):
            raise error(f"{where}: {f.name} must be {what}{' or null' * optional}, "
                        f"got {reprlib.repr(value)}")


def from_json(cls, doc, where: str, error: type[Exception]):
    """The dataclass ``cls`` filled from the JSON value ``doc``, the one way
    from a file to a record.  Raises ``error`` as ``<where>: <reason>``: ``must
    be an object, got <value>``, ``missing key '<key>'``, ``unknown key
    '<key>'``, a wrong type or a value outside its field's range
    (``_check_types``, before the constructor sees it) or a refusal of
    ``__post_init__``.  A field marked ``other_keys`` takes the keys no other
    field names.  Records within are filled here too, as ``<where>:
    <field>`` or, in a list or object, ``<where>: <record> <key>``."""
    if not isinstance(doc, dict):
        raise error(f"{where}: must be an object, got {reprlib.repr(doc)}")
    init = {f.name: f for f in fields(cls) if f.init}
    rest = next((name for name, f in init.items() if f.metadata.get("other_keys")), None)
    if rest:
        named = {key: value for key, value in doc.items() if key in init and key != rest}
        doc = {**named, rest: {key: value for key, value in doc.items() if key not in named}}
    missing = [name for name, f in init.items()
               if name not in doc and f.default is MISSING and f.default_factory is MISSING]
    for what, keys in (("missing", missing), ("unknown", sorted(doc.keys() - init.keys()))):
        if keys:
            raise error(f"{where}: {what} key {keys[0]!r}")
    _check_types(cls, doc, where, error)
    values = {name: _filled(cls, init[name], value, where, error) for name, value in doc.items()}
    try:
        return cls(**values)
    except (ValueError, error) as exc:      # a rule of the record's __post_init__
        raise error(f"{where}: {exc}") from None


def _filled(cls, f, value, where: str, error: type[Exception]):
    """Field ``f`` of ``cls`` made from its checked JSON ``value``."""
    kind, _, record = _json_type(cls, f)
    if value is None or not (record or "json" in f.metadata):
        return value
    if "json" in f.metadata:
        return np.array(value, dtype=int if kind == "list[int]" else float)
    shape, record = record
    if not shape:
        return from_json(record, value, f"{where}: {f.name}", error)
    label = re.sub(r"(?<!^)(?=[A-Z])", " ", record.__name__).lower()   # ThermalUnit: thermal unit
    items = value.items() if shape == "dict" else (
        (item.get("id", i) if isinstance(item, dict) else i, item) for i, item in enumerate(value))
    made = [(key, from_json(record, x, f"{where}: {label} {key!r}", error)) for key, x in items]
    return dict(made) if shape == "dict" else [x for _, x in made]


def load_system(path) -> PowerSystem:
    system = from_json(PowerSystem, read_json(path, "system file", SystemFormatError),
                       str(path), SystemFormatError)
    network = system.network
    if network.circuits and network.isf is None and all(
            c.reactance is not None for c in network.circuits):
        try:
            isf = compute_isf_from_reactances(network)
        except SystemFormatError as exc:
            raise SystemFormatError(f"{path}: {exc}") from None
        system = replace(system, network=replace(network, isf=isf))
    issues = validate_system(system)
    if issues:
        raise SystemFormatError(f"{path}: " + "; ".join(issues))
    return system
