"""Model builders for every supported time representation.

The package itself holds ``BUILDER_KINDS`` only, which scenario checks and
the command line read without building anything.  The builders are looked up
on first access (PEP 562), and with them ``milp`` and ``aggregation`` load.
"""

from importlib import import_module

BUILDER_KINDS = ("hm", "ss", "rp", "ss_rfm", "rp_tmci")

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("FormulationOutput", "Periods", "periods"), "common"),
    "build_hm": "hourly",
    **dict.fromkeys(("build_ss", "build_ss_rfm"), "states"),
    **dict.fromkeys(("build_rp", "build_rp_tmci"), "repdays"),
}
_MODULES = frozenset(_EXPORTS.values())

__all__ = [*_EXPORTS, "BUILDER_KINDS"]


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _EXPORTS.keys() | _MODULES)
