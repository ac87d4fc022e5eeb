"""Model builders for every supported time representation."""

from .common import FormulationOutput, Periods, periods
from .hourly import build_hm
from .states import build_ss, build_ss_rfm
from .repdays import build_rp, build_rp_tmci

BUILDER_KINDS = ("hm", "ss", "rp", "ss_rfm", "rp_tmci")

__all__ = ["FormulationOutput", "Periods", "periods", "build_hm", "build_ss",
           "build_ss_rfm", "build_rp", "build_rp_tmci", "BUILDER_KINDS"]
