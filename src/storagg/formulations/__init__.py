"""Model builders for every supported time representation.

Importing the package imports every builder, and with them ``milp`` and
``aggregation``; the kinds they build are listed in
``pipeline.BUILDER_KINDS``, which scenario checks and the command line read
without building anything.
"""

from .common import FormulationOutput, ModelMeta, Periods, periods
from .hourly import build_hm
from .states import build_ss, build_ss_rfm
from .repdays import build_rp, build_rp_tmci

__all__ = ["FormulationOutput", "ModelMeta", "Periods", "periods", "build_hm", "build_ss",
           "build_ss_rfm", "build_rp", "build_rp_tmci"]
