"""Cross-commit pin of the built models.

Each kind's model is hashed from its raw buffers (bounds, objective,
integer flags, the CSR arrays, senses, rhs) and both name blobs, not from
its ``.npz`` file, so a zlib upgrade cannot change a digest.  A refactor of
the builders must leave every digest as it is: the column and row order,
every coefficient and every name are part of what the solver sees.
"""

import hashlib

import numpy as np
import pytest

from storagg import (Circuit, Network, aggregate, build_hm, build_ss, build_ss_rfm,
                     build_rp, build_rp_tmci, compute_isf_from_reactances,
                     emit_scenario_template, load_scenario, StorageUnit, LONG_TERM)
from storagg.pipeline import build_formulation, stage_ingest

from conftest import make_thermal, make_battery, make_system, make_data

BUFFERS = ("_lb", "_ub", "_obj", "_int", "_indptr", "_cols", "_coefs", "_sense", "_rhs")


def model_digest(model) -> str:
    h = hashlib.sha256()
    for attr in BUFFERS:
        data = memoryview(getattr(model, attr)).cast("B")
        h.update(f"{attr}:{len(data)}:".encode())
        h.update(data)
    for names in (model._var_names, model._con_names):
        h.update(f"names:{len(names)}:{len(names.blob)}:".encode())
        h.update(names.blob)
    return h.hexdigest()


TEMPLATE_DIGESTS = {
    False: {
        "hm": "950dcc1aec80ed2f0bf9308c5d6332a89c17fd7eb7530f2c5559cbd71dc2020d",
        "ss": "75c8bbc70acf7f3562d04c25693351a66a3f1754cbb252e664c716bf7cbf27d5",
        "ss_rfm": "360876be826735b6bc6c8d07f7277b46493be07dcbad7a641661f8c1fb419ae4",
        "rp": "3f75e938aeab50163ff4d7f05bf69d9db24a73027cdcd4fb49c0077411987c5b",
        "rp_tmci": "096bdece71c0ded1814d830791ad6549346af80cbe3239f26fc3150c78ac6f55",
    },
    True: {
        "hm": "f22408234d59c70220f8294cce76900e1b233ce342395dbd97f4e66bc801793f",
        "ss": "71e22019b880180cb44876b9688a36935e8b12ac1040cbfca7de954393019cf8",
        "ss_rfm": "7762f0c1e6626bc7a679282b68c44a7a355d25c2a91e46d89d2c9899787a0506",
        "rp": "df08f72bf4586aa80d7d04474ff43cb1e8e527b4c2451088708354d4422bb963",
        "rp_tmci": "573c01ed12c52458f9d90a34a7fe6c8288d221f951944d91f45c1298be6ca87d",
    },
}

NETWORK_DIGESTS = {
    False: {
        "hm": "7a7b756d7060f8adf431a8c794adc9ae5a747e318d1000482ea68d070a5a88e9",
        "ss": "e66eee581e8b7f7f367c64d66e64fb45e73e4e8f13c0b358bbba48cb5aa8db9a",
        "ss_rfm": "c06198805f9fb44565e0e9b26167b98c1708371a5b19c2067e8440a27f57c872",
        "rp": "7beb27b1de332fb2d999899d6f19cc7756a408fa0bca013d68fe3abb5406e4e1",
        "rp_tmci": "4434415799f1879dedc2330b808d087756d57cf65227b4250190867b98ab9f70",
    },
    True: {
        "hm": "2a3e15ca5d31a1dfc5e76bf3c720de0f5bc3ed86eb3d67441eb758cbfee531de",
        "ss": "dfd5f97ca1019958c12db4e07419d6502a6c1a2930c3151e07777d701f230480",
        "ss_rfm": "ec3c3cc90e74ef4ee1b9bd8e10e9fab93efb0bc41a5de1389ef72526d7c91ecd",
        "rp": "fdcf0c67cc2656439b3b7ce8e32177769a0708b05fbb1be2071283fb0fa61b93",
        "rp_tmci": "553f87191f4d6686db0ba93cf20d40a098c1b47b98ddb06f817e60700890dd46",
    },
}


@pytest.mark.parametrize("invest", [False, True], ids=["plain", "invest"])
def test_template_models_pinned(tmp_path, invest):
    config = load_scenario(emit_scenario_template(tmp_path, days=7, seed=4))
    config.invest = invest
    system, data = stage_ingest(config)
    art = aggregate(data, config.states, config.rep_days, config.seed,
                    window_hours=config.window_hours,
                    has_short_term_storage=bool(system.short_term_storage))
    got = {kind: model_digest(build_formulation(kind, system, data, art, config).model)
           for kind in ("hm", "ss", "ss_rfm", "rp", "rp_tmci")}
    assert got == TEMPLATE_DIGESTS[invest]


def three_bus_case():
    """Three buses on a triangle of lines, two units on one bus and none on
    another, spinning reserve, an investable battery and a long-term store
    that shares its bus with a unit, over three distinct days."""
    circuits = [Circuit("ab", "a", "b", 0.8, 0.1), Circuit("bc", "b", "c", 0.5, 0.2),
                Circuit("ca", "c", "a", 0.6, 0.15)]
    isf = compute_isf_from_reactances(Network(["a", "b", "c"], "a", circuits, None))
    thermal = [make_thermal("coal", bus="a", marginal=8.0, q_max=2.0, q_min=0.5),
               make_thermal("gas", bus="a", marginal=30.0, q_max=1.0, q_min=0.1),
               make_thermal("peak", bus="b", marginal=90.0, start=5.0, q_max=0.8)]
    storage = [make_battery("batt", bus="c", investable=True, inv_cost=40.0,
                            epr_min=1.0, epr_max=4.0),
               StorageUnit(id="hydro", bus="a", kind=LONG_TERM, w0=30.0, w_min=2.0,
                           w_max=60.0, w_fin=25.0, efficiency=1.0, q_max=0.6,
                           b_max=0.0, technology="hydro")]
    system = make_system(thermal, storage, reserve=0.1, buses=("a", "b", "c"),
                         slack="a", circuits=circuits, isf=isf,
                         initial_commitment={"coal": 1})
    t = np.arange(72)
    base = 1.0 + 0.4 * np.sin(2 * np.pi * (t - 6) / 24) + 0.2 * (t // 24)
    demand = np.column_stack([0.3 * base, 0.5 * base, 0.4 * base])
    renew = np.column_stack([np.zeros(72), np.zeros(72),
                             0.5 * np.maximum(0.0, np.sin(np.pi * (t % 24 - 6) / 12))])
    inflows = np.column_stack([np.zeros(72), 0.05 + 0.01 * (t % 5)])
    data = make_data(demand, renew, inflows, nodes=("a", "b", "c"),
                     storage_ids=("batt", "hydro"))
    return system, data


@pytest.mark.parametrize("invest", [False, True], ids=["plain", "invest"])
def test_three_bus_models_pinned(invest):
    system, data = three_bus_case()
    art = aggregate(data, 5, 2, seed=1, window_hours=24)
    fos = {"hm": build_hm(system, data, invest=invest),
           "ss": build_ss(system, art.states, art.matrices, invest=invest),
           "ss_rfm": build_ss_rfm(system, art.states, art.matrices, invest=invest),
           "rp": build_rp(system, data, art.rp, invest=invest),
           "rp_tmci": build_rp_tmci(system, data, art.rp, art.matrices, window=24,
                                    invest=invest)}
    got = {kind: model_digest(fo.model) for kind, fo in fos.items()}
    assert got == NETWORK_DIGESTS[invest]
