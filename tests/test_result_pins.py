"""Pinned result bytes of the engine, one small ``simulate_cells`` call per regime.

Lockstep == sequential cannot see a float change inside a rule, since both
paths run the same rule code, so these digests are what catches one.  Each
pin is the sha256 of one :class:`~lybandit.engine.BatchResult` field, its
bytes over the call's cells in order.  A change that moves a pin on purpose
names its float change and updates only the pins that moved; a failure
prints every moved field of the regime with its new digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

import numpy as np
import pytest

from lybandit import PolicySpec, solve_lfp
from lybandit.engine import BatchResult, simulate_cells

from conftest import MIXED_KINDS, TWO_ARM, force_workers, random_feasible_instance

FIFTY_ARMS = random_feasible_instance(np.random.default_rng(50), 50)

STATIONARY = PolicySpec("stationary", "stationary")
STATIC = PolicySpec("static", "static", arm=1)
LYOFF = PolicySpec("lyoff", "lyoff", v0=1.0, delta0=0.5)
LYON = PolicySpec("lyon", "lyon", v0=1.0, delta0=0.5)
LYON_LOG_LIT = PolicySpec("lyon-log-lit", "lyon", v0=1.0, delta0=0.5, schedule="sqrt-log",
                          index_variant="literal-paper")
UCB = PolicySpec("ucb", "ucb_bwi", v0=1.0)

# regime: (instance, cells, runs, master seed, keyword arguments)
REGIMES = {
    # 1,100 runs are a full chunk and a partial one
    "chunks": (TWO_ARM, [(STATIONARY, 15.0), (LYON, 15.0)], 1100, 11, {}),
    # episode lengths spread widely at B = 60, so each pass compacts many times
    "compaction": (MIXED_KINDS, [(LYOFF, 60.0), (STATIC, 60.0)], 300, 12, {}),
    # budget-free cells share one pass to B = 40; the cap of 25 binds at 10, 20 and 40
    "budget-free": (MIXED_KINDS, [(spec, b) for spec in (STATIONARY, STATIC)
                                  for b in (5.0, 10.0, 20.0, 40.0)], 60, 13, {"cap": 25}),
    "fifty-arms": (FIFTY_ARMS, [(LYOFF, 30.0), (LYON, 30.0), (UCB, 30.0)], 40, 14, {}),
    # every arm kind, the joint table included
    "arm-kinds": (MIXED_KINDS, [(spec, 25.0) for spec in
                                (STATIONARY, STATIC, LYOFF, LYON, UCB)], 50, 15, {}),
    "variants": (TWO_ARM, [(LYON, 40.0), (LYON_LOG_LIT, 40.0)], 50, 16, {}),
    "track-lcb": (MIXED_KINDS, [(LYON, 30.0), (LYON_LOG_LIT, 30.0), (UCB, 30.0)], 50, 17,
                  {"track_lcb": True}),
}

PINS = {
    "chunks": {
        "n_pulls": "894948a7b95fb664b7d04f1bcf51b3dd08d526a1eed60a9d9264ad8567a491ce",
        "total_cost": "4c7337f98156cfc7b3136bc09e2456716a1cf1d947b83324bb20c5f9bdf54024",
        "total_reward": "20065e79544ef7e6ab6cdd83c29c5e86c0b060594ab966d5556b8d522947303c",
        "total_penalty": "64018bcce5552e0eaeca1ad0a47948907af93e3bb3efa1f926e63d5f8feb2c37",
        "pulls_per_arm": "75cf9be074eade0af891bee1ed3975a6c294b5f8f1cbe3091c5ad950113b24b2",
        "cost_per_arm": "f78e78255e85654fd112665ff57f4af56d717224bda1a0ac6cd378e885ebcf48",
        "q_final": "4bce11b5aa3621c21b4542d26806045c60ed87dba28c3692e8007a0f3e74c106",
        "q_max": "e0bbd647035dd00ba2cb28adfa78bc9b3f24e54f1c3da1a062d71442bccff0d2",
        "capped": "2b63efc11f049529eb9b9876a5396ba3a5af8b73f813836efd844c114bb29834",
    },
    "compaction": {
        "n_pulls": "dcce6be444a3fa6a56b10bde7e4443a91be4cb8b8549b69ed397a3ab8d815a35",
        "total_cost": "bd70b57b74251cd785505e4900afc82afb32a627793f5a80745ae597a325bc36",
        "total_reward": "ccb8922e1d0a1411dafe24f54584960daf72e6831fab408863a874fb0ef6fedf",
        "total_penalty": "f48fdffc8a5e3e54c20992fb7f15959be38b963e85dc8a8d997c9c1f489e938c",
        "pulls_per_arm": "95c5f9f31c18c298e3a074da60109c5a66a206d1fe20b5467e82c44d2752e060",
        "cost_per_arm": "041e17d8038f4f9d5ecf0875251b9e4eadee61425d0ccfd292fd462b747453d9",
        "q_final": "c1a6091cbe733539464744de791f1c7afe589dac4751031ba7670bab0d8319ac",
        "q_max": "b603040721af8bb6fde8b3a744a8ef16614781c762d95f060eaf63c477281d55",
        "capped": "bd50e12c55dda3ee443c1cb6d71c7bcf6351c4ec96f7bc8d6adec015d1192eea",
    },
    "budget-free": {
        "n_pulls": "f9e1652cb2d4cba25315d7ef5510410377e3514fdb3f8b6ece6e819369a0b9bc",
        "total_cost": "7f41e57e0b14508aae06485bcc9b87537a29e299185c87bd8972ef80e7fb3a73",
        "total_reward": "dbd422437caadc62c6e390d9fea80bfe87ffff620aa54f2871ffd49bfeadc808",
        "total_penalty": "d7b48f70da3e288de080e0cd660011306dcf982002e72694afa3705a236c781c",
        "pulls_per_arm": "aedda038c4d1bb25029712b92979912677941576384c562ad794a5125c67e1e3",
        "cost_per_arm": "4bbeecca0d1844a3861394310d87e55a38f351a52763404490437acf01a31b7c",
        "q_final": "a8eac8b0d3b1fde368813438dd5ba415a796fd6dd0a2a42fb6a5a2dfb2429576",
        "q_max": "a8eac8b0d3b1fde368813438dd5ba415a796fd6dd0a2a42fb6a5a2dfb2429576",
        "capped": "f0b73ee39bf266e13fe38de9654ad1dc2236160e3f7432f3af6e4a7b217ad573",
    },
    "fifty-arms": {
        "n_pulls": "5c03130079c1c9e47611326aa9ae6ce1078868beddc6f9ef43658aabb27bdf7c",
        "total_cost": "0d50fc7d3d0428311fc526076a28a73c449ebd7a5ec8c39ea24bd15443d662b8",
        "total_reward": "b5392f61fb9932fe62d9b8d0058728dad4737a2b1b2f78a720bdc0003f21c919",
        "total_penalty": "c3ae6a40584e249bd812018799192ea981aefb7d5a25407c24de1e951fd2c1a4",
        "pulls_per_arm": "fe0545b53a65406741035188fdc171ef86563a12a52c9e359ab2ad26deee5506",
        "cost_per_arm": "462242690b87765dbf3b94e6e10c164f36c5fdb0707119bd753f767125eba0a1",
        "q_final": "c7684630a17b21954677ce0ad506aca45cd85d8212db7dd8a1d216e20b9f17af",
        "q_max": "29a8035cf6899e7b7c50189edd19aff4f6083beb4543e7158156a7db4ae13783",
        "capped": "6edd9f6f9cc92cded36e6c4a580933f9c9f1b90562b46903b806f21902a1a54f",
    },
    "arm-kinds": {
        "n_pulls": "ca00812aca9dd49d6e6b4bae73c2e338dccf096d68c9c8efba1e11542f91b7f9",
        "total_cost": "201bc02a67d6b1729cfaad0bd453734c9e1a12766bfbe73ec71fcaa5eca1a6f1",
        "total_reward": "4788329a7d5181c51fbd8dd5788e6c2dda008066b79f1508de911e2f19347da0",
        "total_penalty": "0df852f6950ea356db5e5aaf3657d0f224f3b3b760e6ae052fc06f578dc223ca",
        "pulls_per_arm": "4e62d6950e79076a34e18c933971a4bec6a9b66a18d3c0b3508e29d4642559ab",
        "cost_per_arm": "6cd49e1454db01873109321798c3966b2074fbe4e60ab22eee9746c6e484e727",
        "q_final": "045f0ffcab96ae12df141606a988bca84a5d4ae1c7c51c5f56ca12799193bd5c",
        "q_max": "ebfa5170554add2f2fbc89fcb18db9b4e97df3e1e6dc5429619c1ad9866d7987",
        "capped": "1a5ce2eb33e4dcd8bf09a57d740649e2aec359dc2c0fd952ac0d19d4a63d0c42",
    },
    "variants": {
        "n_pulls": "6e46d6346a6fcb84ac85cba392681168a41ac5a9ff38785b5cb40836ac163a27",
        "total_cost": "b4a506ca6512b03394815f2e18eb458b51251e834a3fe62b18491ef2d8390396",
        "total_reward": "1b1c84fc15b81a16a0029d4410513cef02ee4c01d8bd7a9f5daad9e679cf1e54",
        "total_penalty": "d5613b471c1a6dec60bfa67d3762d317d4ff58400c580b95e1715f9514bf1bb3",
        "pulls_per_arm": "6a40ed7cf99c06558ea34ac27f10300470c2d91b928a042623500a67af241cd0",
        "cost_per_arm": "4fa8a7b32e0b7e7fddc958e7433885a43af03553026eedfafc818959bd64afa3",
        "q_final": "c4424b7dfa571d5ed9b797f6a68e30d199abb5dbdf5a5f96348dc848cb4baceb",
        "q_max": "226042de086fd28df0d41e05882d3e59afad1087dfc1f0de91041cc8db21198e",
        "capped": "cd00e292c5970d3c5e2f0ffa5171e555bc46bfc4faddfb4a418b6840b86e79a3",
    },
    "track-lcb": {
        "n_pulls": "8426b751b1de9cd0f2f6a2816f3ea9f3a92ce45ab3646433703b023111045c59",
        "total_cost": "6f4bfc04cce722ad3bc0718843937e9974b730b02515a743e3e8aa002e728888",
        "total_reward": "be31141851e581ae930d3a5c42b596b4727fc62a295a5114bfce911ef1904842",
        "total_penalty": "b3290fd6e8d45aa286cdb0085d14ac7690c7ca133dc926836b95dc9d181424ff",
        "pulls_per_arm": "e10cbfb650eb68526c2d98d44e6de7ac88db0c97c85ddb4105d96dbb7f458ed0",
        "cost_per_arm": "6b01286950f94d449b0f5095117f6bd5f1041e725a4a7bac3c3e6ca633611459",
        "q_final": "1c8c6ff3f15f38ca9231f8b6cad4406341b78e733a4263b714019e6a1dff6dec",
        "q_max": "db8a4651b3df6e4351905f680fe9c436de0932b922c07618dec7894fc5b9903a",
        "capped": "1d83518b897b14e2943990eff655838246cc0207a7c95a5f3dfccc2e395f8bbf",
        "lcb_ok": "a795c048f28bc4307f8599dc5140fe6e971bce6a34a0349b6c18d6cbb197f75f",
    },
}


def digests(results: list[BatchResult]) -> dict[str, str]:
    """The sha256 of each field's bytes over ``results``, fields left None skipped."""
    out = {}
    for f in fields(BatchResult):
        values = [getattr(r, f.name) for r in results]
        if values[0] is not None:
            h = hashlib.sha256()
            for v in values:
                h.update(np.ascontiguousarray(v).tobytes())
            out[f.name] = h.hexdigest()
    return out


def regime_digests(regime: str) -> dict[str, str]:
    instance, cells, runs, seed, kwargs = REGIMES[regime]
    p_default = solve_lfp(instance).p_star
    return digests(simulate_cells(instance, cells, runs, seed, p_default=p_default, **kwargs))


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("regime", REGIMES)
def test_result_bytes_are_pinned(monkeypatch, regime, workers):
    force_workers(monkeypatch, workers)
    got = regime_digests(regime)
    moved = {name: digest for name, digest in got.items() if PINS[regime].get(name) != digest}
    assert got.keys() == PINS[regime].keys() and not moved, (regime, moved)
