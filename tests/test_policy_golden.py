"""Golden results: every registered policy's output, pinned by digest.

Every engine (reference, fast, batched, sampled) runs the same policy
classes, so the engine property net compares one implementation of a
policy with itself. This file pins what that implementation computes:
for each registered policy and each of two traces on
``small_test_machine()``, the SHA-256 of the canonical result JSON must
equal the digest recorded below.

The traces come from a fixed 64-bit LCG rather than numpy's RNG, so the
digests do not move with the numpy version. Each holds 4000 accesses
from 16 PCs in a LOAD/LOAD/STORE/IFETCH mix. Half the accesses reuse a
few hot tags per set from eight PCs; the other half stream over many
tags from the other eight, so the LLC fills, evicts dirty lines and
receives L2 victim writebacks, and the PC-based predictors see both
reuse and dead blocks. ``spread`` covers all 64 LLC sets; ``narrow``
keeps to 8 of them, which concentrates conflicts on the DRRIP leader
sets and the MPPPB training sets.

Regenerate the table (only when a policy's behaviour is meant to
change, with the reason recorded in CHANGES.md) with::

    PYTHONPATH=src python tests/test_policy_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import json

import numpy as np
import pytest

from repro.core.config import small_test_machine
from repro.core.simulator import simulate
from repro.policies.registry import available_policies
from repro.trace.record import AccessKind
from repro.trace.trace import Trace

REGENERATE = "PYTHONPATH=src python tests/test_policy_golden.py"

_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1

KIND_MIX = (
    int(AccessKind.LOAD),
    int(AccessKind.LOAD),
    int(AccessKind.STORE),
    int(AccessKind.IFETCH),
)
PCS = tuple(0x401000 + 0x34 * k for k in range(16))
LENGTH = 4000
#: Each trace's LLC set count (``small_test_machine`` has 64) and LCG seed.
TRACES = {"spread": (64, 1), "narrow": (8, 2)}


@functools.cache
def golden_trace(name: str) -> Trace:
    """The seeded trace ``name``, over the first ``num_sets`` LLC sets."""
    num_sets, state = TRACES[name]
    addrs, pcs, kinds, gaps = [], [], [], []
    for _ in range(LENGTH):
        state = (state * _LCG_MUL + _LCG_INC) & _MASK64
        r = state >> 16
        hot = r & 1
        set_index = (r >> 1) % num_sets
        tag = (r >> 8) % 3 if hot else (r >> 8) % 48
        pc_slot = (r >> 16) % 8 + (0 if hot else 8)
        addrs.append((set_index + 64 * tag) << 6)
        pcs.append(PCS[pc_slot])
        kinds.append(KIND_MIX[(r >> 24) % 4])
        gaps.append(1 + (r >> 28) % 4)
    return Trace.from_arrays(
        np.array(addrs, dtype=np.uint64),
        np.array(pcs, dtype=np.uint64),
        np.array(kinds, dtype=np.uint8),
        np.array(gaps, dtype=np.uint32),
        name=f"golden.{name}",
    )


def digest(policy: str, trace_name: str) -> str:
    result = simulate(
        golden_trace(trace_name), config=small_test_machine(), llc_policy=policy
    )
    canonical = json.dumps(result.to_json_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


GOLDEN: dict[tuple[str, str], str] = {
    ("bip", "spread"): "523d95a89ab525fbdc90fdff09887fa717d9031dcf0f38d4d318ff70634a583e",
    ("bip", "narrow"): "71afcf3acdb0a8430d219d29fc653820bf645b81d7dda09e3bb393de5dba5152",
    ("brrip", "spread"): "02365327f468f8e4d028736d2b46bb5f3f797ac40b37a02331bddb0e726ae13f",
    ("brrip", "narrow"): "67e7231389b2c1f76ec499f6dc3ba9ece081c88ffec8917978fca25314f6be27",
    ("dip", "spread"): "f4474b27457cd95fd095a81ef985624013e727affe69cc9c1b8c894300802e9b",
    ("dip", "narrow"): "84f58a2ec4350c7263885a0c4f4ae01fd591a4c4178b572045cc350e267a3b47",
    ("drrip", "spread"): "e1d063f4bbe32a0c204bdb130915fa49dac945b76fb4fa66cd081b598e399c1e",
    ("drrip", "narrow"): "737cb1e8fcb31844f8ad9e82497c72908c4e72970e26b26a5885253bf47671c3",
    ("fifo", "spread"): "2da830d7c91f495ce9ecbe6e3446bb9a8981c8b1a4addc9e3213bb4644031359",
    ("fifo", "narrow"): "8d14f5e63c2a943b65ae0337c7cf16232a389013e8bd1203ab9b2dd62e503760",
    ("glider", "spread"): "c0dd3557ca24a691ea9aa2227b92a80f77145f05f423083077646c10f4782c25",
    ("glider", "narrow"): "db16c0a2c90a28d3bce7faa74185c5b91aa97526875505964e68b8074f46b6e7",
    ("hawkeye", "spread"): "ad4d2f96c902a2e0dcffa499f1a7c1dea0bb40b0e8aa9bcb0dfbe55b16515320",
    ("hawkeye", "narrow"): "4b4b18581a7c0c0f3b9709a1cd11d08d31b05c8b10e708fcb1ff0e862f05889a",
    ("lip", "spread"): "a454351ddf38a12a7cfb7e110d56dfac11bfcb556cc172f770d60a89c0e524bb",
    ("lip", "narrow"): "49ad9e0bfdfbb66ddc0f8ee3fb60c00b5c59424c6d8e8deeced0308b0ff79a84",
    ("lru", "spread"): "15520ed7528063da637e8bbf655017a20f664a7ec784730467d150027299f70d",
    ("lru", "narrow"): "29a47e47bf8e37a8a762446ef08cfae1a56bc5090cb431310413d97a03b0bed9",
    ("mpppb", "spread"): "f8e671f73f6bf504959114006b23b84eedfe001210b34da07673e973886e8e9c",
    ("mpppb", "narrow"): "f1f91993be11ac1064125aacc08b3a327745596f14db4fb0fd029fd5e69e4c2f",
    ("mru", "spread"): "2770e473f57d248281757390e598d0d2df1e1bc40bd2c6b688ccbd7b30bccf9f",
    ("mru", "narrow"): "20ec3965242a486d84c74378a45dd4778e7c7dcd5fd7325e027b3b02c199ccba",
    ("nru", "spread"): "e51f3206ab00deb814c3d409bcd0cc69e357d7001a2fd714bfe1fc9caf72d2af",
    ("nru", "narrow"): "7796e57ca7b92513f2aaf7b8b84f92492d0ce0f78fabfd018bd9ba1d79261a1a",
    ("plru", "spread"): "496e4df1ee73b9dbb456c62a97f702ad1d01d3fa8c80a306908fd4b93359c418",
    ("plru", "narrow"): "a69c5743181c7c5c860f95a80811b1d534e3ee8f93b26490b3ec01f5b0882b8b",
    ("random", "spread"): "d7e4dab882a5daeace356dfd4ac52b0baba5b36312ac5a078721747ee570e231",
    ("random", "narrow"): "ac38fa388b46d2e6d0f788ea606831dc4cd5e80d3d4079dec4f5a4b6b2742976",
    ("ship", "spread"): "792415b6b14df90413375bf36f090a404c613e1ab5a6e58eb7102de3852cee98",
    ("ship", "narrow"): "e5f9fc7863969db96b8e89a044b363f13ca4b816937ca6cd6a54e05d7a8a91d2",
    ("srrip", "spread"): "c1bd3b97fd6d92765e90eb5c23e57b65fdd9af41bdcb48eaf908466f51bb8601",
    ("srrip", "narrow"): "ffced009c628e02d450c0253c154d3a4e253d28303fd10bfa42a646a76a59912",
}


def test_every_registered_policy_is_pinned():
    pinned = {policy for policy, _ in GOLDEN}
    assert pinned == set(available_policies()), (
        "the golden table does not cover the registered policies; "
        f"regenerate it with `{REGENERATE}` and say why in CHANGES.md"
    )


@pytest.mark.parametrize("policy,trace_name", sorted(GOLDEN))
def test_policy_result_matches_golden_digest(policy, trace_name):
    assert digest(policy, trace_name) == GOLDEN[policy, trace_name], (
        f"{policy} on golden.{trace_name} no longer produces its pinned "
        f"result. If the change is intended, regenerate the table with "
        f"`{REGENERATE}` and give the reason in CHANGES.md."
    )


if __name__ == "__main__":
    print("GOLDEN: dict[tuple[str, str], str] = {")
    for policy in available_policies():
        for trace_name in TRACES:
            print(f'    ("{policy}", "{trace_name}"): "{digest(policy, trace_name)}",')
    print("}")
