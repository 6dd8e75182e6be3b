"""Golden results: every registered policy's output, pinned by digest.

Every engine (reference, fast, batched, sampled) runs the same policy
classes, so the engine property net compares one implementation of a
policy with itself. This file pins what that implementation computes:
for each registered policy and each of two traces on
``small_test_machine()``, the SHA-256 of the canonical result JSON must
equal the digest recorded below. The policy's state after the run is
pinned the same way: the canonical JSON of ``snapshot_state()`` (what
telemetry profiles carry) and, for policies implementing the warm-state
protocol, of ``checkpoint_tables()`` (what sampled cells restore).

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
from repro.policies.registry import available_policies, make_policy
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


def _sha256(document: object) -> str:
    canonical = json.dumps(document, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


@functools.cache
def digests(policy: str, trace_name: str) -> tuple[str, str, str | None]:
    """Digests of the result, ``snapshot_state()`` and ``checkpoint_tables()``.

    The checkpoint digest is None for policies outside the warm-state
    protocol.
    """
    instance = make_policy(policy)
    result = simulate(
        golden_trace(trace_name), config=small_test_machine(), llc_policy=instance
    )
    tables = instance.checkpoint_tables()
    return (
        _sha256(result.to_json_dict()),
        _sha256(instance.snapshot_state()),
        None if tables is None else _sha256(tables),
    )


def digest(policy: str, trace_name: str) -> str:
    return digests(policy, trace_name)[0]


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


SNAPSHOT_GOLDEN: dict[tuple[str, str], str] = {
    ("bip", "spread"): "c28476869d5030ff6f1787e9649cfc4dd961d1f1ca531f65be977aeab81cdd48",
    ("bip", "narrow"): "4c49a47548e2f59f1446dec74f31802ef67cd325646f78cdc7d4c1eddb9e1ae6",
    ("brrip", "spread"): "7d834c0c2a18a958fbf1115aa62eeffdd9af705373a33cfb5605bde867fd7b7f",
    ("brrip", "narrow"): "ac9c7abfa07ad14262f9bc174eef9a6d77ea1f2bcc6af01d6f9be5bfd5c5f9ec",
    ("dip", "spread"): "68929871dbf0b25c3f0c21ec5db74c9f12f44d639ba4f91b0ff562e620b6ad47",
    ("dip", "narrow"): "7b6bbb321f2dd4af8ba10687975f3a1f5444d8631931ab4fb57d6883ea7681ad",
    ("drrip", "spread"): "2ab293b503fc270abba54e4eaf384719038bdc96c7c1bcbb486346b385c17c76",
    ("drrip", "narrow"): "d026833a61b9bfa66ec2b34e44bc79830120bf6f7c72638ecf5e980f6cca5a73",
    ("fifo", "spread"): "0c4b33fd80cf3c92048e3495ca3471e0f8df4b8a6690f6c00368c5ec3a7d72f4",
    ("fifo", "narrow"): "26b420d21bcbf0a4afd2bab1cfdbb0f00906d31fe07f02a64e83c06eebfa8fd4",
    ("glider", "spread"): "44ff4110a7446f2aa253009443d1e504628b923e3ccf590a297fd157c1f14a65",
    ("glider", "narrow"): "539e7ade13666cbffb324b829eeef09d9511d55d5c109cd143612a05db62dfdc",
    ("hawkeye", "spread"): "c93abcd99dd4d46d28fe4be4a8b0c07f3bf23fc51e9f26fe804f926b51abd002",
    ("hawkeye", "narrow"): "b0e35746b2482d8a4fac8021b15167e31c66c04f84129acf2a953ab4f1abec95",
    ("lip", "spread"): "af6ed7d7127d3f02d14cdff5ed0bc3b148344fca8d01ac73ace69afcb2810b97",
    ("lip", "narrow"): "90a470e4dfad0232ae647fe64c7110acbc3fa4946d306843039d51f0397ec4bf",
    ("lru", "spread"): "e85809e4b4e1d2264ddd52bb3efba5f8fd24ab63ccdc0767040211f2d5b248f9",
    ("lru", "narrow"): "5a6e4df048081678e3b55043b0c32c9c274b18c55d75bff47a1d1abf2907b163",
    ("mpppb", "spread"): "8f85b606ad5433f7b619cb9e10f3cf676db24fc0b4be9b17843049e363c7ff50",
    ("mpppb", "narrow"): "6f641dae9ff6eb40c993e9ddca938cbaaffeaaba6066a1f84564a6189ce34a27",
    ("mru", "spread"): "88296c97b81f82b323053ae4e4835226d6d55297047f1643e713e071820cafc6",
    ("mru", "narrow"): "5a6e4df048081678e3b55043b0c32c9c274b18c55d75bff47a1d1abf2907b163",
    ("nru", "spread"): "2aab738bf0e79aafa9699d0539bdd0a56bf0eb46b1c232b2caf2059a80554391",
    ("nru", "narrow"): "c9e32c02c02530c65a6c93562406c5fa60dd1d6981d3ea71aba52cee4881a4e9",
    ("plru", "spread"): "429bb9a492b76da5602e21cb02b534fd706eecba2e99601dea29bda69f1f0f98",
    ("plru", "narrow"): "00b22dc099fa67e0081f2162f15d52397508b289434e8abadfaef2b026ea4a58",
    ("random", "spread"): "b5315a3cdb635565580bc0dc38894611b15690a69b0c79c3475d84e8c608e2d9",
    ("random", "narrow"): "37d7ce35488cb09a7274052ca62a446d6f104eb5c37d98c47afc2819285cbb67",
    ("ship", "spread"): "0d7d3f6d71534f49febde8bccb0c4602569e4f1e1261e1246275a1fa96689f81",
    ("ship", "narrow"): "97bb492164ff36cac7e63e73b5f79aefab2ef0d62a898953bee9a16e4d33ae1b",
    ("srrip", "spread"): "514ed0cfd22136e1455e01ba63f497dbde1118bd309c14b410ce686385be9238",
    ("srrip", "narrow"): "bce6f8b08a51b4805adae3231f8edda84977d86bb4ab44f1d46baff07fc746c9",
}

#: Only the policies implementing the warm-state protocol.
CHECKPOINT_GOLDEN: dict[tuple[str, str], str] = {
    ("brrip", "spread"): "3bca486d543942754db068b79b13c020cb181adedf4ec656b9fe626a9744923d",
    ("brrip", "narrow"): "0ff0f9023f2e6d2127fe91cc2bde5b4ebf7c7631252dbcc00f71f38b04b388b2",
    ("dip", "spread"): "4af9a22a7fdddd91e370c9c276dae0c0a62a114cf3e755962b541117a9938f64",
    ("dip", "narrow"): "98f9765254d4e4af84198ac8fe9888c3a7a28d44a149e9c3375f01c81095d86d",
    ("drrip", "spread"): "403a47f879ab0bd1048e2e9468cbacada3bd3b4de3a93992dd0046e53ba632b6",
    ("drrip", "narrow"): "f9919eaa3e138df110594372c87a0f25aa8c4ae30b7ad8aabd0c6da937625528",
    ("glider", "spread"): "bcd1187cfd8b67e9bc8fa0b2f9298d2ffcfb6fa5b5b0dd38bb804fda34b880be",
    ("glider", "narrow"): "d1843a1491f5ae3cd491922e89b2626618d9eb34e4e3380419866f4a915f07b0",
    ("hawkeye", "spread"): "2595d7b73de482e131e7761380a09e29ca59b87f26c8ada454f57a14ea1c833d",
    ("hawkeye", "narrow"): "415196520218b21335fcf4a5cd45d918410e18659e17ec534c5f0d871173b406",
    ("mpppb", "spread"): "6cfdc52159c0e6444e6e1edae2ae90b70145ff3fe0ababe5538bc8bc6724f204",
    ("mpppb", "narrow"): "374741bb0d4f015ffa8a16bd139d1603c22af5dda6a25aab997d97436d20bb3d",
    ("ship", "spread"): "dda9408d05c4475cb15b51ec6be09e27c7827406719087ea7bbb8afd8c8b64c2",
    ("ship", "narrow"): "ddd504e875f6f700c32bfe69d212246e90aa59f686c76467e37930422dc7dd10",
    ("srrip", "spread"): "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
    ("srrip", "narrow"): "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
}


def test_every_registered_policy_is_pinned():
    for table in (GOLDEN, SNAPSHOT_GOLDEN):
        pinned = {policy for policy, _ in table}
        assert pinned == set(available_policies()), (
            "the golden tables do not cover the registered policies; "
            f"regenerate them with `{REGENERATE}` and say why in CHANGES.md"
        )


@pytest.mark.parametrize("policy,trace_name", sorted(GOLDEN))
def test_policy_result_matches_golden_digest(policy, trace_name):
    assert digest(policy, trace_name) == GOLDEN[policy, trace_name], (
        f"{policy} on golden.{trace_name} no longer produces its pinned "
        f"result. If the change is intended, regenerate the table with "
        f"`{REGENERATE}` and give the reason in CHANGES.md."
    )


@pytest.mark.parametrize("policy,trace_name", sorted(SNAPSHOT_GOLDEN))
def test_policy_snapshot_matches_golden_digest(policy, trace_name):
    assert digests(policy, trace_name)[1] == SNAPSHOT_GOLDEN[policy, trace_name], (
        f"{policy}.snapshot_state() after golden.{trace_name} changed. If the "
        f"change is intended, regenerate the tables with `{REGENERATE}` and "
        f"give the reason in CHANGES.md."
    )


@pytest.mark.parametrize("policy,trace_name", sorted(GOLDEN))
def test_policy_checkpoint_matches_golden_digest(policy, trace_name):
    assert digests(policy, trace_name)[2] == CHECKPOINT_GOLDEN.get(
        (policy, trace_name)
    ), (
        f"{policy}.checkpoint_tables() after golden.{trace_name} changed (or "
        f"the policy joined or left the warm-state protocol). If the change "
        f"is intended, regenerate the tables with `{REGENERATE}` and give "
        f"the reason in CHANGES.md."
    )


if __name__ == "__main__":
    for title, column in (("GOLDEN", 0), ("SNAPSHOT_GOLDEN", 1), ("CHECKPOINT_GOLDEN", 2)):
        print(f"{title}: dict[tuple[str, str], str] = {{")
        for policy in available_policies():
            for trace_name in TRACES:
                value = digests(policy, trace_name)[column]
                if value is not None:
                    print(f'    ("{policy}", "{trace_name}"): "{value}",')
        print("}")
