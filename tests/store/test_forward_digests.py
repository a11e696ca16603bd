"""The forward jump functions the store persists, pinned.

Snapshots and slabs record each procedure's forward jump functions as
:func:`~repro.store.fingerprints.encode_all_forward_jfs` payloads, and a
later run reuses them only when its own payloads hash the same. Each
program's payloads under each jump-function kind are hashed the way the
store hashes them and compared with a recorded digest, so a change to
how stage 2 builds, orders or encodes its bindings fails here instead
of turning every published snapshot and slab cold.
"""

import glob
import os

import pytest

from repro.core.config import AnalysisConfig, JumpFunctionKind
from repro.core.driver import Analyzer
from repro.store.fingerprints import encode_all_forward_jfs, sha256_of
from repro.workloads import load, suite_names

LARGE = ("large_chain", "large_fanout", "large_scc")

#: program -> jump-function kind -> sha256 of its forward payloads.
PAYLOAD_DIGESTS = {
    "adm": {
        "literal": "d7bd7bc9a89d02bf458b1d02eb32586d9c342868be5ba54c365a00e1212ef807",
        "intraprocedural": "d7bd7bc9a89d02bf458b1d02eb32586d9c342868be5ba54c365a00e1212ef807",
        "pass_through": "d7bd7bc9a89d02bf458b1d02eb32586d9c342868be5ba54c365a00e1212ef807",
        "polynomial": "d7bd7bc9a89d02bf458b1d02eb32586d9c342868be5ba54c365a00e1212ef807",
    },
    "doduc": {
        "literal": "d36ab0b41f229e12259ea352208c1bc9d30b10ff73783a5e15cf25ed1def8d67",
        "intraprocedural": "84d52f736f63fe505967d22b6ee34add379cd6e3084d163d4072e186e627868d",
        "pass_through": "84d52f736f63fe505967d22b6ee34add379cd6e3084d163d4072e186e627868d",
        "polynomial": "84d52f736f63fe505967d22b6ee34add379cd6e3084d163d4072e186e627868d",
    },
    "fpppp": {
        "literal": "2c44bb247ffeac8bbc0cc4f871ddaf0035f511f480be83f05f9ec0c6efc04b25",
        "intraprocedural": "97d3df567c4a95435803dd85139d4e611f137faf7fd747c7d9579c74c74b5f31",
        "pass_through": "a775fe1747b8ba97e97727cc55ef73ef6a11af160d601451c1b10501ae9f29cd",
        "polynomial": "a775fe1747b8ba97e97727cc55ef73ef6a11af160d601451c1b10501ae9f29cd",
    },
    "linpackd": {
        "literal": "8edc7108bef6926a30e3481053f4ff5412e920b1a3f0a99539a68ee9126be8d5",
        "intraprocedural": "6f5ba6ed6373e75ef9309ff860f828102cb7cf1496844ba40385122ab823c5f2",
        "pass_through": "68838c44028005f8e2610afb589e6419745b55e4775d3477920c4a5cb75c51eb",
        "polynomial": "68838c44028005f8e2610afb589e6419745b55e4775d3477920c4a5cb75c51eb",
    },
    "matrix300": {
        "literal": "9a734684ca05e93b7e99d054a256e6bad00ae3402210caebadf46c0762911794",
        "intraprocedural": "f2f7d4db4c327b7b629b58dfc8afa2e2b70f046ef9f513ecfa877406ddcb6589",
        "pass_through": "49ec183197e58989a3ecfb1638bdc3db3bceed1fc99e1a041572acef2250fc7e",
        "polynomial": "49ec183197e58989a3ecfb1638bdc3db3bceed1fc99e1a041572acef2250fc7e",
    },
    "mdg": {
        "literal": "2ae34a590092829983c6823a339d6c70149ffe0f87fb7b9e8f5114fdbd222e47",
        "intraprocedural": "795baa62312967817155dba4460919269bae6b6413f9afe0610c75bcdb620435",
        "pass_through": "4419818ee19ba446724ea614fca20b26aa9300d0df617b0a8dbbb072f393d7aa",
        "polynomial": "4419818ee19ba446724ea614fca20b26aa9300d0df617b0a8dbbb072f393d7aa",
    },
    "ocean": {
        "literal": "0e9cb949abf23721a45c45b522d3431065235d76adb768314983f52ca9b47739",
        "intraprocedural": "261443737323d89a03b6b14e15d3b22c89d6eeceaaf83d10fa798a2b1d7c1357",
        "pass_through": "bcc261e2c878a736ec42475b6072e13511081167608d5ea4201f69a9f009a3e8",
        "polynomial": "bcc261e2c878a736ec42475b6072e13511081167608d5ea4201f69a9f009a3e8",
    },
    "qcd": {
        "literal": "4cad1f3fb07d16145a662c8a985a8a5188fe29f250a84ead1ce4f67f2d3d0839",
        "intraprocedural": "d9a4c9a2e494744b6a2d38aa289e916af34f48b34e8508c6acc882f29871001a",
        "pass_through": "d9a4c9a2e494744b6a2d38aa289e916af34f48b34e8508c6acc882f29871001a",
        "polynomial": "d9a4c9a2e494744b6a2d38aa289e916af34f48b34e8508c6acc882f29871001a",
    },
    "simple": {
        "literal": "62ba0de744aefa925a5304b6dc5e620c801095f43e5b87ae17fa1cea4574c0d7",
        "intraprocedural": "62ba0de744aefa925a5304b6dc5e620c801095f43e5b87ae17fa1cea4574c0d7",
        "pass_through": "62ba0de744aefa925a5304b6dc5e620c801095f43e5b87ae17fa1cea4574c0d7",
        "polynomial": "62ba0de744aefa925a5304b6dc5e620c801095f43e5b87ae17fa1cea4574c0d7",
    },
    "snasa7": {
        "literal": "f29cc443f881a41296b89858d0e405e3c2d9fec4602c6a31c3c7d5032bb78d74",
        "intraprocedural": "bc996d06840caaacc35e519ea1a7dcc727af1ba0855779df75bff44afab06931",
        "pass_through": "c6755d1408c7fdf7ad0b4e789c09d993a945228b071a8960b08243615a4f19ea",
        "polynomial": "c6755d1408c7fdf7ad0b4e789c09d993a945228b071a8960b08243615a4f19ea",
    },
    "spec77": {
        "literal": "0493a6b9a5b4a7ee9e784edcdef2f3e65116fa8a8653ce17126a55fe61dbda21",
        "intraprocedural": "ffb0fa5fb18765dd67f820d2cb33c99725640e84df548b2e732657122967537b",
        "pass_through": "2e5c96a587470d8b10df12fb8f2298e37fa3307d577bb37f28f49fbd7d9bea29",
        "polynomial": "2e5c96a587470d8b10df12fb8f2298e37fa3307d577bb37f28f49fbd7d9bea29",
    },
    "trfd": {
        "literal": "ba69528a63f08f187ddf373104bd755a5e74a41427ba7a7aa36d77b60679222b",
        "intraprocedural": "ba69528a63f08f187ddf373104bd755a5e74a41427ba7a7aa36d77b60679222b",
        "pass_through": "ba69528a63f08f187ddf373104bd755a5e74a41427ba7a7aa36d77b60679222b",
        "polynomial": "ba69528a63f08f187ddf373104bd755a5e74a41427ba7a7aa36d77b60679222b",
    },
    "large_chain": {
        "literal": "23ecfa305af9215861a3e1d86e7291e1ea7b25305f9fcce706042aa61f2a2a3a",
        "intraprocedural": "cfa3d33d951338d19bbfe436bae63eaa2259ee6b653457d799879141cce44057",
        "pass_through": "b9ceb25282b3ad55587db571543a826b67ba023b36e1f4f80d2bcfc27486957c",
        "polynomial": "b9ceb25282b3ad55587db571543a826b67ba023b36e1f4f80d2bcfc27486957c",
    },
    "large_fanout": {
        "literal": "ac5fbd3c23d2859ccfc70ec06ba51a6aab5950b755f9dc8f106a426c84fbd62e",
        "intraprocedural": "e867967cf451254514cd7418876029bc3b398ca8f380cfc268fafb09cf0ff0af",
        "pass_through": "7f114facb4a096365f398a48d816bc766ee23859094cdace86afed58b1b96d3a",
        "polynomial": "7f114facb4a096365f398a48d816bc766ee23859094cdace86afed58b1b96d3a",
    },
    "large_scc": {
        "literal": "f804d17fb29ab967ec56ebbedb2a37e39d7d9d339b9c21cb7b91819231bff772",
        "intraprocedural": "bba17a23c69dfb871b9e57938f628561a01a9fa85dd739b01ae5d908bff08249",
        "pass_through": "f226e165969711990625f8ccbe91f3cd699992024a1093f5147747f201dd34f7",
        "polynomial": "6fdc2120b2b2a93e3defc519920932024b6a20c778ff6bb69cfbbde922378950",
    },
    "clones.f": {
        "literal": "d726deae2c5619e997038163495b65b30f2b73d6e9a00d55968d8f01e45c913c",
        "intraprocedural": "d726deae2c5619e997038163495b65b30f2b73d6e9a00d55968d8f01e45c913c",
        "pass_through": "d726deae2c5619e997038163495b65b30f2b73d6e9a00d55968d8f01e45c913c",
        "polynomial": "98e176e5434bd8b520b503567de2a8045c24c5bce104ea62aa0c749cd7ba65d0",
    },
    "lint_findings.f": {
        "literal": "d35ec9642ed47ab3d27a1474ac64b3965cba80342179a0bf58f6f0ea610bd593",
        "intraprocedural": "ba31d97fd0c1e09842cd9f17eb78c986b9fb5f4ffda2daf7f2707b61bbb6188e",
        "pass_through": "8172edac42487f2e5f89fa5de3d8e8363917986589d4d63e6d4bfbe65f7bda93",
        "polynomial": "8172edac42487f2e5f89fa5de3d8e8363917986589d4d63e6d4bfbe65f7bda93",
    },
    "pipeline.f": {
        "literal": "28fd684f64e35c8f4e293b1b76995bcb2244bdcfae7e4b44446505913a2ac7ee",
        "intraprocedural": "c0c87a7d7acf635365b6d61a8d8734e054c4b0d7592b825e39756343775caf76",
        "pass_through": "174163f1cc7e7b6d4b1e8abfef98bd3fdeb0644b55d94fce9acd870798a8c05c",
        "polynomial": "174163f1cc7e7b6d4b1e8abfef98bd3fdeb0644b55d94fce9acd870798a8c05c",
    },
}


def payload_digests(source: str) -> dict[str, str]:
    """Each kind's payload digest; one stage 0 serves all four kinds."""
    analyzer = Analyzer(source)
    digests = {}
    for kind in JumpFunctionKind:
        result = analyzer.run(AnalysisConfig(jump_function=kind))
        payloads = encode_all_forward_jfs(result.lowered, result.forward.sites)
        digests[kind.value] = sha256_of(payloads)
    return digests


def test_every_program_is_pinned():
    examples = {os.path.basename(path) for path in glob.glob("examples/*.f")}
    assert {*suite_names(), *LARGE, *examples} <= set(PAYLOAD_DIGESTS)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.slow) if name in LARGE else name
        for name in sorted(PAYLOAD_DIGESTS)
    ],
)
def test_forward_payloads_unchanged(name):
    if name.endswith(".f"):
        with open(os.path.join("examples", name)) as handle:
            source = handle.read()
    else:
        source = load(name).source
    assert payload_digests(source) == PAYLOAD_DIGESTS[name]
