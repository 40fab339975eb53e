"""Pin the miss path's observable behaviour, per NC organisation.

Every case replays one fuzzer trace through ``Simulator.run`` on the
model checker's tiny machine with an :class:`EventTracer` and a
:class:`StallProfiler` attached, and hashes four things: the counters,
the full event stream (order and details included), the final machine
state and the profiler snapshot.  The expected digests were computed
before the miss path was specialised per organisation, so any change to
what the miss path does, emits or attributes, including the order of two
events, fails here.

The traces come from ``random.Random`` (the fuzzer's generators), not
numpy, so the digests do not depend on the numpy release.

Regenerate the table only for an intended behaviour change::

    PYTHONPATH=src python tests/sim/test_miss_path_pin.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.check.explore import DEFAULT_VARIANTS, tiny_check_config
from repro.check.fuzz import STRATEGIES, case_trace, generate_case
from repro.check.oracle import machine_snapshot
from repro.obs.events import EVENT_KINDS, EventTracer
from repro.obs.profile import StallProfiler
from repro.params import BusProtocol
from repro.sim.simulator import Simulator
from repro.system.builder import build_machine

#: variants also pinned under MOESIR (the O state reaches the victim paths)
MOESIR_VARIANTS = ("nc", "vb", "vxp2")
SEEDS = (1, 2, 3)
#: a short profiler window samples NC occupancy often, so the order of
#: profiler hooks relative to NC mutations is part of the digest
WINDOW = 16

CASES = [
    (system, protocol, strategy, seed)
    for system, protocol in (
        [(v, BusProtocol.MESIR) for v in DEFAULT_VARIANTS]
        + [(v, BusProtocol.MOESIR) for v in MOESIR_VARIANTS]
    )
    for strategy in STRATEGIES
    for seed in SEEDS
]


def _case_id(system, protocol, strategy, seed) -> str:
    return f"{system}/{protocol.value}/{strategy}/{seed}"


def run_case(system, protocol, strategy, seed):
    """Run one case; returns ``(digest, tracer)``."""
    config, dataset = tiny_check_config(system)
    config = dataclasses.replace(config, protocol=protocol)
    trace = case_trace(generate_case(system, seed, strategy))
    tracer = EventTracer()
    profiler = StallProfiler(config, window=WINDOW)
    sim = Simulator(
        build_machine(config, dataset_bytes=dataset), tracer=tracer, profiler=profiler
    )
    sim.run(trace)
    profiler.finish(sim.now)
    assert tracer.total_emitted == len(tracer)  # the ring kept every event
    payload = {
        "counters": sim.counters.as_dict(),
        "events": [e.as_dict() for e in tracer.events()],
        "machine": machine_snapshot(sim.machine),
        "profile": profiler.snapshot(system, strategy),
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest(), tracer


@pytest.mark.parametrize(
    "system,protocol,strategy,seed", CASES, ids=[_case_id(*c) for c in CASES]
)
def test_miss_path_digest(system, protocol, strategy, seed):
    digest, _ = run_case(system, protocol, strategy, seed)
    assert digest == PINNED[_case_id(system, protocol, strategy, seed)]


def test_cases_emit_every_event_kind():
    """The pinned cases reach every protocol event the simulator emits."""
    seen = set()
    for case in CASES:
        seen.update(run_case(*case)[1].kind_counts)
    assert seen >= set(EVENT_KINDS), sorted(set(EVENT_KINDS) - seen)


#: digests computed before the miss path was specialised per organisation
PINNED = {
    "base/mesir/random_walk/1":
        "7db0fe6ff1d790ecacda8d2d905a2d3f44ae9b824efef8bcb871194cf07cc7e4",
    "base/mesir/random_walk/2":
        "a37912fdd45fd7e1e3daf0a094e5a0ad00e84332003f3ceb5a38fbc69730a295",
    "base/mesir/random_walk/3":
        "4bb13e94638668451f44be8eb641b6edc676396b382a4e636acee0ab368b1ac9",
    "base/mesir/upgrade_race/1":
        "67449a23d20d6e2415010ae81087aa461580920014ffff71c48b19fe3d42ff65",
    "base/mesir/upgrade_race/2":
        "547de616b921c0ec44e7d961da12e8d51d22faa0de6ace78e8b656de4728a313",
    "base/mesir/upgrade_race/3":
        "6994c8720679a311504d50a61e855fa813a7dedca16db2a099dd98a8889c10c5",
    "base/mesir/victim_storm/1":
        "39d8a373ab4284ea727df12cef07645dd09c73aacd9176bed26fcbe6ef057b53",
    "base/mesir/victim_storm/2":
        "b955cddc14980ae849bda74dbb8f511f35b8187c675d90c2514ad1d2c6807d4e",
    "base/mesir/victim_storm/3":
        "46298fd95ea73e33c6a581045cbc876e3bb16eea293bca61edf113bf0ed1d8dd",
    "base/mesir/relocation_edge/1":
        "46db6820646ab53dd0d2209942768ce43e0da836149625bf3d6ae51ca1325f11",
    "base/mesir/relocation_edge/2":
        "23c3ae7c4e9947063458afa6f1a792aaf02c83b31c0b4b4be3d68ec558e0052a",
    "base/mesir/relocation_edge/3":
        "2782e3d19f644a0165bbc5d71c975342255b368b9801e2c9b62d4780aa85c958",
    "nc/mesir/random_walk/1":
        "59fcab002b02a52ad5e57c3f3626117d054823a1285f9938d69bf0d98eb8f0e4",
    "nc/mesir/random_walk/2":
        "d51f7ae5f4e7851c7c693fbc4b4c7f81a529f5f9a290741b6642bdc739a90748",
    "nc/mesir/random_walk/3":
        "559e945c652a810716e8644f343af498c4e98753e6adbe5f94c40e3788f173dd",
    "nc/mesir/upgrade_race/1":
        "3cf4a96afab96d81f31a67943b39d841d346390c6dd67f5b4f2bc11c73d70afd",
    "nc/mesir/upgrade_race/2":
        "26844901e378d296569b5587602435cb5eccd8be741c34b4630607c0398486a0",
    "nc/mesir/upgrade_race/3":
        "da5d08364cf78cf74d10be2782c26ba70e02550f7cb966162660068791348ed7",
    "nc/mesir/victim_storm/1":
        "db02e49854b9970403c5cc7796fbd734fe6b10d70732b8c6cdaa821cda720b04",
    "nc/mesir/victim_storm/2":
        "ff2956e8c743564116f69e978383d9977f27a4e0f7c9b504c0e074113890f661",
    "nc/mesir/victim_storm/3":
        "72f0b62aca38e22509cf809734817974a6cd2ae1dd6323890cfab32e8fba075b",
    "nc/mesir/relocation_edge/1":
        "48af59dd0e5c06b2bd38909e56bf1cd1068150a2531b724ea7d8a6561c29bb8d",
    "nc/mesir/relocation_edge/2":
        "a34cd2e4e1522612d980bfb3c089fee5a41fb34290d5abb6b413a16ca0a76274",
    "nc/mesir/relocation_edge/3":
        "9b5cc3d78970b400694318e03c081d2d6ba202011e7927bf6406a1fd149e62ac",
    "ncd/mesir/random_walk/1":
        "55548a1285e8c925a1fe5664edec4d13950bf51f9a6d1122d5eb77e51508a2e3",
    "ncd/mesir/random_walk/2":
        "4463f39ccc6628eefe6c6a3bf55c95f4e5a7802d8905c0d65d653b0fd28bfad1",
    "ncd/mesir/random_walk/3":
        "72b513225b1d5d9de7f005d6fb84acf6c95bf6f8d1cd29cb59d4f310706f9c06",
    "ncd/mesir/upgrade_race/1":
        "926ac30114c457ad07b2c0a06702029032a5a7364b2931c66e57013c8f7da1e7",
    "ncd/mesir/upgrade_race/2":
        "a100c21918e705d0b518d02b4b5b6fd0a0653f5ae94f7cbfce1c5a06f16f0e04",
    "ncd/mesir/upgrade_race/3":
        "ce7a06c98749f789fa61e42659d98e2e611f02a24dc93d55c168a19f81395aab",
    "ncd/mesir/victim_storm/1":
        "92e4a030a31cdfe4353a14f986d3cf056486f37073548b4e651a7385ba04414c",
    "ncd/mesir/victim_storm/2":
        "c8dde0e418942e7c482764d225244a428251e9f72d7eeb9159905a030bd134b3",
    "ncd/mesir/victim_storm/3":
        "a118e31ba4d1051989831f1719ae3b1e3a819a520e6b0231ddddac1d45a356b7",
    "ncd/mesir/relocation_edge/1":
        "6b04fc533973f7812db7ae8ca361ed8a9e32558b03b604c6e8836184194a5493",
    "ncd/mesir/relocation_edge/2":
        "c87e6f37bea66077bc152470a1c8113308aedd1e7ba8b331ad4113b6b7269bdf",
    "ncd/mesir/relocation_edge/3":
        "94c9ae80e1677c3c5bcca6fef4a06b820cbcaa4d6d7f8ed280b5d4cf47549582",
    "ncs/mesir/random_walk/1":
        "ef0042d0a8091857d9c8734a364206358dd66b98459a101e840336c44f3a4d54",
    "ncs/mesir/random_walk/2":
        "28afe2d358aae48700cb901d92e4b03aff5f075379444c35796e98144a4ed36c",
    "ncs/mesir/random_walk/3":
        "a4449f544588d237289133e5c4050087ac7ea39c85d5ef59340c07f22f7f013c",
    "ncs/mesir/upgrade_race/1":
        "f1f351b6449b1fe82de08abd997be2ccf4622e60bdfcfbb5199007aff17ac098",
    "ncs/mesir/upgrade_race/2":
        "fcae0dbb6b9f6f780fc80ddf4442de42ea3b2f26613daf6e99fdb554849108d8",
    "ncs/mesir/upgrade_race/3":
        "3b1ceb4de96e02c76aa1873d4ad749e131b38dbfacc8e81d1f8a06957f291b4e",
    "ncs/mesir/victim_storm/1":
        "cd0601888cdfa0279279223a2880f5eee52f4efb2dde562fcdc344a802fa74e6",
    "ncs/mesir/victim_storm/2":
        "d6f1feeca8c7f42d820c01b259a6885b6f737c76e207a134ec8729b2e54a9962",
    "ncs/mesir/victim_storm/3":
        "8a4bd68af377a7840d32e798c615a255dae578b0a638e9ee674d1b01d362750c",
    "ncs/mesir/relocation_edge/1":
        "b1bcffaa16aeb85ad18a053c200e0000df903a9b08d31e08b11966ad5dfbf823",
    "ncs/mesir/relocation_edge/2":
        "0ab115a4fe21f2b7ce6a288150d52b3175bbf5b9595f03fc57f40e5a273b9a83",
    "ncs/mesir/relocation_edge/3":
        "7e783ee0f36a9dac0337b2c5cc4a69251b32caaa646c0908e1343aa48c2dcf10",
    "vb/mesir/random_walk/1":
        "d6738e9dd8b3da51599bb002bca45a6f5cddbdd17375463e7efd4d1b65e4d7c8",
    "vb/mesir/random_walk/2":
        "808e19611ad4acc7f3cba75c71e2f94655a75d90669a610ccae8ebed58a0d598",
    "vb/mesir/random_walk/3":
        "f33c529ef692c3588d539f28fd18bf6e78073251c0651e87598a3ba6626267d7",
    "vb/mesir/upgrade_race/1":
        "df18889a306755988a0d27e87987d834935229d7ff15b3b77623404abb050371",
    "vb/mesir/upgrade_race/2":
        "1474f4a95e1e5049b44add5aa1bb33b3cb8a75d30987517925b609e508fa4937",
    "vb/mesir/upgrade_race/3":
        "de27bbd98224863e8b2dfb717de0ac4910da7f544c9e3d9ed6254b39ca0a6158",
    "vb/mesir/victim_storm/1":
        "55b826e0992ce5dc6addedc2d228f50e1682eaa600ac83031eaf7b34886be5d4",
    "vb/mesir/victim_storm/2":
        "da54b6e0474e5ad993babdbbbc4a53f2058c1d91d3646d236847b3eebe775829",
    "vb/mesir/victim_storm/3":
        "c8b60cbcffe9d87dc1abde4ef5195651cb638b119349a939b062123f8d925183",
    "vb/mesir/relocation_edge/1":
        "efd3bef1a2b87bf7ec7f02e053d2efbb906780ed359fea1c3f2c1b607020a15b",
    "vb/mesir/relocation_edge/2":
        "dca00c58346af056850de8123ba77865d709d8426035f896b679f0bbeca1ffd8",
    "vb/mesir/relocation_edge/3":
        "a8a3716479b64777e08d42d309ea326e93bced7bd04d264c71a61b8bf2228df9",
    "vp/mesir/random_walk/1":
        "37420e6ff5cdaa6c9e918fe8d99646003ec3b70c16281906bfe691b7c42e0faa",
    "vp/mesir/random_walk/2":
        "62a3b452989306bb82f4c92345c7fd76b23adc2ebec3ccfc0d26ab78237089f1",
    "vp/mesir/random_walk/3":
        "d1d8716184371ec66b6ce8524d1f0a154a9dc8784533c49ac1a48afbf58bc2e2",
    "vp/mesir/upgrade_race/1":
        "95bba2ecf7f21eb06876d0a8b089cd38b59b0e8d8d65678ff25e27d1e1ea8af3",
    "vp/mesir/upgrade_race/2":
        "caca755f8dcf34e132fdd4d3940ac61d16ddbea4455a373b207170417b67a58a",
    "vp/mesir/upgrade_race/3":
        "8eed59921a34d1529f34ecd6dc8dae20d8499c0bb8cc4de988095e3573473943",
    "vp/mesir/victim_storm/1":
        "1ea02bb26273d3419fe271b8673bee58d29c41ef0a5fc1a1a1792b80c3e9498e",
    "vp/mesir/victim_storm/2":
        "ca0ba64193ad7e615c66d718366f294afce0bea228bd62fc811d2b3b6260a08a",
    "vp/mesir/victim_storm/3":
        "96a585c4929191c751a1cb5023d8aa5935aa0de2630b7cc307970e6442839cb9",
    "vp/mesir/relocation_edge/1":
        "590a5a62689654b4e5cd308b1036d7344e0365786d1911e055b3b5b670d5a306",
    "vp/mesir/relocation_edge/2":
        "da1566384dc98e5f16a913639516d7deacb743fbae8be707d9b4af8ba879c508",
    "vp/mesir/relocation_edge/3":
        "aaf03cf7e84b187ed701dcba66437788ee70d38f676689ef2480cafdf6e559d6",
    "p2/mesir/random_walk/1":
        "a5991779c5a14cb1c4c746abf0dc8637ae8a8e34bfc579ec55c3bcee8aea832c",
    "p2/mesir/random_walk/2":
        "6ccfffd2adc9257b6d483b0e470dd3ca54ff9320588b08a3cc99583b35767b4d",
    "p2/mesir/random_walk/3":
        "5948701ad60b32c98e66dd0516d67e0d5450d88ccd7c36b4fc09aaa63bb83557",
    "p2/mesir/upgrade_race/1":
        "f20d28c2ce87ad06e14da30f6dc8b7384813346ce75f7c0d3f17bf451e3c05bc",
    "p2/mesir/upgrade_race/2":
        "6dce114af7522975e541282d68dc11c4613b65019f98508def9c93a836a77cf2",
    "p2/mesir/upgrade_race/3":
        "71e8585143401f377d60f38c99647a437609894892f0c70b51c287d8e798aea9",
    "p2/mesir/victim_storm/1":
        "2ab694469b9865bc645e78d646439e50cd2d9e20967c97621485c6a3689aa559",
    "p2/mesir/victim_storm/2":
        "62a90fb715377d80b09c2e34f2d0fce3a908b1289184b473dba18167326af0b8",
    "p2/mesir/victim_storm/3":
        "64795797901dd6e1dd306aa7d70b0810b3e9e0fb6667794a0b376e2dfc9bb8a5",
    "p2/mesir/relocation_edge/1":
        "f6865a17a5d6d6900d4add6356e93ae4ebd78436b962c093eb78e82195b14a2c",
    "p2/mesir/relocation_edge/2":
        "45f70e59396deb6b7452ebac40f3f1775e5ae098fc036eea1e1924338512884f",
    "p2/mesir/relocation_edge/3":
        "576288033424d7866e937d74fa792dae3fed84148e8f53f47ada3f1d7c2d7e46",
    "vbp2/mesir/random_walk/1":
        "2fd7c15244b117def4e2b28213c9c211510666d02aa6681335fd699be6ec47b7",
    "vbp2/mesir/random_walk/2":
        "40d4d5772f8927fb351591dfee87ffb122badc282bd7376bdbfbccfe21ea7534",
    "vbp2/mesir/random_walk/3":
        "dd04b46d678cfd1005f8c1d207620e98070042ec5929abaa1f13d825e522f353",
    "vbp2/mesir/upgrade_race/1":
        "1d2f42aff732e309d1b434936afcb9291b7d6d3e5b50dd2a044a45cc000c76ea",
    "vbp2/mesir/upgrade_race/2":
        "b7185e7e173a9add9c5bf809cfa76277093bfebcc5d9f00b38510f39988b025f",
    "vbp2/mesir/upgrade_race/3":
        "d0fb67b7a6efa94f4c67a3ac3f61957b25d96162267b6c4376322ec5e6069992",
    "vbp2/mesir/victim_storm/1":
        "39ce2de6fdbcd49783e1976b2ca573009f7613a8043cfda48f2af1ce68253daf",
    "vbp2/mesir/victim_storm/2":
        "0369f499aac43cee8237ccba9ba604c9113cb5c0f8b5cceb7a18f9e070481105",
    "vbp2/mesir/victim_storm/3":
        "394fcf1a13812a22cffc4b9a818c72eef333e3bf43633709b6aa4d801fd73584",
    "vbp2/mesir/relocation_edge/1":
        "50e7cfe854003a38bed5793932b415af4186deb5acc4116fb957e0bfa11b7cf0",
    "vbp2/mesir/relocation_edge/2":
        "05326aa838c3216041b30ee4f50ed22a51f97b0248f9193ecb3b1548fd06f89f",
    "vbp2/mesir/relocation_edge/3":
        "27f061e82d76b6b99dc74a9695807e4875ef6ae7a9464e39693424a00503e09e",
    "vxp2/mesir/random_walk/1":
        "99d72339674e9aa2d659f6f6292a7848b0ccc74f3b5ef273f4a5bd27c919169c",
    "vxp2/mesir/random_walk/2":
        "0db74bc45693d866ec613a7cbce6e99fe7105be42153dc725113be32a3c0a454",
    "vxp2/mesir/random_walk/3":
        "7767b077f28c3e0cbe596169320803658bfe17684bed026bbd98955609591472",
    "vxp2/mesir/upgrade_race/1":
        "1dc528c0e108302f16afdcb0477b8b93cdc94bdc582988ba9ec8da1b69c3fbb8",
    "vxp2/mesir/upgrade_race/2":
        "5ea784679315a4422bee209ea094cf39b5b06003bb189195a6ed51a5c62550cd",
    "vxp2/mesir/upgrade_race/3":
        "5c48a3539fa71c0d3664e2094865c2d6460672af522c6bb191080f3701aed86e",
    "vxp2/mesir/victim_storm/1":
        "cf68ae0e8f197b106c98f0b315a3ec6be6b7909c1abc32ca12aceda0c82fc0f7",
    "vxp2/mesir/victim_storm/2":
        "8ed5fa7a3f8b5db6ce3b0d8bf0a3988cdaefe03890261fecbfc0caaf5c6aed1d",
    "vxp2/mesir/victim_storm/3":
        "b4552f19e21c7bea95b2907bfb37c7487b1b6564391338d8d732edd36719ac09",
    "vxp2/mesir/relocation_edge/1":
        "6aecc2ede25b2df10bb0256a6430d60b40197a68abef624f81f7723617ee283d",
    "vxp2/mesir/relocation_edge/2":
        "03a43b568310ff5e3aad1a3ed184f1b655644baad7742db227c3473ba9462959",
    "vxp2/mesir/relocation_edge/3":
        "451538b44a1d7d9e1308cd9784dc37f65a2e28f8e4d73b8ab25937c332999c68",
    "nc/moesir/random_walk/1":
        "71128dc15d162e4072f94cb6f3ac13eac32b183579de4ecec867a9b348cddd28",
    "nc/moesir/random_walk/2":
        "e00ba7baee6b0461a65e46c79951dfca6500dcf0afee80d58dc4488062af2092",
    "nc/moesir/random_walk/3":
        "c24e40535bca8b124cf555fec77c2c8231e89a3a0f9f8cab0354598977a84ac8",
    "nc/moesir/upgrade_race/1":
        "394c4097c552ad8d263f022e48e44b723d198f46421f3da27d2f92ba6a79425d",
    "nc/moesir/upgrade_race/2":
        "0c78ac85e7c046f9fa1f1e970b64ae3ade8a03bcf8b213df2cfed746d53a4338",
    "nc/moesir/upgrade_race/3":
        "0dc3485c0ca07fe4fda4cf72eada97e7c4bdd24bb5a5a0ee11910ade5e844b34",
    "nc/moesir/victim_storm/1":
        "86ba215f2cc0bf54e64820732c5a98fa601669cddea07f84ff9c084838b6b8da",
    "nc/moesir/victim_storm/2":
        "45551dc5a0dfb44d5849430ad54d61775db8477836c1e9e3e607a2c8a6603e67",
    "nc/moesir/victim_storm/3":
        "353cbf612c67c5492a270cdbf1a4a9fedddedd8b29ad1a263d9fe787f8f03fda",
    "nc/moesir/relocation_edge/1":
        "25d8e6b77c2834fa1273d86962ee1fa0719d5ee4133e237637af33e979520143",
    "nc/moesir/relocation_edge/2":
        "e3babfb62de9c58b3f1ba953bc9e9e8ce247d7d9310aa97a08d2e6422fa49b2d",
    "nc/moesir/relocation_edge/3":
        "b6da1fc8094be8b312f14fde0172f22cd8e35a9ba2f297fd401ee98a571ff870",
    "vb/moesir/random_walk/1":
        "75fba20cdbb842b20ba37cb2ad94068c6d38c1360b5c0e2f43fdd6571f239850",
    "vb/moesir/random_walk/2":
        "36cb0add5712367bed94a578ed8af9043fcb10242bee78801a104c6d36c74eeb",
    "vb/moesir/random_walk/3":
        "7e103f841a2b11501389e9b426b0ddaa90801560c0a0bd372de28d0ff987a053",
    "vb/moesir/upgrade_race/1":
        "3c1ad8033df50e9bfa27874d0b74a9c72325215f421f833b4a9ba48e8eff10f1",
    "vb/moesir/upgrade_race/2":
        "66b0af8144c977b26bcd0eb962c6298837762d7132c064fdfe5401a37c391dea",
    "vb/moesir/upgrade_race/3":
        "bedbff38d486c7df8b9df57abd83b4dbfbf068ef8eb572e1c6b7b6097b601ad4",
    "vb/moesir/victim_storm/1":
        "9fa66ece5a92bbe39d520fd4a5cd7afe8f3ca5db13933987f854449c42136887",
    "vb/moesir/victim_storm/2":
        "da54b6e0474e5ad993babdbbbc4a53f2058c1d91d3646d236847b3eebe775829",
    "vb/moesir/victim_storm/3":
        "0529b5dd2fe91c48b2a80d0d7383dcea25adf71f1a828717055ee6f06c168372",
    "vb/moesir/relocation_edge/1":
        "15fb420b11a88f2ca9cbf4ee35199125ae7720247b97d4ad534a07a301892447",
    "vb/moesir/relocation_edge/2":
        "19f21de02976ca38200761350a33e1e2d503698a00004202bd5e47d3f2fc3b26",
    "vb/moesir/relocation_edge/3":
        "828a6329a537e71c4f75ce133cc7647ee98309570880c9a4f34edddfee8bbcc6",
    "vxp2/moesir/random_walk/1":
        "99d72339674e9aa2d659f6f6292a7848b0ccc74f3b5ef273f4a5bd27c919169c",
    "vxp2/moesir/random_walk/2":
        "0db74bc45693d866ec613a7cbce6e99fe7105be42153dc725113be32a3c0a454",
    "vxp2/moesir/random_walk/3":
        "125632140177e97c78fc7430d9a97ce4184a218bd4b91f67eb394a07f83dad90",
    "vxp2/moesir/upgrade_race/1":
        "a0703b04f7800747e3f797e48799d381aaba57f53ef7078c9ddd828bc3801024",
    "vxp2/moesir/upgrade_race/2":
        "ebd6e9c09ab3444ef8cc0521aa67a1d38371b7ab67311c39e50e9d02303a9713",
    "vxp2/moesir/upgrade_race/3":
        "dfe3ab01c9c1490e5391170db2a142dbb69abe0a99c99b9042baa7efb3fb51ca",
    "vxp2/moesir/victim_storm/1":
        "4316efc0e61a1b7cc8b73223530db9c6817c4b9db93e4ab6b9170ab5455d34fa",
    "vxp2/moesir/victim_storm/2":
        "8ed5fa7a3f8b5db6ce3b0d8bf0a3988cdaefe03890261fecbfc0caaf5c6aed1d",
    "vxp2/moesir/victim_storm/3":
        "b4552f19e21c7bea95b2907bfb37c7487b1b6564391338d8d732edd36719ac09",
    "vxp2/moesir/relocation_edge/1":
        "2bea67567475b906c09a54a09c731c1435c524f86e5589732af550fa50a79886",
    "vxp2/moesir/relocation_edge/2":
        "972e84f281b466513d337d5f63af9b89e98630e60548f56b24e1eaf237386c43",
    "vxp2/moesir/relocation_edge/3":
        "606ba44e24f0718c7c36361d758b6e6f16169283ba92fed13f58d7b8dd1c0e92",
}


if __name__ == "__main__":
    print("PINNED = {")
    for case in CASES:
        print(f'    "{_case_id(*case)}":\n        "{run_case(*case)[0]}",')
    print("}")
