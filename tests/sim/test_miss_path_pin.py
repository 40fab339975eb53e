"""Pin the miss path's observable behaviour, per NC organisation.

Every case replays one fuzzer trace through ``Simulator.run`` on the
model checker's tiny machine with an :class:`EventTracer` and a
:class:`StallProfiler` attached, and hashes four things: the counters,
the full event stream (order and details included), the final machine
state and the profiler snapshot.  The expected digests were computed
before the miss path was specialised per organisation, so any change to
what the miss path does, emits or attributes, including the order of two
events, fails here.  They were regenerated once since, when the profiler
snapshot lost its stall histograms: with the snapshot's ``histograms``
section left out, all 144 digests were unchanged.

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


#: digests of the pre-specialisation miss path (profile histograms since removed)
PINNED = {
    "base/mesir/random_walk/1":
        "40aa39e010f08d88dce9272f269066a35a5559c5fadc4ba4523b611caaa9c652",
    "base/mesir/random_walk/2":
        "66b2618af5bbefb4379916a49b1b13d27c383ddbf9ce7c0bac52e9951993dc05",
    "base/mesir/random_walk/3":
        "940f79656d2d08e693e3d0377e3ea6a3e1d81075fa1a41fd2ac5a6594004ba2a",
    "base/mesir/upgrade_race/1":
        "b251951702597ba83808d111e2f3d6ce5dbd12451f0eac43f4315b912d5bd7af",
    "base/mesir/upgrade_race/2":
        "fb25cc29204b85dd7b463f551e9ec7e5acf6b24ac59f2ecf65a9a39cbb46f478",
    "base/mesir/upgrade_race/3":
        "a346686d9fc608e48dde79eb86291ef2a47894ef4b785bdd6c0058abb5ea93f7",
    "base/mesir/victim_storm/1":
        "8b446ed0cd0a1c8bb411ec5e711fd034c869d58c60dae387f48a1198f8393242",
    "base/mesir/victim_storm/2":
        "bb629fdb6640d2f374c14fa35bc79baf1236f43b16dba981cd60156afd0f5b30",
    "base/mesir/victim_storm/3":
        "bcb0f5bcd7ce6b0efbb7047462b7422309119c534c1d06051d9659185fcdda19",
    "base/mesir/relocation_edge/1":
        "d721fe258c76b52284ba175c2f3acd05179a79f0ef0877da937281f84cfbecdc",
    "base/mesir/relocation_edge/2":
        "79d1f93b9320091e0bf4f8282d7d523b149e86d62e1456f0ff1472dbd83425b8",
    "base/mesir/relocation_edge/3":
        "acf594e3c6f75b23ed644cf301f42eb450c292ca7f884463820c39e7634c9613",
    "nc/mesir/random_walk/1":
        "eff481706aebbea03e8f5122732c53da1060a78bd1b317c648da7cf31e49c12d",
    "nc/mesir/random_walk/2":
        "1243458c189f53640d4375e92c96038d2eacbb30ee01b6bb3d2d1b85f8561510",
    "nc/mesir/random_walk/3":
        "aa94aac637b61a643bfaf0d4f95d7a9f983158c4bec7e5ebc4f448408908fbf7",
    "nc/mesir/upgrade_race/1":
        "6e7a3892b0e5b8a461d94b5327c60cd4c3824ce494c5abfb1494af20ada2ef92",
    "nc/mesir/upgrade_race/2":
        "6cf578969c5f5eadb33bef909a10b47fbb2ba5ad5990b7b80b5db0d22d700fd2",
    "nc/mesir/upgrade_race/3":
        "8c43a86e610b266e56f669ad11413c37e33af97a7b9c3b1c8f1633fd5f073768",
    "nc/mesir/victim_storm/1":
        "ec3a404ca4ade09ad81a2323b17099cc7985979f8f2e198dea12915b7bfe8248",
    "nc/mesir/victim_storm/2":
        "c57d95536d641bad3b234968237651445d9ec39372e8dc1066334e3d03c77569",
    "nc/mesir/victim_storm/3":
        "309bd6814b5fc28098ff2a5a5b2626c18b93fa7676ca335761e8ff720f4866c2",
    "nc/mesir/relocation_edge/1":
        "b1eae140ac944a3d9a1ec15505ce35c3f74c00d864f07ad8c14173f2d2cf18ab",
    "nc/mesir/relocation_edge/2":
        "dce165063df7b5d8c9b16f6aae0f7c8e8260fd0cdb44008be61d8a5ff2f1ec24",
    "nc/mesir/relocation_edge/3":
        "6e3054982bbda1d5d23e9ed8c40881d9868a3a6d0ee99507131e4759ca3a1a8a",
    "ncd/mesir/random_walk/1":
        "1079559a430fe2b56c95bcfbbd49d1a804ef0149b959f6dd58f6dae1af653bb3",
    "ncd/mesir/random_walk/2":
        "177db926072c6d686477bc29c618808f83dcdc876bcac4b775065696a3544e96",
    "ncd/mesir/random_walk/3":
        "bca8191970133ef00a53a915b1750e4b39af474524c01029c8a03a65d5dcfcac",
    "ncd/mesir/upgrade_race/1":
        "da896db761e777bb6bacf234fb1c91929c67c28754021ea8ba82d7a0fa254a7a",
    "ncd/mesir/upgrade_race/2":
        "ec0502000493cf4ebab357473fc1b11dfea8a206cfeebeac96b5cd22f40c541a",
    "ncd/mesir/upgrade_race/3":
        "002603ab4ab3d0c614a2ba2ed20967077c215deb60ddca897503035b102dc021",
    "ncd/mesir/victim_storm/1":
        "e047f0264e7f20e8fa6ac4c3f4545d4b4b59ef9c462c500a3dc5ab5078f4cba3",
    "ncd/mesir/victim_storm/2":
        "afbab89904d2179fa1b80196833ea67ecb4a1a34f6ee3d151f4ae8baba6bc1f8",
    "ncd/mesir/victim_storm/3":
        "dd552ea6f74e1cf71535bb3252f9ead8e2ee9699b2af9904daeac10d9c1f77da",
    "ncd/mesir/relocation_edge/1":
        "2313f769bc6700eef4ba93726ed21508d6877462672e7744a4e1a826a0b0cd63",
    "ncd/mesir/relocation_edge/2":
        "79f4c5aac0018446cac4b174e92c22e42a94b3a6dc8e32c034c3519c6e9d4247",
    "ncd/mesir/relocation_edge/3":
        "6e7c0535b2f14a8a3d618c969337458a496c4f3b106dfafd746c90e41f2fd25a",
    "ncs/mesir/random_walk/1":
        "a728ae9c773bbbaec21ad350760e66132524f27bd2ab9e0e6214eabf4ae291a2",
    "ncs/mesir/random_walk/2":
        "79a99bd0ab49cf703c81e7c6ed6d85cb4abadd4f2cd9e6badc9facae92bb52e5",
    "ncs/mesir/random_walk/3":
        "9099d4cf17788dcc92db65a4a37f7fce270021b6682816ef8a97bbc25a128169",
    "ncs/mesir/upgrade_race/1":
        "80c727562ee46159cc0a4bd677443cfcac543c4de3269799a8776a6badf6658c",
    "ncs/mesir/upgrade_race/2":
        "02c1e5d07bb8659393006454e54728607dccf99259ac1eb2d996657a5aafed3e",
    "ncs/mesir/upgrade_race/3":
        "4be6eabfa0c822f95d22539a94190b640f6b4784a693c505a9d0abe24e856cb8",
    "ncs/mesir/victim_storm/1":
        "bda1518bc4300f3d65207891b907c26280771b32c5300dab2fbebc0d9a2c5dfb",
    "ncs/mesir/victim_storm/2":
        "8f89e82256e4ee8332b078b77c9b39ee20b63c9384de9ac118b450b02c49abec",
    "ncs/mesir/victim_storm/3":
        "695781b90503ba09ccf900b44925498e56dfa9d11863c05f5dc8db8bae7b6c8e",
    "ncs/mesir/relocation_edge/1":
        "c52947142cec7f6e96f496cfe30a26051b6221c17eb4135d7ecb59d21382c07f",
    "ncs/mesir/relocation_edge/2":
        "b54ae40f86921ff62131bfd6c66464cf1de553ae3d0473417d251a9713950eba",
    "ncs/mesir/relocation_edge/3":
        "62af1d2c68f0b981dc1721c5f4859aefbb40cfc8e6227ec710c5e780f42ab622",
    "vb/mesir/random_walk/1":
        "4cd85f17d58f27d1498d305390f53e2a09fc2d89066df1bf9867901f3e84e899",
    "vb/mesir/random_walk/2":
        "3a849c09fa3b3bb646f0a6ef00162976c7504f05ecb459bb115908b6f959c0da",
    "vb/mesir/random_walk/3":
        "8ef38ff65a5779180769b303c0a50a0bbb4ba8551774df594c0bd8224f12dac0",
    "vb/mesir/upgrade_race/1":
        "717994e2f0955e904301504021b33462365ddf0b7b71b276caa1e7e871326906",
    "vb/mesir/upgrade_race/2":
        "ec0903a0eb07d3138e40793ac5cf9582f4c1bdae45a37b3d87b7c888e6c4e43b",
    "vb/mesir/upgrade_race/3":
        "fe5b13d0313b8bec4d396d01ab2deab575a234fea601a2cbafce49aa6fd5535c",
    "vb/mesir/victim_storm/1":
        "f516378771e77df3bdcd8f79e06dc0764331c790ec61efc7b0297fc3ebe90375",
    "vb/mesir/victim_storm/2":
        "bb3bed199c6a594abae62b91efe64562bb21b4b9753db532d7938f9622cfe673",
    "vb/mesir/victim_storm/3":
        "4a241ff3f3ce21251ebb37bee6572b4cf0052c8692748f71f6e20db7ba0b577f",
    "vb/mesir/relocation_edge/1":
        "e372f39157a282495fc6d8dd3c51d4f4003d6702cfba0d3bf8b9524729ae6f3b",
    "vb/mesir/relocation_edge/2":
        "87e988f5cd7d2b486d178089c7e76c4465be9bc4ae8ba154d9832591785a806b",
    "vb/mesir/relocation_edge/3":
        "a88105c6dc90cd516f573b3a1a2ee78ae499446f86f82d93aec28630a2788dbe",
    "vp/mesir/random_walk/1":
        "18c46b79fe3bc2c569a1ff70f594224c23bb6ae4564c70c4dfdc0433aba74069",
    "vp/mesir/random_walk/2":
        "1dd425f4503c2c8b86533758c85e068a7f4adccd4a699c57e14198dfb5bc3973",
    "vp/mesir/random_walk/3":
        "2e32009b4bfb7eb035dfcc231e6bbac4919342b349c07c59c79c6876689f1380",
    "vp/mesir/upgrade_race/1":
        "c48421782c4a94f1fd821132af14b3900bd294d99d3ee08fd4d27126e6381eac",
    "vp/mesir/upgrade_race/2":
        "b8846fc147f5acfb94487796e3e9c424cce1d4b9817795cc05c75ce258aa0edb",
    "vp/mesir/upgrade_race/3":
        "b2a58ded806eafe6f2ee0c264e18ac4c2675f41b589276a3cd36c61ca0e4ebd7",
    "vp/mesir/victim_storm/1":
        "4e551b5f0d323a313495f1d6c5d1bc50e3aaf1142b8a4844a28dd3c43874bb34",
    "vp/mesir/victim_storm/2":
        "0da12a7b446bcdbea3658ee4d3191d03dfdacf10627ffd74d4559504b729ded5",
    "vp/mesir/victim_storm/3":
        "38378afde04bc5ef0e19535ec8be1ad9a0994e956b02f7befb77a182ff9f50e6",
    "vp/mesir/relocation_edge/1":
        "d6ec52a5c03d789cb5279f7c790fcccdfe3f24d8839391e02961e9e0076675cd",
    "vp/mesir/relocation_edge/2":
        "cddb2258dc915b90e3c8428e18555ed6d79d7b8671c3133e8b3397d710960591",
    "vp/mesir/relocation_edge/3":
        "c2105e4567a166fe2ef89d26a45f29f16cdd62df0c7779cfac22fc79eb6a8796",
    "p2/mesir/random_walk/1":
        "80432a0035c2061c4ee9b3fcbbd031e7f551a41f4d07af5f78d8ffe6837c1044",
    "p2/mesir/random_walk/2":
        "9da5bebfbea622bd892ed4385d5f5fc3229a80b49d9b0b49b0f3a5ad81ab75d4",
    "p2/mesir/random_walk/3":
        "34150671e935cad4f3495128e06f894c53d9478e10e820781c0d0537ddd011f2",
    "p2/mesir/upgrade_race/1":
        "97edcc607ee4a687b91ea6ca75d70982fdaa3b4e2b2014717ed0b5ede8e13359",
    "p2/mesir/upgrade_race/2":
        "49f2e0b9e7988624c8b7980004c629c005ebda9aeebd5363ed7ffe14ff880ed7",
    "p2/mesir/upgrade_race/3":
        "ebfd8bd1d0d49d452b2236222a8e542f08fcaccae8ac6a193455e307bf2642f2",
    "p2/mesir/victim_storm/1":
        "c44a49a6b83a2642f4cb2ef5d45ad8ab83b01649056ed4b16605d663579fbb58",
    "p2/mesir/victim_storm/2":
        "5d5e151e6c6b15fffc43b43075eb4518e3390d54dc62d598351fbb3950820ef8",
    "p2/mesir/victim_storm/3":
        "f5d3fedeb7bc1b6e0d18165ee06e21961c53c703fadf01b6d3ac4d5d5cc74077",
    "p2/mesir/relocation_edge/1":
        "bd8be37a584ff65d963c7e6e8d523578b49b3b64fa636171320c505ce1a9fcad",
    "p2/mesir/relocation_edge/2":
        "c6456b68f34aad20bd37ce73655c5ef6709eb675963823875ff260aeba7282d7",
    "p2/mesir/relocation_edge/3":
        "d74985a00ab4625eb0b4e3e0fea769947145958918ea9b3189fb7824f1e8d726",
    "vbp2/mesir/random_walk/1":
        "aab06c98f4a3eb050aa0a3dcacacbf113ba00a252a4041701604f81c8017e09b",
    "vbp2/mesir/random_walk/2":
        "37bd7c83b1f72fbb57ded7d414c819c2366bcd4296f3124471dc205cc8f0c37c",
    "vbp2/mesir/random_walk/3":
        "a6aec24a163425157b35d989b1170a6e91cd82d64adfdc296e1f52fd9cb8ddb6",
    "vbp2/mesir/upgrade_race/1":
        "1081a4324c96d0024b759eeecdc2b706676ceb40bd094b3cf3fbf53f70a1ac8f",
    "vbp2/mesir/upgrade_race/2":
        "1e263d8ba83afd16b7bd503f9bb0d2317d559f911c14fca5314e46df86f3adc8",
    "vbp2/mesir/upgrade_race/3":
        "3b482708216ff6b46a2bcb415c797cadf7ca13f268dbba55349678ff1dc4f730",
    "vbp2/mesir/victim_storm/1":
        "3320f0b34af014506f60a896ecf14b7e47a92a0f6ba91765dda517ddb1389bf9",
    "vbp2/mesir/victim_storm/2":
        "6112571cb6bb3d99995d9250a11dd0b177cfa5a86c605884b7872decb9c3b380",
    "vbp2/mesir/victim_storm/3":
        "87af2a54782a1e247206c1ca2d4faddf0e76079b7c8e47673b31be655f1e92c6",
    "vbp2/mesir/relocation_edge/1":
        "e37b62929fa14cb6e7ce9c2a250eac22098e168d861f459eb1c8ca44b15d163b",
    "vbp2/mesir/relocation_edge/2":
        "1b80826ee872d4affb403a22902d011148a1a178c72361fc7665f16154031df5",
    "vbp2/mesir/relocation_edge/3":
        "671aef1355825914b33921410f7f14652453dc899724b9ab2cc91edb41cd3761",
    "vxp2/mesir/random_walk/1":
        "e5a6765103a96fc29f3928bf17eb00b909166b3546b958f1e6069d056349003b",
    "vxp2/mesir/random_walk/2":
        "5482a6d1c84e943a992c144f1bde02364cf50b160fa9613eaaa49ecaa6ee58bd",
    "vxp2/mesir/random_walk/3":
        "069dfed8aeec7b24221cae2c9842ed945ca99ded73bdcfc946717f9df163a982",
    "vxp2/mesir/upgrade_race/1":
        "9c4b8afbddd930932e95e4a1cf061f82544ae4f1386e3910c84ed13bc1132199",
    "vxp2/mesir/upgrade_race/2":
        "463cce1bbd9e90fc4533535100d981c1ef6ec19840eabd2e588913d9d81fae78",
    "vxp2/mesir/upgrade_race/3":
        "e0a25f8df125401fd405b2e903079124783ffa03e07157f3a7c39eb6f329b3aa",
    "vxp2/mesir/victim_storm/1":
        "d6ade8174786ab722d75877e6c511c492024b940c7657d88ce25e37dac1121b5",
    "vxp2/mesir/victim_storm/2":
        "e21f0e7b09987084cd31758e3aade52c214f10ed51964941bb442c8a6d73f1f9",
    "vxp2/mesir/victim_storm/3":
        "f0a336c7273575124d28bfaca302ceab46cfc3900bc6448f0a0b6f6fd8a1efe2",
    "vxp2/mesir/relocation_edge/1":
        "3195734f537e7644270dccbddf894388f563e1dde3e233fc253a88e86e55d88e",
    "vxp2/mesir/relocation_edge/2":
        "a6312e00c0f9b0bbf26bdd0555d170a3be46c65ce8823870ab64ff262df9963c",
    "vxp2/mesir/relocation_edge/3":
        "a4e03e3b2ac427e6d249ad9121e5e24c6eb2e53e98c67fef98327ab2f4865a18",
    "nc/moesir/random_walk/1":
        "2e08b3b50c9b0fc14ec5ddd946d00c024415de695c36b7cf0d8fc2a7fdd30fca",
    "nc/moesir/random_walk/2":
        "b6dba676b1e49be3ab053c7c84dfc7463e1a268f5ab498a9a91c3a4e58ec2231",
    "nc/moesir/random_walk/3":
        "fce86f610ca418214c8a0105d7a7bce76c4e4f0fd274385231da0e361d430b41",
    "nc/moesir/upgrade_race/1":
        "89079f27de035f3e9818eac9d6b5ee96231d07941d1b0e26d51ca0b628c924dd",
    "nc/moesir/upgrade_race/2":
        "3b41ed194d631ee8918326ac3659ce4bf112a83c156217b1ef8e3c78bfb97b4b",
    "nc/moesir/upgrade_race/3":
        "b5657a7277e9e9672a86429b84fcf6f7ef669ff435dfe7b6da3c555262cc1735",
    "nc/moesir/victim_storm/1":
        "f39f084a88c4b18f1c508401d6fd07b1475e3bd8c427986da56d20c8b8b98768",
    "nc/moesir/victim_storm/2":
        "574068696d6f8979b133069229739034e18a1883bd73971210471fdf0fc7f3b0",
    "nc/moesir/victim_storm/3":
        "e55da21d26c5dae3af311f7081c23aa3c17c939c7100c0558e40fd64fbe9ccd7",
    "nc/moesir/relocation_edge/1":
        "a9f835b76c1b1668f3c866729087307a6c0971c77103b023c5248970fb1b7b65",
    "nc/moesir/relocation_edge/2":
        "5fca0a9550e40a0a2f3f5ef7bf1ab7e761158fc28140fd2aa93d9792edbe150c",
    "nc/moesir/relocation_edge/3":
        "da61c2cd3199750d0d0e585e9e7c2534cc43c22ed3fbbdbc74397ba7055d1aba",
    "vb/moesir/random_walk/1":
        "68773201056a48595b7b109d5c813fc5a1187d7b20b761d9687877bbc918388d",
    "vb/moesir/random_walk/2":
        "345bc081bb95098b11c928b8413bb9f856cec99eddbb9a8f6cba8d9e0e99d47a",
    "vb/moesir/random_walk/3":
        "78590792affbf3164ef061813d5af10c6e9764730b66c7ab8e7e54e3bbb8a505",
    "vb/moesir/upgrade_race/1":
        "0ace11384d86d2030ac5aa0220817333aebc075176366a292522a25e634c020d",
    "vb/moesir/upgrade_race/2":
        "2b1ff31f0e7ed694833f23757cdd87daf52234fe7a891205b0e0170e7751808b",
    "vb/moesir/upgrade_race/3":
        "92d5b266c91dfae47723068d19e4dfa3aadfa274ef2476b329be1d0e972153a3",
    "vb/moesir/victim_storm/1":
        "4d229e63b2dc69149d838d907096680088588fc511011beaec0059f5f6e9d53b",
    "vb/moesir/victim_storm/2":
        "bb3bed199c6a594abae62b91efe64562bb21b4b9753db532d7938f9622cfe673",
    "vb/moesir/victim_storm/3":
        "f7217ebe400bc06d3f16966f07ce6d5676c4676a5f1a499e80af060bf5713761",
    "vb/moesir/relocation_edge/1":
        "6bda90ed1430d2cf4af50fe86c114ba9bcdc3585d49e3465abbde73eb16fac89",
    "vb/moesir/relocation_edge/2":
        "c1fee5b6f9407fbcd772e14216457e00e3622865b4ef5afd1dc78b314ab5f116",
    "vb/moesir/relocation_edge/3":
        "af28245f63d2edd6b21a641c5df75117f2f052aec265abb1be5e7943651f5451",
    "vxp2/moesir/random_walk/1":
        "e5a6765103a96fc29f3928bf17eb00b909166b3546b958f1e6069d056349003b",
    "vxp2/moesir/random_walk/2":
        "5482a6d1c84e943a992c144f1bde02364cf50b160fa9613eaaa49ecaa6ee58bd",
    "vxp2/moesir/random_walk/3":
        "3ca24e3b97703ec4f407fc8b8ca819d8f492e07ef3e41f147d98315559b56223",
    "vxp2/moesir/upgrade_race/1":
        "5ead0a4729b3589813fcc6879d5c3f21b67178257ad1343ee5495b7fc6371c50",
    "vxp2/moesir/upgrade_race/2":
        "a5a689ade91d5eb5eb8f486e2d0de98f9692cdc58b4fe372e7c1eeec142e3338",
    "vxp2/moesir/upgrade_race/3":
        "9f437751d9082c65b12b4b74f6f9576fe968db152588d7ca21df47a43fcb9f64",
    "vxp2/moesir/victim_storm/1":
        "d6990231c4a5ee70c55af0ffe5f4afd865f64bf1c24e9b79113087019b374e59",
    "vxp2/moesir/victim_storm/2":
        "e21f0e7b09987084cd31758e3aade52c214f10ed51964941bb442c8a6d73f1f9",
    "vxp2/moesir/victim_storm/3":
        "f0a336c7273575124d28bfaca302ceab46cfc3900bc6448f0a0b6f6fd8a1efe2",
    "vxp2/moesir/relocation_edge/1":
        "f7996bef5d2f9d26727e0d6412018ef4c670715ab155c28bf4763455eb008f72",
    "vxp2/moesir/relocation_edge/2":
        "47dbfef96872fff3506cf7bb3939fcaf595221fb3c0942a4b75edcaf8ed6a1a4",
    "vxp2/moesir/relocation_edge/3":
        "3f9de359ecc5ae8989285b819e3c43f893077fa03fc31a2bdc859ee9eb3faeaf",
}


if __name__ == "__main__":
    print("PINNED = {")
    for case in CASES:
        print(f'    "{_case_id(*case)}":\n        "{run_case(*case)[0]}",')
    print("}")
