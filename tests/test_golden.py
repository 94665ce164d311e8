"""Golden run directories: every byte-stable file of ten CLI runs.

The SHA-256 of each file a run writes, except the timing-bearing
report.txt files, was recorded before the dense distance matrix was
replaced by the sparse proximity index (the centralized and decentralized
runs before those two planners shared their round-robin loop; the ablate,
sweep-rounds and failed-seed runs before the CLI's commands shared one
seed runner), so a refactor that changes any plan, transcript or metric
byte fails here.
The failed-seed runs replay a scripted tape: in "plan-failed-seed" the
second seed's plan reply is unusable and its repair finds the tape
exhausted; in "simulate-every-seed-failed" the tape is empty. The runs
happen in a temporary working directory with relative input paths, so
config.snapshot.json and the run id do not depend on where the suite runs.
The "irregular" run is the only one whose areas are not rectangles: it
pins the distance kernel deciding the index's pairs, synthesis's
containment test on polygons, and greedy repair on those classes.

The hashes hold for the recording platform (x86-64, numpy GOLDEN_NUMPY):
they pin floating-point output with repr, and a different numpy build may
round a last bit differently, so a mismatch names both numpy versions.
"""
import hashlib
import json
import os
import random
import shutil

import numpy as np
import pytest

from participlan.cli import main
from participlan.fixtures import data_path
from participlan.llm import (RuleBackend, render_initial_plan_prompt,
                            request_digest)
from participlan.region import load_region

INPUTS = ("--region", "hlg_like.region.json",
          "--demographics", "hlg_like.demographics.json")

RUNS = {
    "simulate": ["simulate", *INPUTS, "--backend", "rule", "--method", "llm",
                 "--seeds", "101,202", "--rounds", "3", "--speakers", "50"],
    "local-search": ["plan", *INPUTS, "--method", "local-search",
                     "--seeds", "101,202"],
    "gsca": ["plan", *INPUTS, "--method", "gsca", "--seeds", "101,202"],
    "centralized": ["plan", *INPUTS, "--method", "centralized",
                    "--seeds", "101,202"],
    "decentralized": ["plan", *INPUTS, "--method", "decentralized",
                      "--seeds", "101,202"],
    "ablate": ["ablate", *INPUTS, "--mode", "single-planner",
               "--method", "gsca", "--seeds", "101,202"],
    "sweep-rounds": ["sweep-rounds", *INPUTS, "--rounds-list", "1,2",
                     "--speakers", "5", "--seeds", "101", "--method", "random"],
    "plan-failed-seed": ["plan", *INPUTS, "--method", "llm",
                         "--backend", "scripted", "--transcript", "tape.json",
                         "--seeds", "101,202"],
    "simulate-every-seed-failed": ["simulate", *INPUTS, "--method", "random",
                                   "--backend", "scripted",
                                   "--transcript", "tape.json",
                                   "--seeds", "101,202"],
    "irregular": ["simulate", "--region", "irregular.region.json",
                  "--demographics", "hlg_like.demographics.json",
                  "--backend", "rule", "--method", "local-search",
                  "--search-iters", "200", "--seeds", "101,202",
                  "--rounds", "2", "--speakers", "20"],
}

#: Exit status of the runs that do not return 0.
EXIT = {"simulate-every-seed-failed": 1}

GOLDEN_NUMPY = "2.4.6"

GOLDEN = {
    "ablate": {
        "aggregate.json":
            "12dcfa48ebc7a0853e5700fdd6914b6ed6fda399d8a378c10f5ac02d824661a8",
        "config.snapshot.json":
            "49d06285d9bc46664c7a0bdc6c93a6ecea4e028d38592e1767526d6376933a37",
        "metrics.csv":
            "1a08e60d78d824d0729429fc146e2e5c34630ed1c0a2265ae7f6a38df1090a18",
        "plans/seed101.final.json":
            "5097d0f52f1ec7d0c8fde4468c3df2b97dba471d5752e057ec37e0d66c33a2bf",
        "plans/seed101.initial.json":
            "7b6c2786112c84104a2327818b282cd602c8570ecf93df6f5aafddf206fd83a7",
        "plans/seed202.final.json":
            "1e8bfdcbfe2e876f21c1e4de643bda27074f76eb22ffe711f7a553918e9eeffd",
        "plans/seed202.initial.json":
            "1fc93fba688ced8982f80af4af128f1519f1bc2b5c89548291dab0863350e014",
        "trajectory.csv":
            "0043edeb8d045975457d5ca2df5a6203dc34c380d34db0c177716ee196bcd259",
    },
    "plan-failed-seed": {
        "aggregate.json":
            "086864f40a86bc811f00e628513cb5ac307c5b8c660c1a05da3c89ae9cbc11fd",
        "config.snapshot.json":
            "625a462277c0bb9a0c50e97b06e3776735801718757a3391b5e8f00d6900c92b",
        "metrics.csv":
            "e50fb43c9e05962bcf25d9c42dc213538957ec3353d3dbc6fffbc8a8f5e43c79",
        "plans/seed101.json":
            "0c6f135366edcd6af568f3dedd41db333849d1820b57ab6daaea80739910cde8",
    },
    "simulate-every-seed-failed": {
        "aggregate.json":
            "8a7dd1d30402fa8b9723e9c44557201260d6b04d3c3f0f19105a91a7eb299a08",
        "config.snapshot.json":
            "d0199361ffbc10d5ab2089038007b90e9ad2b7c2c43545807aedd3922a00ce62",
        "metrics.csv":
            "e7938e790be63bde2e856972da9088b42f2d1b7d7eef4ceb1f6e20584973224b",
        "trajectory.csv":
            "2feb0ebdaf24298d0e141a42e95364941fd5834d774a5b0302c5db0b4f5da262",
    },
    "sweep-rounds": {
        "rounds1/aggregate.json":
            "9b562cc72b86be8bf1f98a8704a8c98906385d825b7dd9622d675d4038d32f67",
        "rounds1/config.snapshot.json":
            "7144dc759b8911e363c0aeb64ad3a742e1c54497bd32dc9a6a0832c75c27e0e5",
        "rounds1/metrics.csv":
            "0b42f3520b951772f73bd633c4bd568b001e9a2e6a53ff94884d3c96270edb3b",
        "rounds1/plans/seed101.final.json":
            "4ef25e56cd1d83297f37e2fe860bb78b99c36f997ec003c6046ca0dafeee4f02",
        "rounds1/plans/seed101.initial.json":
            "0a2b4a8d5c5d1aca6648303731e857e126044ea95edb0ec66c591f52d18253bc",
        "rounds1/trajectory.csv":
            "8fdc6c04e8d230bd904edcd3e88dcf2234b340c1dad3b170927a3d199d77b79c",
        "rounds1/transcripts/seed101.community1.json":
            "5901af43503dbfb867c3a3a7de900c823789dfc27b31679cb4161c5546fe02e4",
        "rounds1/transcripts/seed101.community1.txt":
            "4cba7229c33d228339a579b8e6ff2523303898efa51112e65643d36a39721392",
        "rounds1/transcripts/seed101.community2.json":
            "0e5e66c25ad9fbe35ca854f3550d1e62a0100b122b3ffbd0d8e2305aa47354b4",
        "rounds1/transcripts/seed101.community2.txt":
            "6019c61e37e523660c4506d41691a78a55db5a710e654759f960ba0ec456ea8b",
        "rounds1/transcripts/seed101.community3.json":
            "b8a71bb97911a76f128488a80529303f45ca2157d68328545a8a532750aaa0f7",
        "rounds1/transcripts/seed101.community3.txt":
            "257fabc3c48ac535ddc131fd532ca835cef63bdce026427720827ce4101d63cc",
        "rounds1/transcripts/seed101.community4.json":
            "9982ca1b37df9aec209e639be165d30add962ac2f2e16aedc0a52895375fe668",
        "rounds1/transcripts/seed101.community4.txt":
            "a45173e01cd1787d8629564aa58e6458f05d6c7c902b6dbfacdef0e5ae8f1360",
        "rounds2/aggregate.json":
            "23a6a9e03836a5363725e8e8a864c3c320776e462b7b7a8339b824b28b26365b",
        "rounds2/config.snapshot.json":
            "3b4f0be529a4159987df88c718b12937dcba773d7b225cf75a5aaf2dc110f6c4",
        "rounds2/metrics.csv":
            "ef4b249b732b1a302b89af7192279f1903684d8a6ef36df228f8b185e41a54be",
        "rounds2/plans/seed101.final.json":
            "99f1ab841da7e35b546233d4dc0e5063ffbbdb9434e7986f905c8a9a224fefa5",
        "rounds2/plans/seed101.initial.json":
            "4778dea9ab498edb58b037876478b4d4e5841f2110253f7f4b78eb3c225a67da",
        "rounds2/trajectory.csv":
            "f0379e554989240f3a6afc7c3d4ea81e51189ce2cf513ecca140195d441abdea",
        "rounds2/transcripts/seed101.community1.json":
            "911ac1081a37d5b4aefe2a8f20cb1efa9e36fcea639a0ff2829b1a56301d111d",
        "rounds2/transcripts/seed101.community1.txt":
            "8705a9a47f59fe93b802ac4242a5e9b1e2e3738d5c3770f0df66adfa33bf99f2",
        "rounds2/transcripts/seed101.community2.json":
            "b9fbeacd8bfed4b6cbfdd6a6702d64485331fd81aeacf956f5c80b171402f049",
        "rounds2/transcripts/seed101.community2.txt":
            "eae5f12df663ae7862b1a3c1b9570656fb1d674c5799cef1024f30b6f97604d1",
        "rounds2/transcripts/seed101.community3.json":
            "3da5b76d1d55e07993ed1338ff515c9375d31ce87a9755efcc86cada6c601c8d",
        "rounds2/transcripts/seed101.community3.txt":
            "851066e5f99e934681d2e54de48395ba359e4712014d0abe491a656bc1a29676",
        "rounds2/transcripts/seed101.community4.json":
            "71151fd0fe56db0c5cc3da5daf7e4649e0e63809c4462fcadf9f535e7972c4f3",
        "rounds2/transcripts/seed101.community4.txt":
            "58b5e17d24f2db1e6835c71b9650bb07cc6f909ad8dd498249803cb3db352fa7",
        "sweep.csv":
            "6e6f947661e9ce595bf6a28116461ba895d824f2224994ff02892f5b3046415b",
    },
    "centralized": {
        "aggregate.json":
            "1fa454f83d1ecdc6607f882946fbef81c547a33f77206dca6187b530d7f86ca2",
        "config.snapshot.json":
            "3a26ea6cad3d693f4bd33486cbd3618a49a6755f1ddb6069bffe59d7b8c537a2",
        "metrics.csv":
            "8ff9e7a631aba2311d1489960de616b423fc253896a1eba128d679dfa4d22747",
        "plans/seed101.json":
            "87841c52cdaf1374648ac2ecdc2f1e795d794e436a5d0159cf0a1eeebed87f55",
        "plans/seed202.json":
            "9f456f40abeec9e5c1758806b86944e8cba0fbad7d0bbbd8029423e97b5d53ea",
    },
    "decentralized": {
        "aggregate.json":
            "7b50bc3ac6ac4ac2041343d373f45b56053d85db6d3e2c38d1217ce64a214335",
        "config.snapshot.json":
            "6d73342219cb40103c02c21144d740c77cdf4db87f1b0c3bb3ec78355f257e54",
        "metrics.csv":
            "495b3c3b462f1e81ef972090ddedd6cc6238d9f8fdb139c67db6f3c63966a658",
        "plans/seed101.json":
            "fd6e21717ae00bee463e2fdd39ff27a9a5dc1048fdb564a6e3d2e70c41141df4",
        "plans/seed202.json":
            "acf876f0bfacf839cb29641db62ead30950e8882a865c7d68ce6da62f9163b0e",
    },
    "gsca": {
        "aggregate.json":
            "befbb212ec44d7e3b1947249f63b0164ad0f398f69ac710311da1d252c1f12df",
        "config.snapshot.json":
            "9cff2f7b49c7e12b69fcab45d29ac374b9534d4352d1ef75433319226473d523",
        "metrics.csv":
            "fc6a1b2165c86b4ca40c24fb9a9f7d2edfa3985932f4bba9dbcf5245aab1dcc4",
        "plans/seed101.json":
            "5c715411dacd726f4f035340f2cc6a7fa332b26395ed33241d7ce157af6da9ab",
        "plans/seed202.json":
            "5c71ee4f22940c658d73a37485f882438d26b9e413bf05991e31735ec3d2dcc1",
    },
    "local-search": {
        "aggregate.json":
            "5c9280da2e789f7f52e48525ea4d52b3fbb62a5e397f88ee3a154d241377c8b6",
        "config.snapshot.json":
            "15224ccc246cef00e9987a51931429156efeb9a9c5ebf896d24d97e787aff107",
        "metrics.csv":
            "0a3527c2dffd63ebe2855fdab0a476aa523b0848171a80ff03605c5b071c96e3",
        "plans/seed101.json":
            "3e352fb64222a961009fbbbc05b8ffb77c2ad67e77162a043dc299dcc9c2de71",
        "plans/seed202.json":
            "5ca7b83ae8de706a57f8cb5731cf2b0a033a541e4788ea5601604bad1ddb48f7",
    },
    "simulate": {
        "aggregate.json":
            "564169c3570e054dfbcd2a6f9bca00528678c361f07e1e307ef6f8b7bc65528e",
        "config.snapshot.json":
            "17d1f1fb5ffe0b49d51d10abeef61dcf9b9d3e51f113e016c1dd2db40e19235e",
        "metrics.csv":
            "9a06ff7a511f0401312351cf3419f919528a74224e92c56737a13f7c11d76b80",
        "plans/seed101.final.json":
            "082a1794940c71bbb19cc11cb4607fb95c2d85538907ad087bcbdaccc4631ff9",
        "plans/seed101.initial.json":
            "c8a6a3878322cf7789b2ac66e7a882809278934db4b426698ed529b41c7cd23a",
        "plans/seed202.final.json":
            "f9c06a7160194e3b0dbdee9df58e08e9ab89bdbbdafda73abf1f663ff94361da",
        "plans/seed202.initial.json":
            "46dd93f6a159d0b13c309251d4eff085a73e89e7aa980a1a618edd3a9ba074f8",
        "trajectory.csv":
            "1c578284122c7f871a9cf1a1538ce338b4d91c908760f49b68a1ad91537b40f2",
        "transcripts/seed101.community1.json":
            "6794dbb6a97497252c0637d202e65667cb48bc17622b4882337e6d634976af5a",
        "transcripts/seed101.community1.txt":
            "85db3e2aca9898b96f667100f4ef0acb4ea9954235b71bc3e788a84c7a87d310",
        "transcripts/seed101.community2.json":
            "f7f833487525199f3b313d801ba2bf8fab2e30633cdeffadc50f4b501f448651",
        "transcripts/seed101.community2.txt":
            "c01490baad0e087d221a62477bbb048a7ebb2817a06a6ce0cd7d60a042c75acb",
        "transcripts/seed101.community3.json":
            "bf9daa406653b3befcad486ba420fdeb5f204c72f1db503fc2c3b0126d567349",
        "transcripts/seed101.community3.txt":
            "6e4c5d9e7a18cf005cbcc47f1a9f211b55871f4804b8be584ea3e51423d9d69e",
        "transcripts/seed101.community4.json":
            "501ac4e5fb716ee6ee247819536d16c0a644f6c4238866191ed7ecc5afd14146",
        "transcripts/seed101.community4.txt":
            "a25e554c466b330f67372b7572c3a8b0bfb5c59ad69b9941792799a113b7ece9",
        "transcripts/seed202.community1.json":
            "4e8e1225e6549603ee156061b535a8137b7bd027fb01fea9ac0571b9c975fb44",
        "transcripts/seed202.community1.txt":
            "4c818d33d06384382ec52ffa90093547730cd598929886a323b5d17d9df757ff",
        "transcripts/seed202.community2.json":
            "0118a5667ff1c5aecc9d70ed1f483ce72f68d69f6c4027c228603288019ec361",
        "transcripts/seed202.community2.txt":
            "f0bfb86ba7665c0bbde7f7f6401ca824b8b3ffb8f738a13eabfbc611d323f49b",
        "transcripts/seed202.community3.json":
            "585a3fb129c535c05021118316b7999451c8a4ebe9814fba625ff46f1a4ae5a3",
        "transcripts/seed202.community3.txt":
            "d5b1d5967c7eb5a80e61c73d19f041129c6e7da553837d292b787f171429ba8e",
        "transcripts/seed202.community4.json":
            "8a9370ef9bb90a99caebf037618bc7f48fbd598ce2c5dd0e9b5e20d7024b1dec",
        "transcripts/seed202.community4.txt":
            "d6eb5ce8b47a10cd6e6458533e73a045ef21cb00f08c6885b04b5b3c32957525",
    },
    "irregular": {
        "aggregate.json":
            "4518b737b5a268e236e39f09a53099f009190f7a081c5d5174b78caf22715169",
        "config.snapshot.json":
            "695bb4a495e805febe3f54c85e6c6d21cf9a642aef71d4c14c09c025520098b4",
        "metrics.csv":
            "0f434c24f475ff743071da12d607c824d5aea939dbd8c9955e62a13834198bf6",
        "plans/seed101.final.json":
            "e46c15e9f6e7525fe6b51cf19501a2465737e26fe007d84a276eda58324d00c1",
        "plans/seed101.initial.json":
            "a0af7753680397fe00cc9e25af034add77b3fab97e381b2fae8adb0a21a92394",
        "plans/seed202.final.json":
            "d1691a35626cc9a463f00c89ab94f8c165eb4ab3d7737b7af810e2d70dfade1b",
        "plans/seed202.initial.json":
            "41ae7c0ec09b4f07e3f599126753970ac9230907090b5190de16004b234ed91f",
        "trajectory.csv":
            "15f063d5cd29e9bca16dd347112c28527e11dcc33c125ece863a53833d46f32a",
        "transcripts/seed101.community1.json":
            "21931d38795034b8832c9323ccddc11669afbe2b7ea8c1cfc4b21338234709aa",
        "transcripts/seed101.community1.txt":
            "ef5b28f0160fc0dad427833a64e03a6ffc34c4c07e8747d454fcbcb7f410c931",
        "transcripts/seed101.community2.json":
            "cd2c6edbb45ae58de1f48ec9c7f3f48b8afa137797c1a5f264c8ca1e8328b52f",
        "transcripts/seed101.community2.txt":
            "cd40491ca443aa708c5e298c69402834a4d90f6202e8ef70eadc5302dc336936",
        "transcripts/seed101.community3.json":
            "5832435053981b84a05b7c75bc0455fad16492cdacfbb1347f3f652140af0f2f",
        "transcripts/seed101.community3.txt":
            "4eade0a6783ef26e3230addf84b1b2d56984190e8a854aa60c000beaf6d17133",
        "transcripts/seed101.community4.json":
            "bd2dc5e56dfe9d94e3eb81b4059b655d7997a149cdfca27f0ab0708a707b5aad",
        "transcripts/seed101.community4.txt":
            "e468ec686d983573bbd893a16166e1f41d8f536142b4820c5ea40fd047a5948a",
        "transcripts/seed202.community1.json":
            "b715394f21f247fc0a5e5ca9b0a933014c99043805e5421a492a7654ca79919d",
        "transcripts/seed202.community1.txt":
            "173534c2a2c5485058a8610e5638c7737c4c80a82b6b2035a25fe44bdd8732f5",
        "transcripts/seed202.community2.json":
            "1ec6486e766b5c273d8067548002fe0345868fbea09ee6f041fa72d03b2a91d8",
        "transcripts/seed202.community2.txt":
            "a5952ca29aeef66dc2e805e7fabdd7ff69a1b906a811573f4fa7cc2beda7388f",
        "transcripts/seed202.community3.json":
            "31b6bef89fe68e870d9d237d16de77bddedd3b93a39251c2ba39e45420bfb7d7",
        "transcripts/seed202.community3.txt":
            "3025f49a9d8f901418d590b1c2cad57cb261fbeb6a2fdbe4b4402a404474da9a",
        "transcripts/seed202.community4.json":
            "805eff248d45e76476789566d304c42927dae8e7540a207c1cddef375cb7ff96",
        "transcripts/seed202.community4.txt":
            "046cd9241eec3090b273ffb017df36b682aa4e165c9991aefc45154321c65201",
    },
}


def _tape(name):
    """The scripted replies of a failed-seed run: one usable plan, then
    one unusable reply, for "plan-failed-seed"; none otherwise."""
    if name != "plan-failed-seed":
        return []
    region = load_region("hlg_like.region.json")
    plan_reply = RuleBackend().complete(render_initial_plan_prompt(region))
    return [{"reply_text": plan_reply, "request_digest": None},
            {"reply_text": "no plan today", "request_digest": None}]


def _write_irregular_region(path):
    """hlg_like with every interior lattice vertex moved by
    uniform(-40, 40) m in x, then in y, from random.Random(7), visiting the
    vertices in sorted (x, y) order; the border vertices stay fixed."""
    doc = json.loads(data_path("hlg_like.region.json").read_text())
    rings = [f["geometry"]["coordinates"][0] for f in doc["features"]]
    vertices = sorted({tuple(p) for ring in rings for p in ring})
    xs, ys = zip(*vertices)
    rng = random.Random(7)
    moved = {}
    for x, y in vertices:
        border = x in (min(xs), max(xs)) or y in (min(ys), max(ys))
        moved[x, y] = [x, y] if border else [x + rng.uniform(-40, 40),
                                             y + rng.uniform(-40, 40)]
    for ring in rings:
        ring[:] = [moved[tuple(p)] for p in ring]
    path.write_text(json.dumps(doc))


def test_irregular_region_has_no_rectangle(tmp_path):
    path = tmp_path / "irregular.region.json"
    _write_irregular_region(path)
    region = load_region(path)
    assert len(region.areas) == 63
    assert not any(a.fills_its_box for a in region.areas)


def _digests(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            if name == "report.txt":
                continue
            with open(path, "rb") as fh:
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_run_directory(name, tmp_path, monkeypatch):
    for rel in ("hlg_like.region.json", "hlg_like.demographics.json"):
        shutil.copy(data_path(rel), tmp_path / rel)
    _write_irregular_region(tmp_path / "irregular.region.json")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tape.json").write_text(json.dumps(_tape(name)))
    assert main(RUNS[name] + ["--out", "run"]) == EXIT.get(name, 0)
    got = _digests("run")
    assert got == GOLDEN[name], (
        f"run files differ from the golden digests, recorded with numpy "
        f"{GOLDEN_NUMPY}; this run used numpy {np.__version__}")


#: Two runs whose every rule-backend exchange is pinned below: the
#: roleplay discussion with an LLM initial plan, and the generic-persona one.
PROMPT_RUNS = (
    ["simulate", *INPUTS, "--backend", "rule", "--method", "llm",
     "--seeds", "101", "--rounds", "3", "--speakers", "50"],
    ["ablate", *INPUTS, "--backend", "rule", "--mode", "no-roleplay",
     "--seeds", "101"],
)

#: (exchange count, SHA-256 over each exchange's request digest and reply).
PROMPT_PIN = (
    1226,
    "04d484178f902009cb6deb4b8e8a3998012168bd669a00805e1cac448655d66a")


def test_prompt_bytes_are_pinned(tmp_path, monkeypatch):
    # The golden transcripts pin the replies, and the record/replay tests
    # record and replay with one version of the code; this pins the prompt
    # bytes themselves (through request_digest, as a scripted tape checks
    # them), so a drifted prompt cannot silently break a recorded tape.
    for rel in ("hlg_like.region.json", "hlg_like.demographics.json"):
        shutil.copy(data_path(rel), tmp_path / rel)
    monkeypatch.chdir(tmp_path)
    exchanges = []
    complete = RuleBackend.complete

    def recorded(self, messages):
        reply = complete(self, messages)
        exchanges.append([request_digest("", 0.0, messages), reply])
        return reply

    monkeypatch.setattr(RuleBackend, "complete", recorded)
    for k, argv in enumerate(PROMPT_RUNS):
        assert main(argv + ["--out", f"run{k}"]) == 0
    h = hashlib.sha256()
    for exchange in exchanges:
        h.update(json.dumps(exchange).encode() + b"\n")
    assert (len(exchanges), h.hexdigest()) == PROMPT_PIN, (
        f"prompts or replies differ from the pinned ones, recorded with "
        f"numpy {GOLDEN_NUMPY}; this run used numpy {np.__version__}")
